//! Machine-readable output: `--format json` and `--format sarif`.
//!
//! Both renderers are hand-rolled (the build environment is offline,
//! so no `serde`): the value space is small and fully controlled, so
//! string escaping is the only hard part. SARIF output targets the
//! 2.1.0 schema subset that code-scanning UIs ingest — one run, one
//! driver, `results[]` with physical locations and a
//! `partialFingerprints` entry carrying the analyzer's stable
//! fingerprint so baselining survives line moves server-side too.

use crate::{Finding, Report};

/// JSON string escape (control characters, quotes, backslashes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"func\": \"{}\", \"fingerprint\": \"{}\", \"msg\": \"{}\"}}",
        json_escape(&f.rule),
        json_escape(&f.file),
        f.line,
        f.col,
        json_escape(&f.func),
        json_escape(&f.fingerprint),
        json_escape(&f.msg),
    )
}

/// Renders the full report as a single JSON document.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files\": {},\n", report.files));
    for (key, list) in [
        ("findings", &report.findings),
        ("baselined", &report.baselined),
    ] {
        out.push_str(&format!("  \"{key}\": [\n"));
        let body: Vec<String> = list.iter().map(|f| finding_json(f, "    ")).collect();
        out.push_str(&body.join(",\n"));
        if !body.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"stale_allows\": [");
    let stale: Vec<String> = report
        .stale_allows
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    out.push_str(&stale.join(", "));
    out.push_str("]\n}\n");
    out
}

/// Renders new + baselined findings as SARIF 2.1.0. Baselined results
/// are included with `"baselineState": "unchanged"` so viewers show
/// the full picture while CI gates only on the new set.
pub fn render_sarif(report: &Report) -> String {
    let mut results = Vec::new();
    for (list, state) in [(&report.findings, "new"), (&report.baselined, "unchanged")] {
        for f in list {
            results.push(format!(
                r#"        {{
          "ruleId": "{rule}",
          "level": "error",
          "baselineState": "{state}",
          "message": {{ "text": "{msg}" }},
          "locations": [
            {{
              "physicalLocation": {{
                "artifactLocation": {{ "uri": "{file}" }},
                "region": {{ "startLine": {line}, "startColumn": {col} }}
              }},
              "logicalLocations": [ {{ "name": "{func}", "kind": "function" }} ]
            }}
          ],
          "partialFingerprints": {{ "gkapAnalyze/v1": "{fp}" }}
        }}"#,
                rule = json_escape(&f.rule),
                state = state,
                msg = json_escape(&f.msg),
                file = json_escape(&f.file),
                line = f.line,
                col = f.col,
                func = json_escape(&f.func),
                fp = json_escape(&f.fingerprint),
            ));
        }
    }
    format!(
        r#"{{
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {{
      "tool": {{
        "driver": {{
          "name": "gkap-analyze",
          "informationUri": "https://example.invalid/gkap-analyze",
          "rules": []
        }}
      }},
      "results": [
{results}
      ]
    }}
  ]
}}
"#,
        results = results.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut f = Finding::new("L5-ARITH", "src/a.rs", 3, 7, "msg with \"quotes\"");
        f.func = "mont_mul".into();
        f.fingerprint = "L5-ARITH:src/a.rs:mont_mul:00ff:0".into();
        Report {
            findings: vec![f],
            baselined: vec![],
            stale_allows: vec!["L1-INDEX crates/x.rs".into()],
            files: 4,
        }
    }

    #[test]
    fn json_has_fields_and_escapes() {
        let j = render_json(&report());
        assert!(j.contains("\"rule\": \"L5-ARITH\""));
        assert!(j.contains("msg with \\\"quotes\\\""));
        assert!(j.contains("\"stale_allows\": [\"L1-INDEX crates/x.rs\"]"));
    }

    #[test]
    fn sarif_is_2_1_0_with_fingerprints() {
        let s = render_sarif(&report());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"L5-ARITH\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("gkapAnalyze/v1"));
        assert!(s.contains("L5-ARITH:src/a.rs:mont_mul:00ff:0"));
    }
}
