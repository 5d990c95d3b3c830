//! The four rule families.
//!
//! | id        | family                  | what it flags                                     |
//! |-----------|-------------------------|---------------------------------------------------|
//! | L1-PANIC  | panic-freedom           | `.unwrap()` / `.expect()` / `panic!`-class macros |
//! | L1-INDEX  | panic-freedom           | postfix slice / array indexing                    |
//! | L2-DERIVE | secret hygiene          | secret-bearing structs deriving Debug/Serialize   |
//! | L2-RAW    | secret hygiene          | secret-named fields stored outside `Secret<T>`    |
//! | L3-EQ     | constant-time           | `==` / `!=` in verification / confirmation paths  |
//! | L3-CT     | constant-time           | early exit / data indexing inside `ct_*` fns      |
//! | L4-HASH   | sim determinism         | `HashMap` / `HashSet` in event-ordering paths     |
//! | L4-TIME   | sim determinism         | wall-clock time (`Instant`, `SystemTime`, …)      |
//! | L4-RNG    | sim determinism         | ambient RNG (`thread_rng`, `OsRng`, …)            |
//!
//! All token-level checks skip `#[cfg(test)]` regions; findings are
//! deduplicated per `(rule, file, line)` so one offending line yields
//! one diagnostic.

use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::parse::ParsedFile;
use crate::Finding;

/// Every rule id the analyzer reports — the table above. A scope or
/// allowlist line must name one of these or its family (`L1`…`L4`).
pub const RULES: &[&str] = &[
    "L1-PANIC",
    "L1-INDEX",
    "L2-DERIVE",
    "L2-RAW",
    "L3-EQ",
    "L3-CT",
    "L4-HASH",
    "L4-TIME",
    "L4-RNG",
];

/// Field names treated as secret material for L2.
pub const SECRET_NAMES: &[&str] = &[
    "secret",
    "group_secret",
    "enc_key",
    "mac_key",
    "group_key",
    "private_key",
    "secret_exponent",
    "priv_exp",
    // Tree-protocol material: TGDH blinded keys are derived from the
    // per-node secrets, and session/leader keys are the agreed group
    // secrets of the flat and hierarchical compositions.
    "bkey",
    "blinded_key",
    "session_key",
    "leader_key",
];

/// Macros that panic at runtime.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that, immediately before `[`, mean the bracket is not a
/// postfix index expression.
const NON_INDEX_PREV: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move", "as",
    "dyn", "impl", "for", "where", "const", "static", "type", "fn", "pub", "crate", "super", "use",
    "struct", "enum", "trait", "mod", "unsafe", "while", "loop", "await", "async", "yield", "box",
];

/// Every check, over one file.
pub fn check_file(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    check_l1(path, pf, cfg, out);
    check_l2_structs(path, pf, cfg, out);
    check_l3(path, pf, cfg, out);
    check_l4(path, pf, cfg, out);
}

/// Fills each finding's `func` with the innermost enclosing function,
/// by line containment.
pub fn fill_funcs(files: &[(String, ParsedFile)], findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        if !f.func.is_empty() {
            continue;
        }
        let Some((_, pf)) = files.iter().find(|(p, _)| p == &f.file) else {
            continue;
        };
        let mut best: Option<(u32, &str)> = None;
        for item in &pf.fns {
            let start = item.line;
            let end = pf
                .tokens
                .get(item.body.end.min(pf.tokens.len().saturating_sub(1)))
                .map(|t| t.line)
                .unwrap_or(start);
            if start <= f.line && f.line <= end && best.is_none_or(|(s, _)| start >= s) {
                best = Some((start, &item.name));
            }
        }
        if let Some((_, name)) = best {
            f.func = name.to_string();
        }
    }
}

/// Finding at a token, attributed to a known enclosing function.
fn finding_at(rule: &str, file: &str, t: &Token, func: &str, msg: impl Into<String>) -> Finding {
    let mut f = Finding::new(rule, file, t.line, t.col, msg);
    f.func = func.to_string();
    f
}

/// Finding at a token; the enclosing function is attributed later.
fn tok_finding(rule: &str, file: &str, t: &Token, msg: impl Into<String>) -> Finding {
    Finding::new(rule, file, t.line, t.col, msg)
}

/// Item-level finding (no meaningful column).
fn finding(rule: &str, file: &str, line: u32, msg: impl Into<String>) -> Finding {
    Finding::new(rule, file, line, 1, msg)
}

/// Whether the `[` at token index `i` is a postfix index expression.
fn is_postfix_index(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct("[") {
        return false;
    }
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        _ => false,
    }
}

// ---------------------------------------------------------------- L1

fn check_l1(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    let panic_scoped = cfg.in_scope("L1-PANIC", path);
    let index_scoped = cfg.in_scope("L1-INDEX", path);
    if !panic_scoped && !index_scoped {
        return;
    }
    let toks = &pf.tokens;
    for i in 0..toks.len() {
        if pf.in_test_region(i) {
            continue;
        }
        let t = &toks[i];
        if panic_scoped {
            // `.unwrap(` / `.expect(`
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                out.push(tok_finding(
                    "L1-PANIC",
                    path,
                    t,
                    format!(
                        "`.{}()` in protocol path — return a GkaError instead",
                        t.text
                    ),
                ));
            }
            // `panic!` class macros.
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                out.push(tok_finding(
                    "L1-PANIC",
                    path,
                    t,
                    format!("`{}!` in protocol path — return a GkaError instead", t.text),
                ));
            }
        }
        if index_scoped && is_postfix_index(toks, i) {
            out.push(tok_finding(
                "L1-INDEX",
                path,
                t,
                "slice/array indexing can panic — use `.get()` and handle the miss",
            ));
        }
    }
}

// ---------------------------------------------------------------- L2

/// Whether a struct field holds secret material.
fn field_is_secret(name: &str, ty: &str) -> bool {
    SECRET_NAMES.contains(&name) || ty.contains("Secret <") || ty.contains("Secret<")
}

fn check_l2_structs(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.in_scope("L2-DERIVE", path) {
        return;
    }
    for s in &pf.structs {
        if s.is_test {
            continue;
        }
        let secret_fields: Vec<&(String, String)> = s
            .fields
            .iter()
            .filter(|(n, t)| field_is_secret(n, t))
            .collect();
        if secret_fields.is_empty() {
            continue;
        }
        for bad in ["Debug", "Serialize"] {
            if s.derives.iter().any(|d| d == bad) {
                out.push(finding(
                    "L2-DERIVE",
                    path,
                    s.line,
                    format!(
                        "struct `{}` holds secret material but derives {bad} — implement it manually and redact",
                        s.name
                    ),
                ));
            }
        }
        for (fname, fty) in &s.fields {
            if SECRET_NAMES.contains(&fname.as_str())
                && !fty.contains("Secret <")
                && !fty.contains("Secret<")
            {
                out.push(finding(
                    "L2-RAW",
                    path,
                    s.line,
                    format!(
                        "field `{}.{}` stores secret material outside the zeroizing `Secret<T>` wrapper",
                        s.name, fname
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- L3

/// Whether a function name marks a verification / key-confirmation path.
fn is_verify_fn(name: &str) -> bool {
    name.starts_with("verify") || name.starts_with("confirm") || name.ends_with("_verify")
}

fn check_l3(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.in_scope("L3-EQ", path) {
        return;
    }
    let toks = &pf.tokens;
    for f in &pf.fns {
        if f.is_test {
            continue;
        }
        if is_verify_fn(&f.name) {
            for i in f.body.clone() {
                let t = &toks[i];
                if t.is_punct("==") || t.is_punct("!=") {
                    // Length comparisons are public information.
                    let lo = i.saturating_sub(4);
                    let hi = (i + 5).min(toks.len());
                    let near_len = toks[lo..hi]
                        .iter()
                        .any(|t| t.is_ident("len") || t.is_ident("is_empty"));
                    if !near_len {
                        out.push(finding_at(
                            "L3-EQ",
                            path,
                            t,
                            &f.name,
                            format!(
                                "variable-time `{}` in verification path `{}` — use `ct_eq`",
                                t.text, f.name
                            ),
                        ));
                    }
                }
            }
        }
        if f.name.starts_with("ct_") {
            let loops = loop_ranges(toks, &f.body);
            for i in f.body.clone() {
                let t = &toks[i];
                let bad = if t.is_ident("return") || t.is_ident("break") || t.is_ident("continue") {
                    Some(format!("early exit `{}`", t.text))
                } else if t.is_punct("?") {
                    Some("early exit `?`".to_string())
                } else if is_postfix_index(toks, i) {
                    Some("data-dependent table/slice indexing".to_string())
                } else if (t.is_punct("==") || t.is_punct("!="))
                    && loops.iter().any(|r| r.contains(&i))
                {
                    Some(format!("branching comparison `{}` inside loop", t.text))
                } else {
                    None
                };
                if let Some(what) = bad {
                    out.push(finding_at(
                        "L3-CT",
                        path,
                        t,
                        &f.name,
                        format!("{what} in constant-time fn `{}`", f.name),
                    ));
                }
            }
        }
    }
}

/// Token ranges of loop bodies (`for` / `while` / `loop`) inside `body`.
fn loop_ranges(toks: &[Token], body: &std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for i in body.clone() {
        let t = &toks[i];
        if !(t.is_ident("for") || t.is_ident("while") || t.is_ident("loop")) {
            continue;
        }
        // Find the loop's opening brace, then match it.
        let mut j = i + 1;
        while j < body.end && !toks[j].is_punct("{") {
            j += 1;
        }
        let open = j;
        let mut depth = 0usize;
        while j < body.end {
            if toks[j].is_punct("{") {
                depth += 1;
            } else if toks[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push(open + 1..j);
    }
    out
}

// ---------------------------------------------------------------- L4

fn check_l4(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    let hash = cfg.in_scope("L4-HASH", path);
    let time = cfg.in_scope("L4-TIME", path);
    let rng = cfg.in_scope("L4-RNG", path);
    if !hash && !time && !rng {
        return;
    }
    let toks = &pf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if pf.in_test_region(i) {
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if hash => out.push(tok_finding(
                "L4-HASH",
                path,
                t,
                format!(
                    "`{}` in event-ordering path — iteration order is nondeterministic; use BTreeMap/BTreeSet",
                    t.text
                ),
            )),
            "Instant" | "SystemTime" if time => out.push(tok_finding(
                "L4-TIME",
                path,
                t,
                format!("wall-clock `{}` in simulation path — use the virtual clock", t.text),
            )),
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" if rng => out.push(tok_finding(
                "L4-RNG",
                path,
                t,
                format!("ambient RNG `{}` in simulation path — use the seeded simulator RNG", t.text),
            )),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;

    fn run(src: &str, scope: &str) -> Vec<Finding> {
        let cfg = Config::parse_conf(scope).unwrap();
        analyze_sources(&[("src/x.rs".to_string(), src.to_string())], &cfg)
    }

    #[test]
    fn l1_flags_unwrap_and_macros() {
        let f = run(
            "fn f(v: Option<u8>) -> u8 {\n    let x = v.unwrap();\n    if x > 9 { panic!(\"no\") }\n    x\n}",
            "scope L1 src/**",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "L1-PANIC").count(), 2);
    }

    #[test]
    fn l1_flags_indexing_but_not_attrs_or_macros() {
        let f = run(
            "#[derive(Clone)]\nstruct S { a: [u8; 4] }\nfn g(s: &S, i: usize) -> u8 { let v = vec![1]; s.a[i] }",
            "scope L1 src/**",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "L1-INDEX").count(), 1);
    }

    #[test]
    fn l1_skips_tests() {
        let f = run(
            "#[cfg(test)]\nmod t { fn h(v: Option<u8>) { v.unwrap(); } }",
            "scope L1 src/**",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn l2_derive_and_raw() {
        let f = run(
            "#[derive(Clone, Debug)]\nstruct K { secret: Ubig }\nstruct Ok2 { secret: Secret<Ubig> }",
            "scope L2 src/**",
        );
        assert!(f.iter().any(|f| f.rule == "L2-DERIVE"));
        assert!(f.iter().any(|f| f.rule == "L2-RAW"));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn l3_eq_in_verify() {
        let f = run(
            "fn verify_tag(a: &[u8], b: &[u8]) -> bool { if a.len() != b.len() { return false; } a == b }",
            "scope L3 src/**",
        );
        // len compare exempt; `a == b` flagged once.
        assert_eq!(f.iter().filter(|f| f.rule == "L3-EQ").count(), 1);
    }

    #[test]
    fn l3_ct_discipline() {
        let bad = run(
            "fn ct_bad(a: &[u8], b: &[u8]) -> bool { for i in 0..a.len() { if a[i] != b[i] { return false; } } true }",
            "scope L3 src/**",
        );
        assert!(bad.iter().any(|f| f.rule == "L3-CT"));
        let good = run(
            "fn ct_eq(a: &[u8], b: &[u8]) -> bool { let mut acc = a.len() ^ b.len(); for i in 0..a.len().max(b.len()) { let x = a.get(i).copied().unwrap_or(0); let y = b.get(i).copied().unwrap_or(0); acc |= usize::from(x ^ y); } acc == 0 }",
            "scope L3 src/**",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn l4_flags_nondeterminism() {
        let f = run(
            "use std::collections::HashMap;\nfn f() { let t = Instant::now(); let r = thread_rng(); }",
            "scope L4 src/**",
        );
        assert!(f.iter().any(|f| f.rule == "L4-HASH"));
        assert!(f.iter().any(|f| f.rule == "L4-TIME"));
        assert!(f.iter().any(|f| f.rule == "L4-RNG"));
    }

    #[test]
    fn allowlist_suppresses() {
        let mut cfg = Config::parse_conf("scope L1 src/**").unwrap();
        cfg.parse_allowlist("L1-PANIC src/x.rs # audited\n")
            .unwrap();
        let sources = [(
            "src/x.rs".to_string(),
            "fn f(v: Option<u8>) { v.unwrap(); }".to_string(),
        )];
        assert!(analyze_sources(&sources, &cfg).is_empty());
    }
}
