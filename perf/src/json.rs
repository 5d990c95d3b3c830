//! The few lines of JSON writing the benchmark needs. Reading (for
//! `perf compare`) reuses `gkap_bench::manifest::json`.

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A measured number, rendered with every digit `f64` holds.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<J>),
    /// An object, in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// `Num`, or `null` when the host could not supply the reading.
    pub fn opt_num(v: Option<f64>) -> J {
        v.map_or(J::Null, J::Num)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/inf; a non-finite reading is a missing one.
            J::Num(v) if !v.is_finite() => out.push_str("null"),
            J::Num(v) => out.push_str(&format!("{v}")),
            J::Int(v) => out.push_str(&v.to_string()),
            J::Str(s) => write_str(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bench::manifest::json;

    #[test]
    fn renders_and_reads_back() {
        let doc = J::obj([
            ("name", J::str("a \"quoted\"\nline")),
            ("value", J::Num(1.2034)),
            ("count", J::Int(7)),
            ("missing", J::opt_num(None)),
            ("nan", J::Num(f64::NAN)),
            ("list", J::Arr(vec![J::Bool(true), J::Null])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line");
        let back = json::parse(&text).expect("valid JSON");
        let obj = back.as_obj().expect("object");
        assert_eq!(
            json::get(obj, "name").and_then(json::Value::as_str),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(
            json::get(obj, "value").and_then(json::Value::as_f64),
            Some(1.2034)
        );
        assert_eq!(json::get(obj, "missing"), Some(&json::Value::Null));
        assert_eq!(json::get(obj, "nan"), Some(&json::Value::Null));
    }
}
