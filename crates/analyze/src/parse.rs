//! Item-level parsing on top of the token stream: functions (name and
//! body), structs (with fields and derives), and `#[cfg(test)]`
//! regions. This is deliberately *not* a full Rust parser — it
//! recovers exactly the structure the rules need, using brace matching
//! and a handful of keyword anchors.

use crate::lexer::{lex, TokKind, Token};

/// A parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Token index range of the body (inside the braces).
    pub body: std::ops::Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region or annotated `#[test]`.
    pub is_test: bool,
}

/// A parsed `struct` item with named fields.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// `(field, flattened type)` pairs.
    pub fields: Vec<(String, String)>,
    /// Traits listed in `#[derive(..)]` attributes on this struct.
    pub derives: Vec<String>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// One parsed source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// The full token stream (comments stripped).
    pub tokens: Vec<Token>,
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All structs with named fields.
    pub structs: Vec<StructItem>,
    /// Token index ranges that belong to `#[cfg(test)]` items.
    pub test_regions: Vec<std::ops::Range<usize>>,
}

impl ParsedFile {
    /// Whether token index `i` falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&i))
    }
}

/// Parses one file's source text.
pub fn parse(src: &str) -> ParsedFile {
    let tokens = lex(src);
    let mut out = ParsedFile {
        tokens: Vec::new(),
        fns: Vec::new(),
        structs: Vec::new(),
        test_regions: Vec::new(),
    };

    // First pass: find `#[cfg(test)]` / `#[test]` attributes and mark
    // the token range of the item that follows (up to its matching
    // closing brace or semicolon).
    let n = tokens.len();
    let mut i = 0;
    while i < n {
        if is_attr_start(&tokens, i) {
            let (attr_end, is_test_attr) = scan_attr(&tokens, i);
            if is_test_attr {
                let item_end = scan_item_end(&tokens, attr_end);
                out.test_regions.push(i..item_end);
                i = attr_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }

    // Second pass: items.
    let mut i = 0;
    let mut pending_derives: Vec<String> = Vec::new();
    let mut has_test_attr = false;
    while i < n {
        let t = &tokens[i];
        if is_attr_start(&tokens, i) {
            let (attr_end, is_test_attr) = scan_attr(&tokens, i);
            pending_derives.extend(derives_in_attr(&tokens, i, attr_end));
            has_test_attr |= is_test_attr;
            i = attr_end;
            continue;
        }
        if t.is_ident("fn") {
            let (f, next) = parse_fn(&tokens, i, &out);
            let mut f = f;
            f.is_test |= has_test_attr;
            i = next;
            out.fns.push(f);
            pending_derives.clear();
            has_test_attr = false;
            continue;
        }
        if t.is_ident("struct") {
            if let Some((s, next)) =
                parse_struct(&tokens, i, &out, std::mem::take(&mut pending_derives))
            {
                i = next;
                out.structs.push(s);
                has_test_attr = false;
                continue;
            }
        }
        if t.kind == TokKind::Ident || t.is_punct(";") || t.is_punct("{") {
            // Any other item boundary clears pending attributes.
            if t.is_punct(";") || t.is_punct("{") {
                pending_derives.clear();
                has_test_attr = false;
            }
        }
        i += 1;
    }

    out.tokens = tokens;
    out
}

/// `#` followed by `[` (an outer attribute) or `#` `!` `[` (inner).
fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    tokens[i].is_punct("#")
        && (tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
            || (tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct("["))))
}

/// Scans an attribute starting at `#`; returns (index past `]`,
/// whether it is `#[cfg(test)]` or `#[test]`).
fn scan_attr(tokens: &[Token], start: usize) -> (usize, bool) {
    let mut i = start + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct("!")) {
        i += 1;
    }
    // tokens[i] == '['
    let mut depth = 0usize;
    let body_start = i;
    while i < tokens.len() {
        if tokens[i].is_punct("[") {
            depth += 1;
        } else if tokens[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        }
        i += 1;
    }
    let body: Vec<&str> = tokens[body_start..i]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    let is_test = matches!(body.as_slice(), ["[", "test", "]"])
        || (body.contains(&"cfg") && body.contains(&"test"));
    (i, is_test)
}

/// Trait names inside `#[derive(A, B)]`, if this attribute is a derive.
fn derives_in_attr(tokens: &[Token], start: usize, end: usize) -> Vec<String> {
    let body = &tokens[start..end];
    if !body.iter().any(|t| t.is_ident("derive")) {
        return Vec::new();
    }
    body.iter()
        .filter(|t| t.kind == TokKind::Ident && t.text != "derive")
        .map(|t| t.text.clone())
        .collect()
}

/// From just past an attribute, scans to the end of the following item
/// (matching `{}` braces, or the first `;` before any brace).
fn scan_item_end(tokens: &[Token], mut i: usize) -> usize {
    let n = tokens.len();
    // Skip further attributes.
    while i < n && is_attr_start(tokens, i) {
        i = scan_attr(tokens, i).0;
    }
    let mut depth = 0usize;
    while i < n {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    n
}

/// Parses a `fn` item starting at the `fn` keyword. Returns the item
/// and the index to continue scanning from (just past the signature —
/// the caller walks *into* bodies so nested fns are found too).
fn parse_fn(tokens: &[Token], start: usize, file: &ParsedFile) -> (FnItem, usize) {
    let n = tokens.len();
    let line = tokens[start].line;
    let name = tokens
        .get(start + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();

    // Skip generics between name and `(` (angle-bracket matching; fine
    // in signature position where `<` is never a comparison).
    let mut i = start + 2;
    if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0isize;
        while i < n {
            match tokens[i].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                ">>" => depth -= 2,
                _ => {}
            }
            i += 1;
        }
    }

    // Parameter list (matched by parens: it may hold `;` and `{`).
    if tokens.get(i).is_some_and(|t| t.is_punct("(")) {
        let mut depth = 0usize;
        while i < n {
            if tokens[i].is_punct("(") {
                depth += 1;
            } else if tokens[i].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            i += 1;
        }
        i += 1; // past ')'
    }
    // Skip the return type and any where clause: they may hold `;`
    // (`-> [u8; 4]`) and `{` only inside brackets, parens or generics.
    let mut depth = 0isize;
    while i < n {
        match tokens[i].text.as_str() {
            "[" | "(" | "<" => depth += 1,
            "]" | ")" | ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "{" | ";" if depth <= 0 => break,
            _ => {}
        }
        i += 1;
    }

    // Body.
    let mut body = 0..0;
    if tokens.get(i).is_some_and(|t| t.is_punct("{")) {
        let open = i;
        let mut depth = 0usize;
        while i < n {
            if tokens[i].is_punct("{") {
                depth += 1;
            } else if tokens[i].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            i += 1;
        }
        body = open + 1..i.min(n);
    }

    let is_test = file.in_test_region(start);
    (
        FnItem {
            name,
            body,
            line,
            is_test,
        },
        // Continue just past the signature so nested fns inside the
        // body are discovered by the main loop.
        start + 1,
    )
}

/// Parses a brace struct starting at the `struct` keyword. Tuple
/// structs and unit structs are skipped (returns `None` → caller
/// advances by one token).
fn parse_struct(
    tokens: &[Token],
    start: usize,
    file: &ParsedFile,
    derives: Vec<String>,
) -> Option<(StructItem, usize)> {
    let n = tokens.len();
    let line = tokens[start].line;
    let name = tokens
        .get(start + 1)
        .filter(|t| t.kind == TokKind::Ident)?
        .text
        .clone();
    let mut i = start + 2;
    // Skip generics.
    if tokens.get(i).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0isize;
        while i < n {
            match tokens[i].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                ">>" => depth -= 2,
                _ => {}
            }
            i += 1;
        }
    }
    // Skip where clause.
    while i < n && !tokens[i].is_punct("{") && !tokens[i].is_punct(";") && !tokens[i].is_punct("(")
    {
        i += 1;
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct("{")) {
        return None; // tuple / unit struct
    }
    let open = i;
    let mut depth = 0usize;
    while i < n {
        if tokens[i].is_punct("{") {
            depth += 1;
        } else if tokens[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        i += 1;
    }
    let fields = split_fields(&tokens[open + 1..i.min(n)]);
    Some((
        StructItem {
            name,
            fields,
            derives,
            line,
            is_test: file.in_test_region(start),
        },
        i + 1,
    ))
}

/// Splits struct-body tokens into `(field, type)` pairs.
fn split_fields(tokens: &[Token]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut cur: Vec<&Token> = Vec::new();
    let mut flush = |cur: &mut Vec<&Token>| {
        // Strip attributes at the front.
        let mut s = 0usize;
        while s < cur.len() && cur[s].is_punct("#") {
            // skip to matching ]
            let mut d = 0usize;
            let mut j = s + 1;
            while j < cur.len() {
                if cur[j].is_punct("[") {
                    d += 1;
                } else if cur[j].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            s = j + 1;
        }
        let rest = &cur[s.min(cur.len())..];
        if let Some(c) = rest.iter().position(|t| t.is_punct(":")) {
            let name = rest[..c]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "pub" && t.text != "crate")
                .map(|t| t.text.clone());
            if let Some(name) = name {
                let ty: Vec<String> = rest[c + 1..].iter().map(|t| t.text.clone()).collect();
                out.push((name, ty.join(" ")));
            }
        }
        cur.clear();
    };
    for t in tokens {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            // `Vec<Vec<u8>>` ends in a single `>>` token.
            ">>" => depth -= 2,
            "," if depth == 0 => {
                flush(&mut cur);
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    flush(&mut cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_bodies() {
        let src = "pub fn add(a: [u8; 2], mut b: u64) -> u64 { a + b }\nfn g<T: Clone>(x: &T) where T: Copy { x }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "add");
        assert_eq!(p.fns[1].name, "g");
        // Bodies exclude the braces; a `;` inside the parameter list
        // does not end the signature.
        let body = |f: &FnItem| -> Vec<&str> {
            p.tokens[f.body.clone()]
                .iter()
                .map(|t| t.text.as_str())
                .collect()
        };
        assert_eq!(body(&p.fns[0]), ["a", "+", "b"]);
        assert_eq!(body(&p.fns[1]), ["x"]);
    }

    #[test]
    fn a_semicolon_in_the_return_type_does_not_end_the_signature() {
        let p = parse("fn a() -> [u8; 4] { [0; 4] }\nfn b<T>() -> Vec<[T; 2]> where T: Fn(u8) -> [u8; 1] { v }");
        let bodies: Vec<usize> = p.fns.iter().map(|f| f.body.len()).collect();
        assert_eq!(bodies, [5, 1]);
    }

    #[test]
    fn finds_nested_fns() {
        let p = parse("fn outer() { fn inner(q: u8) {} inner(1); }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
    }

    #[test]
    fn struct_fields_and_derives() {
        let p =
            parse("#[derive(Clone, Debug)]\npub struct Key { pub secret: Secret<Ubig>, id: u64 }");
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "Key");
        assert!(s.derives.contains(&"Debug".to_string()));
        assert_eq!(s.fields[0].0, "secret");
        assert!(s.fields[0].1.contains("Secret"));
    }

    #[test]
    fn cfg_test_region_marks_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let p = parse(src);
        let live = p.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!live.is_test);
        assert!(helper.is_test);
    }

    #[test]
    fn test_attr_marks_fn() {
        let p = parse("#[test]\nfn t() { assert!(true); }\nfn f() {}");
        assert!(p.fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!p.fns.iter().find(|f| f.name == "f").unwrap().is_test);
    }

    #[test]
    fn nested_generics_in_fields() {
        // `Vec<Vec<u8>>` ends with one `>>` token; the splitter must
        // close two angle levels for it or every following field is
        // swallowed into the type.
        let p = parse("struct S { shards: Vec<Vec<u8>>, n: usize }");
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.structs[0].fields[1].0, "n");
    }
}
