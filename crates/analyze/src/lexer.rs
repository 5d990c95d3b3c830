//! A minimal Rust lexer.
//!
//! The analyzer cannot depend on `syn` (the build environment is fully
//! offline and the vendored dependency set is deliberately tiny), so it
//! carries its own tokenizer. It handles exactly the lexical features
//! the rule engines need:
//!
//! * line (`//`) and nested block (`/* */`) comments — stripped,
//! * string, raw-string, byte-string and char literals — collapsed to
//!   single tokens so their contents can never fake a match,
//! * raw identifiers (`r#fn`) — one `Ident` token, never a phantom
//!   `#[` attribute start,
//! * lifetimes vs. char literals (`'a` the lifetime vs. `'a'` the char),
//! * multi-character operators the rules care about (`==`, `!=`, `::`,
//!   `->`, `=>`, `..`, `<=`, `>=`, `&&`, `||`, `<<`, `>>`),
//! * line *and column* numbers on every token, for `file:line:col`
//!   diagnostics. Columns are 1-based **character** columns (the
//!   source is iterated as `char`s), so diagnostics on non-ASCII
//!   lines point at the glyph the user sees, not a byte offset.
//!
//! Everything else (identifiers, numbers, single punctuation) passes
//! through unchanged. The output is a flat `Vec<Token>` the item parser
//! and rule engines walk with plain indices.

/// The coarse classification the rules dispatch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer / float literal.
    Num,
    /// String, raw string, byte string or char literal.
    Lit,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation / operator (possibly multi-character).
    Punct,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// The token text (`"=="`, `"unwrap"`, …). Literals keep their full
    /// source slice (quotes included) — but rule engines only match via
    /// [`Token::is_ident`] / [`Token::is_punct`], which check `kind`,
    /// so nothing inside a literal can fake an identifier match. Raw
    /// identifiers keep their `r#` prefix (`r#fn` is *not* the `fn`
    /// keyword).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Two-character operators recognized as single tokens.
const TWO_CHAR_OPS: &[&str] = &[
    "==", "!=", "::", "->", "=>", "..", "<=", ">=", "&&", "||", "<<", ">>",
];

/// Lexes `src` into a token stream. Comments are dropped; everything
/// else becomes a [`Token`].
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    // Char index of the first character of the current line; columns
    // are `i - line_start + 1`.
    let mut line_start = 0usize;
    let n = b.len();

    // Advances line/line_start over the consumed span `[from, to)`.
    macro_rules! advance_over {
        ($from:expr, $to:expr) => {
            for (off, &c) in b[$from..$to].iter().enumerate() {
                if c == '\n' {
                    line += 1;
                    line_start = $from + off + 1;
                }
            }
        };
    }

    while i < n {
        let c = b[i];
        let col = (i - line_start) as u32 + 1;
        match c {
            '\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                advance_over!(start, i.min(n));
            }
            '"' => {
                let end = scan_string(&b, i);
                out.push(Token {
                    kind: TokKind::Lit,
                    text: b[i..end].iter().collect(),
                    line,
                    col,
                });
                advance_over!(i, end);
                i = end;
            }
            'r' | 'b' if starts_special_literal(&b, i) => {
                let (end, kind) = scan_special_literal(&b, i);
                out.push(Token {
                    kind,
                    text: b[i..end].iter().collect(),
                    line,
                    col,
                });
                advance_over!(i, end);
                i = end;
            }
            // Raw identifier `r#name`: one Ident token, text kept with
            // its prefix so `r#fn` never matches the `fn` keyword and
            // the stray `#` can never open a phantom attribute.
            'r' if i + 1 < n
                && b[i + 1] == '#'
                && i + 2 < n
                && (b[i + 2].is_alphabetic() || b[i + 2] == '_') =>
            {
                let mut j = i + 2;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident,
                    text: b[i..j].iter().collect(),
                    line,
                    col,
                });
                i = j;
            }
            '\'' => {
                // Char literal or lifetime. A char literal closes with a
                // quote within a few chars (`'x'`, `'\n'`, `'\u{1F600}'`);
                // a lifetime is `'` followed by an identifier and no
                // closing quote.
                if let Some(end) = scan_char_literal(&b, i) {
                    out.push(Token {
                        kind: TokKind::Lit,
                        text: b[i..end].iter().collect(),
                        line,
                        col,
                    });
                    i = end;
                } else {
                    let mut j = i + 1;
                    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.push(Token {
                        kind: TokKind::Lifetime,
                        text: b[i..j].iter().collect(),
                        line,
                        col,
                    });
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident,
                    text: b[i..j].iter().collect(),
                    line,
                    col,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_' || b[j] == '.') {
                    // Stop `0..10` from swallowing the range operator.
                    if b[j] == '.' && j + 1 < n && b[j + 1] == '.' {
                        break;
                    }
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Num,
                    text: b[i..j].iter().collect(),
                    line,
                    col,
                });
                i = j;
            }
            _ => {
                // Multi-char operators first.
                let two: String = b[i..(i + 2).min(n)].iter().collect();
                let op = TWO_CHAR_OPS.contains(&two.as_str()).then_some(two);
                match op {
                    Some(t) => {
                        out.push(Token {
                            kind: TokKind::Punct,
                            text: t,
                            line,
                            col,
                        });
                        i += 2;
                    }
                    None => {
                        out.push(Token {
                            kind: TokKind::Punct,
                            text: c.to_string(),
                            line,
                            col,
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

/// Scans a `"…"` string starting at the opening quote; returns the
/// index past the closing quote.
fn scan_string(b: &[char], start: usize) -> usize {
    let n = b.len();
    let mut i = start + 1;
    while i < n {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Whether `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` starts at `i`.
fn starts_special_literal(b: &[char], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        'r' => {
            let mut j = i + 1;
            while j < n && b[j] == '#' {
                j += 1;
            }
            // `r#ident` fails this check (no quote after the hashes)
            // and is lexed as a raw identifier instead.
            j < n && b[j] == '"'
        }
        'b' => {
            if i + 1 >= n {
                return false;
            }
            match b[i + 1] {
                '"' | '\'' => true,
                'r' => {
                    let mut j = i + 2;
                    while j < n && b[j] == '#' {
                        j += 1;
                    }
                    j < n && b[j] == '"'
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Scans raw/byte string or byte-char literals; returns
/// (index past end, token kind).
fn scan_special_literal(b: &[char], start: usize) -> (usize, TokKind) {
    let n = b.len();
    let mut i = start;
    if b[i] == 'b' {
        i += 1;
        if i < n && b[i] == '\'' {
            // b'x' byte char.
            let end = scan_char_literal(b, i).unwrap_or(n);
            return (end, TokKind::Lit);
        }
    }
    if i < n && b[i] == 'r' {
        i += 1;
    }
    let mut hashes = 0;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || b[i] != '"' {
        return (start + 1, TokKind::Punct);
    }
    if hashes == 0 && b[start] == 'b' && b[start + 1] == '"' {
        // plain b"…": escapes apply, delegate to scan_string semantics.
        let end = scan_string(b, i);
        return (end, TokKind::Lit);
    }
    // Raw string: ends at `"` followed by `hashes` hashes; no escapes.
    i += 1;
    while i < n {
        if b[i] == '"' {
            let mut j = i + 1;
            let mut h = 0;
            while j < n && b[j] == '#' && h < hashes {
                j += 1;
                h += 1;
            }
            if h == hashes {
                return (j, TokKind::Lit);
            }
        }
        i += 1;
    }
    (n, TokKind::Lit)
}

/// If a char literal starts at `i` (the `'`), returns the index past its
/// closing quote; `None` if this is a lifetime.
fn scan_char_literal(b: &[char], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 1 >= n {
        return None;
    }
    if b[i + 1] == '\\' {
        // Escaped char: scan to closing quote.
        let mut j = i + 2;
        while j < n && b[j] != '\'' {
            j += 1;
        }
        return Some((j + 1).min(n));
    }
    // `'x'`: exactly one char then a quote.
    if i + 2 < n && b[i + 2] == '\'' {
        return Some(i + 3);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_are_stripped() {
        assert_eq!(
            texts("a // unwrap()\nb /* panic! /* nested */ */ c"),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn strings_are_opaque_to_ident_matching() {
        let toks = lex(r#"let x = "call .unwrap() here";"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 1);
        // Nothing inside the literal can match as an identifier.
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn raw_strings_and_bytes() {
        let toks = lex(r##"let x = r#"no "escape" panic!"#; let y = b"bytes"; let z = b'q';"##);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 3);
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = lex("fn f<'a>(x: &'a u8) { let c = 'x'; }");
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(t.iter().any(|t| t.kind == TokKind::Lit && t.text == "'x'"));
    }

    #[test]
    fn multichar_operators() {
        let t = texts("a == b != c :: d -> e .. f << g >> h");
        for op in ["==", "!=", "::", "->", "..", "<<", ">>"] {
            assert!(t.contains(&op.to_string()), "{op}");
        }
    }

    #[test]
    fn shift_vs_nested_generics() {
        // `>>` is one token now; the parser compensates in generic
        // position (see parse::split_fields).
        let t = texts("Vec<Vec<u8>> x; a << 2; b >> 3;");
        assert_eq!(t.iter().filter(|s| s.as_str() == ">>").count(), 2);
        assert_eq!(t.iter().filter(|s| s.as_str() == "<<").count(), 1);
    }

    #[test]
    fn line_numbers() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn column_numbers_are_one_based_chars() {
        let toks = lex("let x = 1;\n  y.unwrap();");
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (2, 5));
        let x = toks.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!((x.line, x.col), (1, 5));
    }

    #[test]
    fn columns_count_chars_not_bytes_on_non_ascii_lines() {
        // "héllo wörld" is 11 chars but 13 bytes; the token after the
        // literal must be at a character column.
        let toks = lex("let s = \"héllo wörld\"; s.unwrap();");
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        // l e t _ s _ = _ "héllo wörld" ; _ s . u…
        // cols:        9..=21 literal, 22 `;`, 24 `s`, 25 `.`, 26 `u`
        assert_eq!(unwrap.col, 26);
    }

    #[test]
    fn columns_reset_after_multiline_tokens() {
        // Line 2 is `b"; t()` — the tail of the string still counts:
        // b=1 "=2 ;=3 ␠=4 t=5.
        let toks = lex("let s = \"a\nb\"; t()");
        let t = toks.iter().find(|t| t.is_ident("t")).unwrap();
        assert_eq!((t.line, t.col), (2, 5));
        let toks = lex("/* c\nc */ f()");
        let f = toks.iter().find(|t| t.is_ident("f")).unwrap();
        assert_eq!((f.line, f.col), (2, 6));
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        let toks = lex("let r#fn = r#match + 1; #[test] fn g() {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r#fn"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r#match"));
        // `r#fn` is not the `fn` keyword.
        assert_eq!(toks.iter().filter(|t| t.is_ident("fn")).count(), 1);
        // The `#` inside a raw ident never opens a phantom attribute:
        // only the real `#[test]` hash survives as punctuation.
        assert_eq!(toks.iter().filter(|t| t.is_punct("#")).count(), 1);
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        let src = "let a = r##\"quote \"# inside\"##; done()";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("done")));
        // `r#"…"#` (one hash) still lexes as a raw string, not a raw ident.
        let toks = lex("let b = r#\"x\"#;");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 1);
    }

    #[test]
    fn range_after_number() {
        let t = texts("for i in 0..10 {}");
        assert!(t.contains(&"0".to_string()));
        assert!(t.contains(&"..".to_string()));
        assert!(t.contains(&"10".to_string()));
    }
}
