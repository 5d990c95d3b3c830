//! Keeps parallel copies of one mechanism from growing back,
//! lexically: outside `member.rs` a `SecureMember` is constructed at
//! three sites, one function puts members into a world, a member's
//! secret is read in the one function that decides agreement, a
//! protocol message is signed, verified and counted only in
//! `protocols/mod.rs` (`GkaCtx::send` and `GkaCtx::receive`), no
//! engine keeps or reports a key and only a protocol handler
//! establishes one, only `SecureMember` builds a `GkaCtx`, no
//! transport stands between a protocol and its member's `ClientCtx`,
//! and no engine keeps a member list: `SecureMember` owns membership,
//! only GDH reads the membership its member last keyed, and no engine
//! reads a view. It also holds the lexical half of the static analysis
//! (DESIGN.md §11), the rules clippy cannot see: no index in the
//! panic-free drivers (L1-INDEX), secrets kept in `Secret<T>` and
//! never printed (L2), and constant-time verification (L3).
//! `#[cfg(test)]` items, wherever they sit in a file, are not looked
//! at, except by the checks that read `files`.

use std::fs;
use std::path::Path;

/// `(crate/relative path, non-test source)` of every file under
/// `crates/<krate>/src`, subdirectories included.
fn sources(krate: &str) -> Vec<(String, String)> {
    files(krate)
        .into_iter()
        .map(|(name, text)| (name, without_test_items(&text)))
        .collect()
}

/// `code` less each `#[cfg(test)]` item: the attribute, and the item
/// it gates up to its `;` or through its braced body. An attribute in
/// a comment or a string is not one.
fn without_test_items(code: &str) -> String {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let toks = tokens(code);
    // Punctuation tokens are slices of `code`; literals are not.
    let at = |t: &str| t.as_ptr() as usize - code.as_ptr() as usize;
    let (mut out, mut kept, mut i) = (String::new(), 0, 0);
    while i < toks.len() {
        if !toks[i..].starts_with(&ATTR) {
            i += 1;
            continue;
        }
        let item = i + ATTR.len();
        let mut depth = 0i32;
        let open = toks[item..].iter().position(|&t| {
            depth += i32::from(t == "(" || t == "[") - i32::from(t == ")" || t == "]");
            depth == 0 && (t == "{" || t == ";")
        });
        let end = match open.map(|n| item + n) {
            Some(n) if toks[n] == "{" => block_end(&toks, n),
            Some(n) => n,
            None => toks.len(),
        };
        out.push_str(&code[kept..at(toks[i])]);
        kept = toks.get(end).map_or(code.len(), |t| at(t) + t.len());
        i = end + 1;
    }
    out + &code[kept..]
}

#[test]
fn test_items_are_cut_wherever_they_sit() {
    // A test helper mid-file hides nothing below it; a test module's
    // own structs are not read.
    let code = "\
        #[cfg(test)]
        fn helper() -> [u8; 2] { [0, 1] }

        // `#[cfg(test)]` in a comment gates nothing.
        struct Keys {
            group_key: Ubig,
        }

        #[cfg(test)]
        mod tests {
            struct Fixture { secret: &'static str }
            const BRACE: &str = \"}\";
        }
    ";
    let code = without_test_items(code);
    for gone in ["helper", "Fixture", "BRACE"] {
        assert!(!code.contains(gone), "{gone} is test code:\n{code}");
    }
    assert_eq!(raw_secret_fields("x.rs", &code), ["x.rs: Keys.group_key"]);
}

/// `(crate/relative path, whole text)` of every file under
/// `crates/<krate>/src`, subdirectories included.
fn files(krate: &str) -> Vec<(String, String)> {
    fn walk(dir: &Path, prefix: &str, out: &mut Vec<(String, String)>) {
        for entry in fs::read_dir(dir).expect("source directory is readable") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let name = format!("{prefix}/{name}");
            if path.is_dir() {
                walk(&path, &name, out);
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(&path).expect("source file is readable");
                out.push((name, text));
            }
        }
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(krate)
        .join("src");
    let mut out = Vec::new();
    walk(&dir, krate, &mut out);
    out.sort();
    out
}

#[test]
fn protocol_messages_are_signed_verified_and_counted_in_one_place() {
    let core = sources("core");
    assert!(
        core.iter()
            .any(|(name, _)| name == "core/protocols/tree_gka.rs"),
        "`sources` walks subdirectories"
    );
    // `envelope.rs` and `suite.rs` define the signature check; every
    // other `.verify(` is a call of it.
    let files_with = |needle: &str| -> Vec<&str> {
        core.iter()
            .filter(|(name, code)| {
                code.contains(needle) && !["core/envelope.rs", "core/suite.rs"].contains(&&**name)
            })
            .map(|(name, _)| name.as_str())
            .collect()
    };
    for needle in ["Envelope::seal(", ".verify("] {
        assert_eq!(
            files_with(needle),
            ["core/protocols/mod.rs"],
            "`{needle}` belongs to `GkaCtx::send` / `GkaCtx::receive`"
        );
    }
    for needle in ["counts.sign", "counts.verify"] {
        assert!(
            files_with(needle)
                .iter()
                .all(|&name| name == "core/protocols/mod.rs"),
            "`{needle}`: count a primitive through `GkaCtx`"
        );
    }
}

#[test]
fn secure_members_are_constructed_at_three_sites() {
    let mut sites = Vec::new();
    for (name, code) in sources("core").into_iter().chain(sources("bench")) {
        let count = code.matches("SecureMember::new(").count()
            + code.matches("SecureMember::with_protocol(").count();
        if count > 0 && name != "core/member.rs" {
            sites.push((name, count));
        }
    }
    assert_eq!(
        sites,
        [
            ("core/experiment.rs".to_string(), 1), // member_rule
            ("core/testkit.rs".to_string(), 1),    // Loopback::with_factory
            ("bench/chaos.rs".to_string(), 1),     // default_factory
        ],
        "make a world's members with `experiment::member_rule`, or with `chaos::default_factory`"
    );
}

#[test]
fn worlds_are_populated_in_one_function() {
    let calls = [".add_client(", ".add_client_on(", ".install_initial_view"];
    let mut sites = Vec::new();
    for (name, code) in sources("core").into_iter().chain(sources("bench")) {
        let count: usize = calls.iter().map(|call| code.matches(call).count()).sum();
        if count > 0 {
            sites.push((name, count));
        }
    }
    assert_eq!(
        sites,
        [
            ("core/experiment.rs".to_string(), 2), // secure_world
            ("bench/micro.rs".to_string(), 6),     // GCS probes, no members
        ],
        "put members into a world through `experiment::secure_world`"
    );
}

#[test]
fn secrets_are_compared_in_one_function() {
    let watched = |name: &str| {
        name.starts_with("bench/") || ["core/experiment.rs", "core/scale.rs"].contains(&name)
    };
    let mut readers = Vec::new();
    for (name, code) in sources("core").into_iter().chain(sources("bench")) {
        if !watched(&name) {
            continue;
        }
        // The function a line belongs to: the last `fn` item opened at
        // or before it.
        let mut current = String::new();
        for line in code.lines() {
            let item = line
                .trim_start()
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ");
            if let Some(rest) = item.strip_prefix("fn ") {
                let end = rest.find(['(', '<']).unwrap_or(rest.len());
                current = rest[..end].to_string();
            }
            if line.contains(".secret(") && !line.trim_start().starts_with("//") {
                readers.push(format!("{name}::{current}"));
            }
        }
    }
    assert_eq!(
        readers,
        ["core/experiment.rs::agreed_secret"],
        "decide agreement with `agreed_secret`, with faults or without"
    );
}

/// Files of `crates/core/src`, test code included, whose text contains
/// `needle`.
fn core_files_with(needle: &str) -> Vec<String> {
    files("core")
        .into_iter()
        .filter(|(_, text)| text.contains(needle))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn only_secure_member_builds_a_gka_ctx() {
    // A unit test, too, drives an engine through the loopback's
    // members, never through a context of its own.
    assert_eq!(
        core_files_with("GkaCtx {"),
        ["core/member.rs"],
        "only `SecureMember::with_gka` builds a `GkaCtx`"
    );
}

#[test]
fn protocols_send_through_the_client_ctx() {
    assert_eq!(
        core_files_with("Transport"),
        Vec::<String>::new(),
        "a protocol sends through the member's `ClientCtx`, not a transport"
    );
}

#[test]
fn engines_keep_no_key_and_only_protocols_establish_one() {
    // `component.rs` holds the formed components' keys until adopted.
    for (name, code) in sources("core") {
        if !name.starts_with("core/protocols/") || name == "core/protocols/component.rs" {
            continue;
        }
        for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
            assert!(!line.contains("secret:"), "{name}: an engine keeps no key");
            assert!(
                !line.contains("fn group_secret"),
                "{name}: an engine reports no key"
            );
        }
    }
    let establishing: Vec<String> = sources("core")
        .into_iter()
        .chain(sources("bench"))
        .filter(|(name, code)| code.contains("establish(") && !name.starts_with("core/protocols/"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        establishing,
        Vec::<String>::new(),
        "a key comes into being in a protocol handler, through `GkaCtx::establish`"
    );
}

/// A braced `struct`: its name, the text of the attributes above it,
/// and its `(field, type)` pairs.
struct Struct {
    name: String,
    attrs: String,
    fields: Vec<(String, String)>,
}

/// Every braced `struct` in `code`.
fn structs(code: &str) -> Vec<Struct> {
    let mut out = Vec::new();
    let mut attrs = String::new();
    let mut inside: Option<Struct> = None;
    for line in code.lines() {
        let item = line.trim();
        if let Some(s) = inside.as_mut() {
            let field = ["pub(crate) ", "pub(super) ", "pub "]
                .iter()
                .fold(item, |item, vis| item.trim_start_matches(vis));
            if item.starts_with('}') {
                out.extend(inside.take());
            } else if let Some((name, ty)) = field.split_once(':') {
                if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    s.fields.push((name.to_string(), ty.trim().to_string()));
                }
            }
            continue;
        }
        if item.starts_with("//") {
            continue;
        }
        if item.starts_with("#[") || attrs.matches('[').count() > attrs.matches(']').count() {
            attrs.push_str(item);
            continue;
        }
        if let (Some((_, rest)), true) = (item.split_once("struct "), item.ends_with('{')) {
            let name = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next();
            inside = Some(Struct {
                name: name.unwrap_or("").to_string(),
                attrs: attrs.clone(),
                fields: Vec::new(),
            });
        }
        attrs.clear();
    }
    out
}

/// The field names of every braced `struct` in `code`.
fn struct_fields(code: &str) -> Vec<String> {
    let fields = structs(code).into_iter().flat_map(|s| s.fields);
    fields.map(|(name, _)| name).collect()
}

#[test]
fn membership_has_one_owner() {
    // `component.rs` holds a formed component's members until adopted,
    // and `mod.rs`'s `GkaCtx` lends a handler its member's lists.
    let exempt = ["core/protocols/component.rs", "core/protocols/mod.rs"];
    let mut engine_fields = Vec::new();
    for (name, code) in sources("core") {
        if !name.starts_with("core/protocols/") || exempt.contains(&name.as_str()) {
            continue;
        }
        for field in struct_fields(&code) {
            assert!(
                !field.contains("members") && field != "pending_merge",
                "{name}: `{field}`: an engine reads the view from `GkaCtx::members`"
            );
            engine_fields.push(field);
        }
    }
    assert!(
        engine_fields.iter().any(|f| f == "partial_keys"),
        "`struct_fields` reads the engines' fields"
    );
    let readers: Vec<String> = sources("core")
        .into_iter()
        .filter(|(_, code)| code.contains(".keyed_members("))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        readers,
        ["core/protocols/gdh.rs"],
        "only GDH reads a change against the membership its member last keyed"
    );
}

#[test]
fn engines_read_no_view() {
    // A view's `joined` and `left` are its change from the previous
    // view, which after a superseded agreement no group keyed: an
    // engine reads the change from `GkaCtx` against the state it holds.
    for (name, text) in files("core") {
        if !name.starts_with("core/protocols/") {
            continue;
        }
        for needle in ["View", ".joined", ".left"] {
            assert!(
                !text.contains(needle),
                "{name}: names `{needle}`; an engine reads the view from `GkaCtx`"
            );
        }
    }
}

/// The tokens of `code`: identifiers and numbers, `==`, `!=` and
/// single punctuation. Comments are dropped; a string literal becomes
/// `"`, a char literal or lifetime `'`.
fn tokens(code: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        let len = if c.is_whitespace() {
            c.len_utf8()
        } else if let Some(line) = rest.strip_prefix("//") {
            line.find('\n').map_or(rest.len(), |n| n + 3)
        } else if rest.starts_with("/*") {
            rest.find("*/").map_or(rest.len(), |n| n + 2)
        } else if let Some(raw) = rest
            .strip_prefix('r')
            .filter(|r| r.trim_start_matches('#').starts_with('"'))
        {
            out.push("\"");
            let hashes = raw.len() - raw.trim_start_matches('#').len();
            let close = format!("\"{}", "#".repeat(hashes));
            let body = hashes + 2;
            rest[body..]
                .find(&close)
                .map_or(rest.len(), |n| body + n + close.len())
        } else if c == '"' {
            out.push("\"");
            let mut escaped = false;
            let close = rest[1..].find(|c| {
                let close = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                close
            });
            close.map_or(rest.len(), |n| n + 2)
        } else if c == '\'' {
            out.push("'");
            let mut chars = rest.char_indices().skip(1);
            match (chars.next(), chars.next()) {
                (Some((_, '\\')), _) => rest[3..].find('\'').map_or(rest.len(), |n| n + 4),
                (_, Some((n, '\''))) => n + 1,
                _ => 1 + rest[1..].find(|c: char| !word(c)).unwrap_or(rest.len() - 1),
            }
        } else if word(c) {
            let n = rest.find(|c: char| !word(c)).unwrap_or(rest.len());
            out.push(&rest[..n]);
            n
        } else {
            let two = rest.get(..2).filter(|t| ["==", "!="].contains(t));
            let t = two.unwrap_or(&rest[..c.len_utf8()]);
            out.push(t);
            t.len()
        };
        rest = &rest[len..];
    }
    out
}

/// Each `fn` of `toks` that has a body: its name and its body's tokens.
fn fn_bodies<'a, 't>(toks: &'t [&'a str]) -> Vec<(&'a str, &'t [&'a str])> {
    let mut out = Vec::new();
    for (i, pair) in toks.windows(2).enumerate() {
        if pair[0] != "fn" || !pair[1].starts_with(|c: char| c.is_alphabetic() || c == '_') {
            continue;
        }
        let mut depth = 0i32;
        let open = toks[i..].iter().position(|&t| {
            depth += i32::from(t == "(" || t == "[") - i32::from(t == ")" || t == "]");
            depth == 0 && (t == "{" || t == ";")
        });
        if let Some(open) = open.map(|n| i + n).filter(|&n| toks[n] == "{") {
            out.push((pair[1], &toks[open + 1..block_end(toks, open)]));
        }
    }
    out
}

/// The index of the `}` that closes the `{` at `open`.
fn block_end(toks: &[&str], open: usize) -> usize {
    let mut depth = 0i32;
    let close = toks[open..].iter().position(|&t| {
        depth += i32::from(t == "{") - i32::from(t == "}");
        depth == 0
    });
    close.map_or(toks.len(), |n| open + n)
}

/// Whether the `[` at `toks[i]` indexes the expression before it.
fn is_postfix_index(toks: &[&str], i: usize) -> bool {
    const NOT_AN_OPERAND: &[&str] = &[
        "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "move", "as", "dyn",
        "impl", "for", "where", "const", "static", "type", "while", "loop", "yield",
    ];
    let prev = i.checked_sub(1).map_or("", |p| toks[p]);
    toks[i] == "["
        && (["]", ")", "?"].contains(&prev)
            || prev.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                && !NOT_AN_OPERAND.contains(&prev))
}

#[test]
fn the_panic_free_drivers_index_nothing() {
    // L1-INDEX. Clippy's `indexing_slicing` misses an index through a
    // `&BTreeMap`, a `VecDeque` or a custom `Index`, which can panic as
    // well. `engine.rs` and `ring.rs` index the arenas they own.
    let l1_index = "core/session.rs core/member.rs core/envelope.rs \
        gcs/membership.rs gcs/recovery.rs gcs/loss.rs";
    let mut read = 0;
    for (name, code) in sources("core").into_iter().chain(sources("gcs")) {
        let toks = tokens(&code);
        let indexes = (0..toks.len()).any(|i| is_postfix_index(&toks, i));
        if name == "gcs/engine.rs" {
            assert!(indexes, "`is_postfix_index` sees the engine's arenas");
        } else if name.starts_with("core/protocols/")
            || l1_index.split_whitespace().any(|f| f == name)
        {
            assert!(!indexes, "{name}: an index can panic; use `.get()`");
            read += 1;
        }
    }
    assert!(read >= 15, "every L1-INDEX file is read");
}

/// Field names that hold secret material (L2); `bkey` and
/// `blinded_key` are derived from the per-node secrets.
const SECRET_NAMES: &str = "secret group_secret enc_key mac_key group_key private_key \
    secret_exponent priv_exp bkey blinded_key session_key leader_key";

#[test]
fn secrets_live_in_secret_and_are_never_printed() {
    // L2-RAW: a secret-named field is a `Secret<T>`, whose only
    // formatting is a redacting `Debug`. L2-DERIVE: a struct holding a
    // secret does not derive `Debug` or `Serialize`.
    let raw_exempt = [
        // Caches the public blinded key for resends.
        "core/protocols/tree_gka.rs: CacheEntry.bkey",
        // The public blinded key `g^key mod p`, broadcast in every
        // rekey message (paper §4.3).
        "core/tree.rs: Node.bkey",
    ];
    let raw: Vec<String> = ["crypto", "core", "telemetry"]
        .into_iter()
        .flat_map(sources)
        .flat_map(|(name, code)| raw_secret_fields(&name, &code))
        .collect();
    assert_eq!(raw, raw_exempt, "a secret-named field is a `Secret<T>`");
}

/// L2-RAW over file `name`'s `code`: each secret-named field not held
/// in a `Secret<T>`, as `name: Struct.field`. Fails on L2-DERIVE.
fn raw_secret_fields(name: &str, code: &str) -> Vec<String> {
    let secret_name = |field: &str| SECRET_NAMES.split_whitespace().any(|n| n == field);
    let mut raw = Vec::new();
    for s in structs(code) {
        let (bare, wrapped): (Vec<_>, Vec<_>) = s
            .fields
            .iter()
            .filter(|(f, ty)| secret_name(f) || ty.contains("Secret<"))
            .partition(|(_, ty)| !ty.contains("Secret<"));
        let words = s.attrs.split(|c: char| !c.is_alphanumeric());
        let derived = words.filter(|t| ["Debug", "Serialize"].contains(t));
        for t in derived.filter(|_| s.attrs.contains("derive(")) {
            assert!(
                bare.is_empty() && wrapped.is_empty(),
                "{name}: `{}` holds a secret but derives {t}",
                s.name
            );
        }
        raw.extend(bare.iter().map(|(f, _)| format!("{name}: {}.{f}", s.name)));
    }
    raw
}

#[test]
fn verification_compares_in_constant_time() {
    // L3-EQ: a `verify*`, `confirm*` or `*_verify` body compares with
    // `ct_eq`; `==` and `!=` are for lengths, which are public. L3-CT:
    // a `ct_*` body runs every step: no early exit, no data-dependent
    // index and no comparison inside a loop.
    let mut seen = Vec::new();
    for (name, code) in ["bignum", "crypto"].into_iter().flat_map(sources) {
        let toks = tokens(&code);
        for (f, body) in fn_bodies(&toks) {
            let compares = |i: usize| body[i] == "==" || body[i] == "!=";
            if f.starts_with("verify") || f.starts_with("confirm") || f.ends_with("_verify") {
                seen.push(f.to_string());
                for i in (0..body.len()).filter(|&i| compares(i)) {
                    let near = &body[i.saturating_sub(4)..(i + 5).min(body.len())];
                    assert!(
                        near.contains(&"len") || near.contains(&"is_empty"),
                        "{name}: `{}` in `{f}`; use `ct_eq`",
                        body[i]
                    );
                }
            }
            if f.starts_with("ct_") {
                seen.push(f.to_string());
                let loops: Vec<_> = (0..body.len())
                    .filter(|&i| ["for", "while", "loop"].contains(&body[i]))
                    .filter_map(|i| body[i..].iter().position(|&t| t == "{").map(|n| i + n))
                    .map(|open| open..block_end(body, open))
                    .collect();
                for (i, t) in body.iter().enumerate() {
                    let exits = ["return", "break", "continue", "?"].contains(t);
                    let in_loop = compares(i) && loops.iter().any(|l| l.contains(&i));
                    assert!(
                        !exits && !in_loop && !is_postfix_index(body, i),
                        "{name}: `{t}` in constant-time `{f}`"
                    );
                }
            }
        }
    }
    for f in ["ct_eq", "ct_eq_visited", "verify"] {
        assert!(seen.iter().any(|s| s == f), "`fn_bodies` reads `{f}`");
    }
}
