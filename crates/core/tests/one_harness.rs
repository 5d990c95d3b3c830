//! Keeps parallel copies of one mechanism from growing back,
//! lexically: outside `member.rs` a `SecureMember` is constructed at
//! three sites, one function puts members into a world, a member's
//! secret is read in the two functions that decide agreement, a
//! protocol message is signed, verified and counted only in
//! `protocols/mod.rs` (`GkaCtx::send` and `GkaCtx::receive`), no
//! engine keeps or reports a key and only a protocol handler
//! establishes one, only `SecureMember` builds a `GkaCtx`, no
//! transport stands between a protocol and its member's `ClientCtx`,
//! and no engine keeps a member list: `SecureMember` owns membership,
//! only GDH reads the membership its member last keyed, and no engine
//! reads a view. `#[cfg(test)]` items (always the tail of a file here)
//! are not looked at, except by the checks that read `files`.

use std::fs;
use std::path::Path;

/// `(crate/relative path, non-test source)` of every file under
/// `crates/<krate>/src`, subdirectories included.
fn sources(krate: &str) -> Vec<(String, String)> {
    files(krate)
        .into_iter()
        .map(|(name, text)| {
            let code = text.split("#[cfg(test)]").next().unwrap_or("").to_string();
            (name, code)
        })
        .collect()
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
fn secrets_are_compared_in_two_functions() {
    let watched = |name: &str| {
        name.starts_with("bench/")
            || ["core/experiment.rs", "core/scenario.rs", "core/scale.rs"].contains(&name)
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
        [
            "core/experiment.rs::agreed_secret",
            "bench/chaos.rs::survivor_agreement",
        ],
        "decide agreement with `agreed_secret` (or, under faults, `survivor_agreement`)"
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

/// The field names of every braced `struct` in `code`.
fn struct_fields(code: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut inside = false;
    for line in code.lines() {
        let item = line.trim();
        if !inside {
            inside = !item.starts_with("//") && item.contains("struct ") && item.ends_with('{');
            continue;
        }
        if line.starts_with('}') {
            inside = false;
            continue;
        }
        let item = ["pub(crate) ", "pub(super) ", "pub "]
            .iter()
            .fold(item, |item, vis| item.trim_start_matches(vis));
        if let Some((name, _)) = item.split_once(':') {
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                fields.push(name.to_string());
            }
        }
    }
    fields
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
