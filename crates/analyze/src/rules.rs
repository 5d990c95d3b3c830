//! The six rule families.
//!
//! | id        | family                  | what it flags                                     |
//! |-----------|-------------------------|---------------------------------------------------|
//! | L1-PANIC  | panic-freedom           | `.unwrap()` / `.expect()` / `panic!`-class macros |
//! | L1-INDEX  | panic-freedom           | postfix slice / array indexing                    |
//! | L2-DERIVE | secret hygiene          | secret-bearing structs deriving Debug/Serialize   |
//! | L2-RAW    | secret hygiene          | secret-named fields stored outside `Secret<T>`    |
//! | L2-FLOW   | secret hygiene          | secret values flowing into format/serialize sinks |
//! | L3-EQ     | constant-time           | `==` / `!=` in verification / confirmation paths  |
//! | L3-CT     | constant-time           | early exit / data indexing inside `ct_*` fns      |
//! | L4-HASH   | sim determinism         | `HashMap` / `HashSet` in event-ordering paths     |
//! | L4-TIME   | sim determinism         | wall-clock time (`Instant`, `SystemTime`, …)      |
//! | L4-RNG    | sim determinism         | ambient RNG (`thread_rng`, `OsRng`, …)            |
//! | L5-ARITH  | arithmetic soundness    | unchecked ops / truncating casts (see `arith`)    |
//! | L6-PAR    | parallel determinism    | `static mut`, `Relaxed`, unbracketed accumulators |
//!
//! All token-level checks skip `#[cfg(test)]` regions; findings are
//! deduplicated per `(rule, file, line)` so one offending line yields
//! one diagnostic.
//!
//! L2-FLOW is the field-sensitive interprocedural taint fixpoint of
//! the `taint` module.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::parse::ParsedFile;
use crate::Finding;

/// Field / binding names treated as secret material for L2.
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

/// Runs every rule family over the parsed files: per-file local
/// checks, the flow engine, dedup, function attribution and the
/// allowlist.
pub fn check_all(files: &[(String, ParsedFile)], cfg: &Config, graph: &CallGraph) -> Vec<Finding> {
    let mut raw = Vec::new();
    for (path, pf) in files {
        check_file_local(path, pf, cfg, &mut raw);
    }
    crate::taint::check(files, graph, cfg, &mut raw);

    // Dedup per (rule, file, line), sort, attribute, drop allowlisted.
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    raw.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    for f in raw {
        if seen.insert((f.rule.clone(), f.file.clone(), f.line)) {
            out.push(f);
        }
    }
    fill_funcs(files, &mut out);
    out.retain(|f| !cfg.allowed_finding(&f.rule, &f.file, &f.func));
    out
}

/// Every per-file check: L1–L6 minus the interprocedural
/// flow pass.
pub fn check_file_local(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    check_l1(path, pf, cfg, out);
    check_l2_structs(path, pf, cfg, out);
    check_l3(path, pf, cfg, out);
    check_l4(path, pf, cfg, out);
    crate::arith::check_l5(path, pf, cfg, out);
    check_l6(path, pf, cfg, out);
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
pub(crate) fn finding_at(
    rule: &str,
    file: &str,
    t: &Token,
    func: &str,
    msg: impl Into<String>,
) -> Finding {
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
pub(crate) fn field_is_secret(name: &str, ty: &str) -> bool {
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

// ---------------------------------------------------------------- L6

/// Accumulator types whose `take`/`snapshot` reads must be bracketed:
/// the qualifier before `::take(` / `::snapshot(`.
fn is_accumulator_qualifier(name: &str) -> bool {
    name == "stats" || name.ends_with("Ops")
}

/// L6-PAR: parallel-determinism hazards in the `--jobs` execution
/// paths. Four sub-checks (see DESIGN.md §16):
///
/// * `static mut` — racy by construction under `--jobs`.
/// * `Ordering::Relaxed` on a cross-thread counter — permits
///   reordering against the work it counts; every use needs either an
///   upgrade or a monotonic-counter proof in the allowlist.
/// * thread-local accumulator reads (`stats::take()` /
///   `KernelOps::snapshot()`) in a function that never brackets them
///   with `since`/`merge` — worker-thread counts are silently dropped
///   (the PR 6 bug class).
/// * arrival-order result folds: `HashMap`/`HashSet` iteration, or
///   `push`/`send` into shared state from inside a `run_indexed`
///   closure instead of writing the indexed output slot.
fn check_l6(path: &str, pf: &ParsedFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.in_scope("L6-PAR", path) {
        return;
    }
    let toks = &pf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if pf.in_test_region(i) || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "static" if toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) => {
                out.push(tok_finding(
                    "L6-PAR",
                    path,
                    t,
                    "`static mut` accumulator is racy under `--jobs` — use an atomic or per-shard state",
                ));
            }
            "Relaxed" => {
                out.push(tok_finding(
                    "L6-PAR",
                    path,
                    t,
                    "`Ordering::Relaxed` on a cross-thread counter permits reordering — use AcqRel/SeqCst or carry a monotonic-counter proof in the allowlist",
                ));
            }
            "HashMap" | "HashSet" => {
                out.push(tok_finding(
                    "L6-PAR",
                    path,
                    t,
                    format!(
                        "folding over `{}` iteration order is nondeterministic across `--jobs` — use BTreeMap/BTreeSet or sort first",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
    for f in &pf.fns {
        if f.is_test {
            continue;
        }
        let body = &toks[f.body.start.min(toks.len())..f.body.end.min(toks.len())];
        let bracketed = body
            .iter()
            .any(|t| t.is_ident("since") || t.is_ident("merge"));
        for i in f.body.clone() {
            if pf.in_test_region(i) {
                continue;
            }
            let t = &toks[i];
            // `stats::take()` / `KernelOps::snapshot()` outside a
            // since/merge bracket.
            if t.kind == TokKind::Ident
                && (t.text == "take" || t.text == "snapshot")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].kind == TokKind::Ident
                && is_accumulator_qualifier(&toks[i - 2].text)
                && !bracketed
            {
                out.push(finding_at(
                    "L6-PAR",
                    path,
                    t,
                    &f.name,
                    format!(
                        "`{}::{}()` read outside a since/merge bracket — worker-thread counts are lost (`{}` never folds them back)",
                        toks[i - 2].text, t.text, f.name
                    ),
                ));
            }
            // `run_indexed(..)` whose closure pushes/sends into shared
            // state: results combine by arrival, not by index.
            if t.is_ident("run_indexed") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                let mut depth = 0usize;
                let mut j = i + 1;
                while j < f.body.end {
                    if toks[j].is_punct("(") {
                        depth += 1;
                    } else if toks[j].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(bad) = toks[i + 2..j.min(toks.len())]
                    .iter()
                    .find(|t| t.is_ident("push") || t.is_ident("send"))
                {
                    out.push(finding_at(
                        "L6-PAR",
                        path,
                        bad,
                        &f.name,
                        format!(
                            "`{}` inside a `run_indexed` closure combines results by arrival order — write the indexed output slot instead",
                            bad.text
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parse::parse;

    fn run(src: &str, scope: &str) -> Vec<Finding> {
        let cfg = Config::parse_conf(scope).unwrap();
        let files = vec![("src/x.rs".to_string(), parse(src))];
        let graph = CallGraph::build(&files);
        check_all(&files, &cfg, &graph)
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
    fn l2_flow_direct_and_param() {
        let f = run(
            "fn leak(mac_key: &Secret<[u8; 32]>) { println!(\"{:?}\", mac_key); }",
            "scope L2 src/**",
        );
        assert!(f.iter().any(|f| f.rule == "L2-FLOW"));
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
    fn l6_static_mut_relaxed_and_hash_folds() {
        let f = run(
            "static mut TOTAL: u64 = 0;\nfn bump(n: u64) { let o = OPS.load(Ordering::Relaxed);\n    let m: HashMap<u32, u32> = HashMap::new(); }",
            "scope L6 src/**",
        );
        assert!(f.iter().any(|x| x.msg.contains("static mut")), "{f:?}");
        assert!(f.iter().any(|x| x.msg.contains("Relaxed")), "{f:?}");
        assert!(f.iter().any(|x| x.msg.contains("iteration order")), "{f:?}");
    }

    #[test]
    fn l6_unbracketed_take_flags_bracketed_passes() {
        let bad = run(
            "fn report() -> u64 { let ops = stats::take(); ops.muls }",
            "scope L6 src/**",
        );
        assert!(
            bad.iter().any(|x| x.msg.contains("since/merge bracket")),
            "{bad:?}"
        );
        let good = run(
            "fn run_group() -> u64 { let before = stats::snapshot(); work(); let d = before.since(); total.merge(&d); total.muls }",
            "scope L6 src/**",
        );
        assert!(good.is_empty(), "{good:?}");
        // `mem::take` / iterator `take` are not accumulator reads.
        let unrelated = run(
            "fn swap(v: &mut Vec<u8>) -> Vec<u8> { let w = std::mem::take(v); w.iter().take(3); w }",
            "scope L6 src/**",
        );
        assert!(unrelated.is_empty(), "{unrelated:?}");
    }

    #[test]
    fn l6_run_indexed_arrival_order_fold() {
        let bad = run(
            "fn collect_bad(pool: &Pool) { let out = Mutex::new(Vec::new()); pool.run_indexed(8, |i| { out.lock().push(i) }); }",
            "scope L6 src/**",
        );
        assert!(
            bad.iter().any(|x| x.msg.contains("arrival order")),
            "{bad:?}"
        );
        let good = run(
            "fn collect_good(pool: &Pool) { let out = vec![0; 8]; pool.run_indexed(8, |i, slot| { *slot = i; }); }",
            "scope L6 src/**",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn allowlist_suppresses() {
        let mut cfg = Config::parse_conf("scope L1 src/**").unwrap();
        cfg.parse_allowlist("L1-PANIC src/x.rs # audited\n")
            .unwrap();
        let files = vec![(
            "src/x.rs".to_string(),
            parse("fn f(v: Option<u8>) { v.unwrap(); }"),
        )];
        let graph = CallGraph::build(&files);
        assert!(check_all(&files, &cfg, &graph).is_empty());
    }
}
