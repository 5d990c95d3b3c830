//! Versioned run manifests: the JSON record every `repro` command
//! writes next to its CSVs (`results/RUN_<cmd>_<tag>.json`).
//!
//! A manifest splits into two parts with different determinism
//! contracts:
//!
//! * The **deterministic body** — config, op counts, gauges, histogram
//!   summaries and total virtual time — is a pure function of the
//!   workload parameters. [`Manifest::deterministic_json`] renders
//!   exactly this part, and the scale determinism test asserts the
//!   bytes are identical across `--jobs` values.
//! * The **environment** object — git revision, wall-clock seconds,
//!   peak RSS, worker threads — describes the machine and build that
//!   produced the run. `bench-diff` treats it as informational only.
//!
//! The workspace vendors no JSON serializer, so both the writer and
//! the reader live here: a fixed-precision renderer (so equal runs
//! render equal bytes) and a small recursive-descent parser that is
//! total over arbitrary input — malformed manifests come back as
//! `Err`, never a panic (the crate denies clippy's panic lints, and
//! this module its nondeterminism lints).

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gkap_telemetry::metrics::{HistogramSummary, MetricsHub};

/// Manifest schema version; bump when the JSON shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The non-deterministic part of a manifest: what machine/build
/// produced the run and how long it really took.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Environment {
    /// Git revision of the working tree (`unknown` outside a checkout).
    pub git_rev: String,
    /// Worker threads the run used (`--jobs`).
    pub jobs: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Peak resident set size in kB (0 where `/proc` is unavailable).
    pub peak_rss_kb: u64,
    /// Ring shards the run's sharded phase used (`scale`'s `--jobs`; 0 for
    /// commands without one). Environment-only by design: the
    /// deterministic body must stay bit-identical across shard counts.
    pub shards: u64,
    /// Per-shard worker compute, wall-clock seconds. Like the global
    /// busy counter this is wall time, so it overstates compute when
    /// the host is oversubscribed.
    pub shard_busy_s: Vec<f64>,
    /// Per-shard wait at the merge barrier: the slowest shard's busy
    /// time minus this shard's own — how long its worker would idle
    /// before the fold if nothing else were queued.
    pub shard_barrier_wait_s: Vec<f64>,
}

/// One run's metrics record. Field order here is the JSON key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// Schema version ([`SCHEMA_VERSION`] for manifests written here).
    pub schema_version: u64,
    /// The `repro` command that produced the run (`scale`, `chaos`, …).
    pub cmd: String,
    /// Distinguishing tag: the key workload parameters (`g64_s7`).
    pub tag: String,
    /// Full workload configuration, stringified (deterministic).
    pub config: BTreeMap<String, String>,
    /// Deterministic operation counts keyed by metric path.
    pub counts: BTreeMap<String, u64>,
    /// Peak/level gauges keyed by metric path (virtual-time class).
    pub gauges: BTreeMap<String, f64>,
    /// Latency histogram summaries keyed by metric path.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Total virtual milliseconds simulated across the run.
    pub virtual_ms: f64,
    /// Machine/build description (informational, not compared).
    pub environment: Environment,
}

impl Manifest {
    /// An empty manifest for a command + tag.
    pub fn new(cmd: &str, tag: &str) -> Self {
        Manifest {
            schema_version: SCHEMA_VERSION,
            cmd: cmd.to_string(),
            tag: tag.to_string(),
            ..Manifest::default()
        }
    }

    /// The canonical file name: `RUN_<cmd>_<tag>.json`.
    pub fn file_name(&self) -> String {
        format!("RUN_{}_{}.json", self.cmd, self.tag)
    }

    /// Records one configuration parameter (stringified by the caller
    /// with fixed precision, so equal configs render equal bytes).
    pub fn set_config(&mut self, key: &str, value: impl ToString) {
        self.config.insert(key.to_string(), value.to_string());
    }

    /// Adds to a deterministic count.
    pub fn add_count(&mut self, path: &str, by: u64) {
        *self.counts.entry(path.to_string()).or_insert(0) += by;
    }

    /// Raises a gauge to `v` if larger (merged peak).
    pub fn gauge_max(&mut self, path: &str, v: f64) {
        let g = self.gauges.entry(path.to_string()).or_insert(f64::MIN);
        if v > *g {
            *g = v;
        }
    }

    /// Stores a histogram summary under a path (last write wins).
    pub fn put_histogram(&mut self, path: &str, summary: HistogramSummary) {
        self.histograms.insert(path.to_string(), summary);
    }

    /// Folds a [`MetricsHub`] into the manifest: counters add into
    /// `counts`, gauges take the max, histograms are summarized (last
    /// write wins per path — merge hubs *before* absorbing when paths
    /// can collide).
    pub fn absorb_hub(&mut self, hub: &MetricsHub) {
        for (key, v) in hub.counters() {
            self.add_count(&key.path(), v);
        }
        for (key, v) in hub.gauges() {
            self.gauge_max(&key.path(), v);
        }
        for (key, h) in hub.histograms() {
            self.put_histogram(&key.path(), h.summary());
        }
    }

    /// Merges another manifest's deterministic body into this one:
    /// config entries insert (`other` wins), counts add, gauges take
    /// the max, histogram summaries last-write, virtual time adds.
    /// `cmd`/`tag`/environment are untouched.
    pub fn absorb(&mut self, other: &Manifest) {
        for (k, v) in &other.config {
            self.config.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.counts {
            self.add_count(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.insert(k.clone(), *v);
        }
        self.virtual_ms += other.virtual_ms;
    }

    /// Fills the environment block: git revision and peak RSS are
    /// probed from the machine, `jobs`/`wall_s` come from the caller.
    pub fn fill_environment(&mut self, jobs: usize, wall_s: f64) {
        self.environment = Environment {
            git_rev: current_git_rev(),
            jobs: jobs as u64,
            wall_s,
            peak_rss_kb: peak_rss_kb(),
            ..std::mem::take(&mut self.environment)
        };
    }

    /// Records the sharded phase's execution attribution: shard count,
    /// per-shard busy wall seconds, and each shard's wait at the merge
    /// barrier (the slowest shard's busy time minus its own). All of
    /// it lands in the environment block only — shard count is an
    /// execution knob and must never reach the deterministic body.
    pub fn set_shard_timing(&mut self, shards: usize, busy_ns: &[u64]) {
        let max = busy_ns.iter().copied().max().unwrap_or(0);
        self.environment.shards = shards as u64;
        self.environment.shard_busy_s = busy_ns.iter().map(|&n| n as f64 / 1e9).collect();
        self.environment.shard_barrier_wait_s =
            busy_ns.iter().map(|&n| (max - n) as f64 / 1e9).collect();
    }

    /// Renders only the deterministic body — the part that must be
    /// bit-identical across `--jobs` values and repeated same-seed
    /// runs.
    pub fn deterministic_json(&self) -> String {
        self.render(false)
    }

    /// Renders the full manifest (body + environment).
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    fn render(&self, full: bool) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"cmd\": {},", json_string(&self.cmd));
        let _ = writeln!(s, "  \"tag\": {},", json_string(&self.tag));
        render_map(&mut s, "config", &self.config, |s, v| {
            s.push_str(&json_string(v))
        });
        render_map(&mut s, "counts", &self.counts, |s, v| {
            let _ = write!(s, "{v}");
        });
        render_map(&mut s, "gauges", &self.gauges, |s, v| {
            s.push_str(&json_f64(*v))
        });
        render_map(&mut s, "histograms", &self.histograms, |s, h| {
            let _ = write!(
                s,
                "{{\"count\": {}, \"min\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                h.count,
                json_f64(h.min),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99),
                json_f64(h.max)
            );
        });
        let _ = write!(s, "  \"virtual_ms\": {}", json_f64(self.virtual_ms));
        if full {
            s.push_str(",\n");
            let e = &self.environment;
            let _ = writeln!(s, "  \"environment\": {{");
            let _ = writeln!(s, "    \"git_rev\": {},", json_string(&e.git_rev));
            let _ = writeln!(s, "    \"jobs\": {},", e.jobs);
            let _ = writeln!(s, "    \"wall_s\": {},", json_f64(e.wall_s));
            let _ = write!(s, "    \"peak_rss_kb\": {}", e.peak_rss_kb);
            if e.shards > 0 {
                let _ = write!(s, ",\n    \"shards\": {}", e.shards);
                let _ = write!(
                    s,
                    ",\n    \"shard_busy_s\": {}",
                    json_f64_array(&e.shard_busy_s)
                );
                let _ = write!(
                    s,
                    ",\n    \"shard_barrier_wait_s\": {}",
                    json_f64_array(&e.shard_barrier_wait_s)
                );
            }
            s.push('\n');
            let _ = write!(s, "  }}");
        }
        s.push('\n');
        s.push_str("}\n");
        s
    }

    /// Writes the full manifest under `dir` as
    /// [`Manifest::file_name`], returning the path written.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, String> {
        crate::write_output(dir, &self.file_name(), &self.to_json())
    }

    /// Parses a manifest back from its JSON rendering (or any JSON
    /// with the same shape). Unknown keys are ignored; missing
    /// optional sections default to empty.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj().ok_or("manifest root is not an object")?;
        let mut m = Manifest {
            schema_version: json::get(obj, "schema_version")
                .and_then(json::Value::as_u64)
                .ok_or("manifest is missing \"schema_version\"")?,
            cmd: json::get(obj, "cmd")
                .and_then(json::Value::as_str)
                .ok_or("manifest is missing \"cmd\"")?
                .to_string(),
            tag: json::get(obj, "tag")
                .and_then(json::Value::as_str)
                .unwrap_or_default()
                .to_string(),
            virtual_ms: json::get(obj, "virtual_ms")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0),
            ..Manifest::default()
        };
        if let Some(config) = json::get(obj, "config").and_then(json::Value::as_obj) {
            for (k, v) in config {
                if let Some(s) = v.as_str() {
                    m.config.insert(k.clone(), s.to_string());
                }
            }
        }
        if let Some(counts) = json::get(obj, "counts").and_then(json::Value::as_obj) {
            for (k, v) in counts {
                if let Some(n) = v.as_u64() {
                    m.counts.insert(k.clone(), n);
                }
            }
        }
        if let Some(gauges) = json::get(obj, "gauges").and_then(json::Value::as_obj) {
            for (k, v) in gauges {
                if let Some(n) = v.as_f64() {
                    m.gauges.insert(k.clone(), n);
                }
            }
        }
        if let Some(hists) = json::get(obj, "histograms").and_then(json::Value::as_obj) {
            for (k, v) in hists {
                let Some(h) = v.as_obj() else { continue };
                let f = |name| {
                    json::get(h, name)
                        .and_then(json::Value::as_f64)
                        .unwrap_or(0.0)
                };
                m.histograms.insert(
                    k.clone(),
                    HistogramSummary {
                        count: json::get(h, "count")
                            .and_then(json::Value::as_u64)
                            .unwrap_or(0),
                        min: f("min"),
                        p50: f("p50"),
                        p95: f("p95"),
                        p99: f("p99"),
                        max: f("max"),
                    },
                );
            }
        }
        if let Some(env) = json::get(obj, "environment").and_then(json::Value::as_obj) {
            m.environment = Environment {
                git_rev: json::get(env, "git_rev")
                    .and_then(json::Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                jobs: json::get(env, "jobs")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(0),
                wall_s: json::get(env, "wall_s")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
                peak_rss_kb: json::get(env, "peak_rss_kb")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(0),
                shards: json::get(env, "shards")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(0),
                shard_busy_s: json::get(env, "shard_busy_s")
                    .map(f64_array)
                    .unwrap_or_default(),
                shard_barrier_wait_s: json::get(env, "shard_barrier_wait_s")
                    .map(f64_array)
                    .unwrap_or_default(),
            };
        }
        Ok(m)
    }

    /// Reads and parses a manifest file, naming the path in errors.
    pub fn read_from(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn render_map<V>(
    s: &mut String,
    name: &str,
    map: &BTreeMap<String, V>,
    mut render_value: impl FnMut(&mut String, &V),
) {
    let _ = write!(s, "  {}: {{", json_string(name));
    for (i, (k, v)) in map.iter().enumerate() {
        let comma = if i + 1 < map.len() { "," } else { "" };
        let _ = write!(s, "\n    {}: ", json_string(k));
        render_value(s, v);
        s.push_str(comma);
    }
    if map.is_empty() {
        s.push_str("},\n");
    } else {
        s.push_str("\n  },\n");
    }
}

/// Fixed-precision float rendering: six decimals, so equal values
/// render equal bytes and the files stay human-readable. Non-finite
/// values (never produced by the metrics layer, but stay total)
/// render as 0.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

/// Fixed-precision float array rendering, matching [`json_f64`].
fn json_f64_array(vs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_f64(*v));
    }
    out.push(']');
    out
}

/// Reads a JSON array of numbers; anything else yields an empty list
/// and non-numeric elements are skipped (total over arbitrary input).
fn f64_array(v: &json::Value) -> Vec<f64> {
    match v.as_arr() {
        Some(items) => items.iter().filter_map(json::Value::as_f64).collect(),
        None => Vec::new(),
    }
}

/// JSON string literal with the required escapes. Metric paths are
/// ASCII identifiers, but config values may hold anything.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Git revision of the checkout containing the working directory,
/// read straight from `.git` (no subprocess): follows `HEAD` through
/// a symbolic ref, loose ref file, or `packed-refs`. Returns
/// `"unknown"` when anything is missing — running outside a checkout
/// is not an error.
fn current_git_rev() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    for dir in cwd.ancestors() {
        let git = dir.join(".git");
        let git_dir = if git.is_dir() {
            git
        } else if git.is_file() {
            // Worktree: `.git` is a file containing `gitdir: <path>`.
            match std::fs::read_to_string(&git) {
                Ok(text) => match text.trim().strip_prefix("gitdir:") {
                    Some(p) => dir.join(p.trim()),
                    None => continue,
                },
                Err(_) => continue,
            }
        } else {
            continue;
        };
        let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
            continue;
        };
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref:").map(str::trim) else {
            // Detached HEAD: the file holds the revision itself.
            return head.to_string();
        };
        if let Ok(rev) = std::fs::read_to_string(git_dir.join(refname)) {
            return rev.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(git_dir.join("packed-refs")) {
            for line in packed.lines() {
                if let Some(rev) = line.strip_suffix(refname) {
                    return rev.trim().to_string();
                }
            }
        }
        return "unknown".to_string();
    }
    "unknown".to_string()
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
/// Returns 0 where the file or the line is unavailable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(char::is_ascii_digit).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// A minimal total JSON reader: just enough to load manifests back
/// for `bench-diff`. Rejects malformed input with a message; never
/// panics, never recurses past a fixed depth.
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (always held as `f64`; manifest integers are
        /// far below 2^53, where `f64` is exact).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The value as a float, if numeric.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if numeric and whole.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an object's entry list.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(entries) => Some(entries),
                _ => None,
            }
        }

        /// The value as an array's element list.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// First entry with the given key (objects are small; linear scan).
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Nesting bound: manifests are depth 3; anything deeper than
    /// this is rejected rather than recursed into.
    const MAX_DEPTH: u32 = 32;

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
            }
        }

        fn eat_keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self, depth: u32) -> Result<Value, String> {
            if depth > MAX_DEPTH {
                return Err("nesting too deep".to_string());
            }
            self.skip_ws();
            match self.peek() {
                Some(b'n') => self.eat_keyword("null", Value::Null),
                Some(b't') => self.eat_keyword("true", Value::Bool(true)),
                Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(depth),
                Some(b'{') => self.object(depth),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(b) => Err(format!(
                    "unexpected byte '{}' at {}",
                    char::from(b),
                    self.pos
                )),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn array(&mut self, depth: u32) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self, depth: u32) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                entries.push((key, self.value(depth + 1)?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    self.pos += 1;
                }
                // The slice between escapes is valid UTF-8 because the
                // input is a &str and we only stop on ASCII bytes.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or(""));
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| {
                                        format!("bad \\u escape at byte {}", self.pos)
                                    })?;
                                // Surrogate pairs are not reassembled —
                                // manifests never emit them; lone
                                // surrogates decode to the replacement
                                // character.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    _ => return Err("unterminated string".to_string()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("invalid number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_telemetry::metrics::{Key, Layer};

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::new("scale", "g8_s7");
        m.set_config("groups", 8);
        m.set_config("seed", 7);
        m.set_config("churn", format!("{:.4}", 0.1));
        let mut hub = MetricsHub::new();
        let k = Key::new(Layer::Crypto, "modexp").protocol("GDH");
        hub.inc(k, 42);
        hub.observe(Key::new(Layer::Harness, "rekey_ms").protocol("GDH"), 3.5);
        hub.gauge_max(
            Key::new(Layer::Harness, "virtual_ms").protocol("GDH"),
            250.0,
        );
        m.absorb_hub(&hub);
        m.virtual_ms = 250.0;
        m
    }

    #[test]
    fn roundtrips_through_json() {
        let mut m = sample_manifest();
        m.environment = Environment {
            git_rev: "abc123".into(),
            jobs: 4,
            wall_s: 1.25,
            peak_rss_kb: 20_480,
            ..Environment::default()
        };
        m.set_shard_timing(2, &[1_500_000_000, 2_000_000_000]);
        let text = m.to_json();
        let back = Manifest::parse(&text).expect("parses");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.cmd, "scale");
        assert_eq!(back.tag, "g8_s7");
        assert_eq!(back.config.get("groups").map(String::as_str), Some("8"));
        assert_eq!(back.counts.get("crypto/GDH/modexp"), Some(&42));
        let h = back.histograms.get("harness/GDH/rekey_ms").expect("hist");
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 3.5);
        assert_eq!(h.max, 3.5);
        assert_eq!(back.environment.git_rev, "abc123");
        assert_eq!(back.environment.jobs, 4);
        assert_eq!(back.environment.peak_rss_kb, 20_480);
        assert_eq!(back.environment.shards, 2);
        assert_eq!(back.environment.shard_busy_s, vec![1.5, 2.0]);
        assert_eq!(back.environment.shard_barrier_wait_s, vec![0.5, 0.0]);
        assert_eq!(back.virtual_ms, 250.0);
    }

    #[test]
    fn deterministic_body_excludes_environment() {
        let mut a = sample_manifest();
        let mut b = sample_manifest();
        a.fill_environment(1, 0.5);
        b.fill_environment(4, 9.5);
        assert_ne!(a.environment, b.environment);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_ne!(a.to_json(), b.to_json());
        // The deterministic body is itself a valid, parseable manifest.
        let body = Manifest::parse(&a.deterministic_json()).expect("body parses");
        assert_eq!(body.counts, a.counts);
        assert_eq!(body.environment, Environment::default());
    }

    #[test]
    fn parser_rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "{\"a\": --3}",
            "{\"\\u12\": 1}",
            &("[".repeat(100) + &"]".repeat(100)),
        ] {
            assert!(Manifest::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Missing required keys is an error, not a default.
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("{\"schema_version\": 1}").is_err());
    }

    #[test]
    fn json_strings_escape_and_roundtrip() {
        let tricky = "quote\" slash\\ tab\t newline\n bell\u{7} ünïcode";
        let mut m = Manifest::new("t", "x");
        m.set_config("v", tricky);
        let back = Manifest::parse(&m.to_json()).expect("parses");
        assert_eq!(back.config.get("v").map(String::as_str), Some(tricky));
    }

    #[test]
    fn environment_probes_are_total() {
        // In this repo the rev is a 40-hex commit; anywhere else the
        // probe must still return *something* without erroring.
        let rev = current_git_rev();
        assert!(!rev.is_empty());
        let _ = peak_rss_kb(); // must not panic regardless of platform
    }

    #[test]
    fn file_name_is_canonical() {
        assert_eq!(
            Manifest::new("scale", "g64_s7").file_name(),
            "RUN_scale_g64_s7.json"
        );
    }
}
