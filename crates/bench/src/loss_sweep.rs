//! The `repro chaos --loss-sweep` campaign: loss rates × {FEC,
//! retransmission-only} × protocols on the LAN and WAN testbeds, plus
//! the `--burst` variant over Gilbert–Elliott burst-correlated loss.
//!
//! Each cell runs one secure group end to end — initial key
//! agreement, a join, a leave — under a seeded per-copy loss process,
//! then checks the chaos invariants (quiescence, view synchrony, key
//! convergence among survivors). The `fec` mode arms the engine's
//! parity fan-out with a per-rate parity budget and a backoff long
//! enough that local repair always wins the race against the request
//! path; the `retrans` mode is the pre-FEC engine (parity 0, eager
//! requests). Cells fan out over worker threads via
//! [`gkap_core::par::run_indexed`] and every cell is a self-contained
//! serial simulation, so the CSV and the manifest body are
//! bit-identical for any `--jobs`.
//!
//! The burst grid swaps the Bernoulli rate axis for two burst axes —
//! mean burst length in token rotations × bad-state loss rate — with
//! a 3:1 good:bad dwell ratio (so a cell's long-run average loss is
//! one quarter of its bad-state rate, but concentrated; the duty
//! cycle is short enough that even the WAN's multi-second runs see
//! several bursts). Both modes
//! charge the wire at byte granularity, so the parity-byte overhead
//! the FEC column pays is an honest bandwidth figure next to the
//! request rounds the baseline pays.

use std::fmt::Write as _;

use gkap_core::experiment::secure_world;
use gkap_core::par;
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::{testbed, GcsConfig, GilbertElliott, WireGranularity};
use gkap_sim::Duration;
use gkap_telemetry::metrics::LogHistogram;

use crate::chaos;
use crate::manifest::Manifest;

/// The swept loss rates, in percent.
pub const LOSS_PCTS: [u32; 4] = [1, 5, 10, 20];

/// The swept mean burst lengths, in token rotations.
pub const BURST_ROTS: [u32; 2] = [1, 4];

/// The swept bad-state loss rates, in percent.
pub const BURST_BAD_PCTS: [u32; 2] = [40, 80];

/// Recovery mode of a sweep cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Pre-FEC engine: parity 0, eager gap requests.
    Retrans,
    /// FEC-coded fan-out: per-rate parity budget, patient backoff.
    Fec,
}

impl SweepMode {
    /// The CSV spelling of the mode.
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Retrans => "retrans",
            SweepMode::Fec => "fec",
        }
    }
}

/// Parameters of one `repro chaos --loss-sweep` invocation.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Campaign seed (drives every cell's loss process).
    pub seed: u64,
    /// Worker threads for the cell fan-out.
    pub jobs: usize,
    /// Restrict to one protocol (all five when `None`).
    pub protocol: Option<ProtocolKind>,
}

/// One sweep cell's identity and outcome — one CSV row.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Testbed name (`lan` or `wan`).
    pub net: &'static str,
    /// Loss rate in percent.
    pub loss_pct: u32,
    /// Recovery mode.
    pub mode: SweepMode,
    /// Protocol name.
    pub protocol: &'static str,
    /// Daemon-to-daemon copies lost in transit.
    pub lost: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Token visits that issued at least one retransmission request.
    pub retrans_rounds: u64,
    /// Data messages reconstructed locally from parity.
    pub fec_repairs: u64,
    /// Parity shard copies dispatched.
    pub parity_sent: u64,
    /// Parity payload bytes dispatched (the FEC bandwidth overhead).
    pub parity_bytes: u64,
    /// Virtual ns of loss-recovery windows closed by FEC repair.
    pub fec_repair_ns: u64,
    /// Virtual ns of loss-recovery windows closed by retransmission.
    pub retransmission_ns: u64,
    /// Virtual ms from t=0 to quiescence after the final change.
    pub elapsed_ms: f64,
    /// Whether the cell held every invariant (quiescence, view
    /// synchrony, key convergence, nobody gave up).
    pub converged: bool,
}

/// The parity floor for a loss rate: generous enough that, with the
/// paper testbeds' fan-out generations (≤ 20 messages per token
/// visit), the surviving parity covers the expected per-generation
/// losses with margin — the property the seeded sweep pins.
pub fn parity_for(loss_pct: u32) -> usize {
    match loss_pct {
        0..=1 => 2,
        2..=5 => 4,
        6..=10 => 6,
        _ => 10,
    }
}

/// One burst-sweep cell's identity and outcome — one CSV row of the
/// `--burst` grid.
#[derive(Clone, Debug)]
pub struct BurstRow {
    /// Testbed name (`lan` or `wan`).
    pub net: &'static str,
    /// Mean burst (bad-state dwell) length, in token rotations.
    pub burst_rot: u32,
    /// Bad-state loss rate in percent.
    pub bad_pct: u32,
    /// Recovery mode.
    pub mode: SweepMode,
    /// Protocol name.
    pub protocol: &'static str,
    /// Daemon-to-daemon copies lost in transit.
    pub lost: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Token visits that issued at least one retransmission request.
    pub retrans_rounds: u64,
    /// Data messages reconstructed locally from parity.
    pub fec_repairs: u64,
    /// Parity shard copies dispatched.
    pub parity_sent: u64,
    /// Parity payload bytes dispatched (the FEC bandwidth overhead,
    /// charged at byte granularity in every burst cell).
    pub parity_bytes: u64,
    /// Virtual ns of loss-recovery windows closed by FEC repair.
    pub fec_repair_ns: u64,
    /// Virtual ns of loss-recovery windows closed by retransmission.
    pub retransmission_ns: u64,
    /// Virtual ms from t=0 to quiescence after the final change.
    pub elapsed_ms: f64,
    /// Whether the cell held every invariant.
    pub converged: bool,
}

/// The approximate token-rotation period of a testbed under the
/// sweep's workload, used as the burst-length unit: thirteen hops of
/// token latency plus processing on the LAN; WAN rotations are
/// dominated by the two intercontinental legs.
fn rotation_unit(net: &str) -> Duration {
    if net == "lan" {
        Duration::from_micros(650)
    } else {
        Duration::from_millis(120)
    }
}

/// The two grids. They differ in their loss axes — hence in the loss
/// process a cell installs, the parity budget its FEC mode arms and a
/// few names; the testbed, the seed mixing, the backoff tail, the
/// workload and the columns a cell reports are shared.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Grid {
    /// One axis: the per-copy Bernoulli loss rate in percent.
    Loss,
    /// Two axes: mean burst length in token rotations × bad-state
    /// loss rate in percent.
    Burst,
}

/// What the one pipeline works on, whichever the grid: a Bernoulli
/// cell is the burst cell without a burst axis — `burst_rot` 0 and
/// its loss rate as `bad_pct`.
type Cell = BurstRow;

/// Reads one column of a cell.
type Column<T> = fn(&Cell) -> T;

impl Grid {
    /// Per axis: CSV column, table header, manifest path prefix, value.
    fn axes(self) -> &'static [(&'static str, &'static str, &'static str, Column<u32>)] {
        match self {
            Grid::Loss => &[("loss_pct", "loss%", "p", |c| c.bad_pct)],
            Grid::Burst => &[
                ("burst_rot", "burst", "b", |c| c.burst_rot),
                ("bad_pct", "bad%", "p", |c| c.bad_pct),
            ],
        }
    }

    /// Every `(burst_rot, bad_pct)` point of the grid, in sweep order.
    fn points(self) -> Vec<(u32, u32)> {
        match self {
            Grid::Loss => LOSS_PCTS.map(|pct| (0, pct)).to_vec(),
            Grid::Burst => BURST_ROTS
                .iter()
                .flat_map(|&rot| BURST_BAD_PCTS.map(|bad| (rot, bad)))
                .collect(),
        }
    }
}

/// The recovery counters in CSV column order; the flag marks those
/// the manifest also counts per cell.
const COUNTERS: [(&str, Column<u64>, bool); 6] = [
    ("lost", |c| c.lost, true),
    ("retransmissions", |c| c.retransmissions, false),
    ("retrans_rounds", |c| c.retrans_rounds, true),
    ("fec_repairs", |c| c.fec_repairs, true),
    ("parity_sent", |c| c.parity_sent, true),
    ("parity_bytes", |c| c.parity_bytes, true),
];

impl BurstRow {
    /// Total recovery time: the two attribution buckets sum exactly
    /// into it by construction.
    pub fn recovery_ns(&self) -> u64 {
        self.fec_repair_ns + self.retransmission_ns
    }
}

impl SweepRow {
    /// Total recovery time: the two attribution buckets sum exactly
    /// into it by construction.
    pub fn recovery_ns(&self) -> u64 {
        self.fec_repair_ns + self.retransmission_ns
    }

    fn cell(&self) -> Cell {
        Cell {
            net: self.net,
            burst_rot: 0,
            bad_pct: self.loss_pct,
            mode: self.mode,
            protocol: self.protocol,
            lost: self.lost,
            retransmissions: self.retransmissions,
            retrans_rounds: self.retrans_rounds,
            fec_repairs: self.fec_repairs,
            parity_sent: self.parity_sent,
            parity_bytes: self.parity_bytes,
            fec_repair_ns: self.fec_repair_ns,
            retransmission_ns: self.retransmission_ns,
            elapsed_ms: self.elapsed_ms,
            converged: self.converged,
        }
    }

    fn from_cell(cell: Cell) -> Self {
        SweepRow {
            net: cell.net,
            loss_pct: cell.bad_pct,
            mode: cell.mode,
            protocol: cell.protocol,
            lost: cell.lost,
            retransmissions: cell.retransmissions,
            retrans_rounds: cell.retrans_rounds,
            fec_repairs: cell.fec_repairs,
            parity_sent: cell.parity_sent,
            parity_bytes: cell.parity_bytes,
            fec_repair_ns: cell.fec_repair_ns,
            retransmission_ns: cell.retransmission_ns,
            elapsed_ms: cell.elapsed_ms,
            converged: cell.converged,
        }
    }
}

/// All cells of a grid, in deterministic (net, axes, mode, protocol)
/// order.
fn cells(
    grid: Grid,
    opts: &SweepOptions,
) -> Vec<(&'static str, (u32, u32), SweepMode, ProtocolKind)> {
    let protocols: Vec<ProtocolKind> = match opts.protocol {
        Some(p) => vec![p],
        None => ProtocolKind::all().to_vec(),
    };
    let mut out = Vec::new();
    for net in ["lan", "wan"] {
        for point in grid.points() {
            for mode in [SweepMode::Retrans, SweepMode::Fec] {
                for &p in &protocols {
                    out.push((net, point, mode, p));
                }
            }
        }
    }
    out
}

/// The engine configuration of one cell. Both modes of a
/// `(net, axes, protocol)` pair share the same loss seed (and, on the
/// burst grid, the same chain), so the FEC column is a like-for-like
/// comparison against the baseline.
fn cell_config(
    grid: Grid,
    net: &str,
    (burst_rot, bad_pct): (u32, u32),
    mode: SweepMode,
    proto: ProtocolKind,
    seed: u64,
) -> GcsConfig {
    let lan = net == "lan";
    let fec = mode == SweepMode::Fec;
    let mut cfg = if lan { testbed::lan() } else { testbed::wan() };
    let seed_key = (u64::from(burst_rot) << 32) | u64::from(bad_pct);
    cfg.loss_seed = seed
        ^ seed_key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (proto as u64).wrapping_mul(0x85eb_ca6b_c2b2_ae35)
        ^ if lan { 0 } else { 0x57a4_17ab_1e55_ed01 };
    match grid {
        Grid::Loss => {
            cfg.loss_rate = f64::from(bad_pct) / 100.0;
            if fec {
                cfg.fec_parity = parity_for(bad_pct);
            }
        }
        // All loss is bursty: the Bernoulli base rate is zero and a
        // Gilbert–Elliott chain with a 3:1 good:bad dwell ratio
        // supplies the bad-state windows. Both modes charge the wire
        // at byte granularity; the FEC mode arms the adaptive
        // controller with fast attack so the parity budget rises
        // within the first rotation of a burst.
        Grid::Burst => {
            cfg.loss_rate = 0.0;
            let bad_dwell = rotation_unit(net) * u64::from(burst_rot);
            cfg.gilbert = Some(GilbertElliott {
                good_loss: 0.0,
                bad_loss: f64::from(bad_pct) / 100.0,
                good_dwell: bad_dwell * 3,
                bad_dwell,
                // Its own stream, derived from the per-copy seed so the
                // chain is identical across the two modes of a
                // like-for-like pair.
                seed: cfg.loss_seed ^ 0xc2b2_ae3d_27d4_eb4f,
            });
            cfg.wire_granularity = WireGranularity::Byte;
            if fec {
                cfg.fec_parity = 2;
                cfg.fec_adaptive = true;
            }
        }
    }
    if fec {
        cfg.fec_parity_max = 16;
        // Patient backoff: local repair must win the race against the
        // request path, so the first retry waits several token
        // rotations (LAN rotations are ~100 µs, WAN ~120 ms).
        let (base, max) = if lan { (10, 80) } else { (2_000, 16_000) };
        cfg.retrans_backoff = Duration::from_millis(base);
        cfg.retrans_backoff_max = Duration::from_millis(max);
    }
    cfg
}

/// Outcome of one cell's workload, before cell identity is attached.
struct WorkloadOutcome {
    stats: gkap_gcs::WorldStats,
    elapsed_ms: f64,
    converged: bool,
}

/// The shared per-cell workload: a 6-member secure group keys up,
/// admits a seventh member, then loses one — all under the
/// configuration's loss process — and the survivors must agree on the
/// final view and key. The world is a [`secure_world`] of
/// [`chaos::default_factory`]'s members, telemetry off.
fn run_workload(cfg: GcsConfig, proto: ProtocolKind) -> WorkloadOutcome {
    let factory = chaos::default_factory();
    let mut world = secure_world(cfg, false, 0..8, 6, |i| factory(proto, i));
    world.inject_join(6);
    world.run_until_quiescent();
    world.inject_leave(1);
    world.run_until_quiescent();

    let report = chaos::survivor_agreement(&world);
    let converged =
        world.quiescent() && report.passed() && report.survivors > 0 && report.gave_up == 0;

    WorkloadOutcome {
        stats: world.stats().clone(),
        elapsed_ms: world.now().as_millis_f64(),
        converged,
    }
}

/// Runs a full grid. Deterministic across `jobs`: the fan-out
/// preserves cell order and every cell is self-contained.
fn run_grid(grid: Grid, opts: &SweepOptions) -> Vec<Cell> {
    let all = cells(grid, opts);
    par::run_indexed(opts.jobs, all.len(), |i| {
        let (net, (burst_rot, bad_pct), mode, proto) = all[i];
        let cfg = cell_config(grid, net, (burst_rot, bad_pct), mode, proto, opts.seed);
        let out = run_workload(cfg, proto);
        let s = &out.stats;
        Cell {
            net,
            burst_rot,
            bad_pct,
            mode,
            protocol: proto.name(),
            lost: s.messages_lost,
            retransmissions: s.retransmissions,
            retrans_rounds: s.retransmission_rounds,
            fec_repairs: s.fec_repairs,
            parity_sent: s.parity_shards_sent,
            parity_bytes: s.parity_bytes_sent,
            fec_repair_ns: s.fec_repair_recovery_ns,
            retransmission_ns: s.retransmission_recovery_ns,
            elapsed_ms: out.elapsed_ms,
            converged: out.converged,
        }
    })
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Total recovery time of some cells, from exact virtual-ns sums.
fn recovery_ms<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> f64 {
    ns_to_ms(cells.into_iter().map(Cell::recovery_ns).sum())
}

/// CSV of a grid's cells, fixed-precision so equal runs render equal
/// bytes. The three `_ms` columns derive from exact virtual-ns sums:
/// `recovery_ms` is always `fec_repair_ms + retransmission_ms`.
fn csv(grid: Grid, seed: u64, cells: &[Cell]) -> String {
    let mut out = String::from("seed,net,");
    for (column, ..) in grid.axes() {
        let _ = write!(out, "{column},");
    }
    out.push_str("mode,protocol,");
    for (name, _, _) in COUNTERS {
        let _ = write!(out, "{name},");
    }
    out.push_str("fec_repair_ms,retransmission_ms,recovery_ms,elapsed_ms,converged\n");
    for c in cells {
        let _ = write!(out, "{seed},{},", c.net);
        for (.., axis) in grid.axes() {
            let _ = write!(out, "{},", axis(c));
        }
        let _ = write!(out, "{},{},", c.mode.name(), c.protocol);
        for (_, counter, _) in COUNTERS {
            let _ = write!(out, "{},", counter(c));
        }
        let _ = writeln!(
            out,
            "{:.6},{:.6},{:.6},{:.6},{}",
            ns_to_ms(c.fec_repair_ns),
            ns_to_ms(c.retransmission_ns),
            recovery_ms([c]),
            c.elapsed_ms,
            c.converged,
        );
    }
    out
}

/// Human-readable summary: one line per (net, axes, mode) with the
/// totals across protocols. The Bernoulli table reports parity in
/// shards, the burst table — whose wire is charged by the byte — in
/// bytes.
fn table(grid: Grid, seed: u64, cells: &[Cell]) -> String {
    let (title, parity_header, width, parity): (_, _, _, Column<u64>) = match grid {
        Grid::Loss => ("Loss sweep", "parity", 8, |c| c.parity_sent),
        Grid::Burst => ("Burst sweep", "parity_B", 12, |c| c.parity_bytes),
    };
    let mut out = format!(
        "# {title} — seed {seed}, {} cells (virtual ms)\n{:<4}",
        cells.len(),
        "net"
    );
    for (_, header, ..) in grid.axes() {
        let _ = write!(out, " {header:>5}");
    }
    let _ = writeln!(
        out,
        " {:>8} {:>6} {:>8} {:>8} {parity_header:>width$} {:>12} {:>10}",
        "mode", "lost", "rounds", "repairs", "recovery_ms", "converged"
    );
    for net in ["lan", "wan"] {
        for point in grid.points() {
            for mode in [SweepMode::Retrans, SweepMode::Fec] {
                let cell: Vec<&Cell> = cells
                    .iter()
                    .filter(|c| (c.net, (c.burst_rot, c.bad_pct), c.mode) == (net, point, mode))
                    .collect();
                let Some(first) = cell.first() else {
                    continue;
                };
                let sum = |f: Column<u64>| cell.iter().map(|c| f(c)).sum::<u64>();
                let _ = write!(out, "{net:<4}");
                for (.., axis) in grid.axes() {
                    let _ = write!(out, " {:>5}", axis(first));
                }
                let _ = writeln!(
                    out,
                    " {:>8} {:>6} {:>8} {:>8} {:>width$} {:>12.3} {:>10}",
                    mode.name(),
                    sum(|c| c.lost),
                    sum(|c| c.retrans_rounds),
                    sum(|c| c.fec_repairs),
                    sum(parity),
                    recovery_ms(cell.iter().copied()),
                    cell.iter().filter(|c| c.converged).count(),
                );
            }
        }
    }
    out
}

/// Builds the deterministic manifest body of a grid: per-cell
/// counters plus recovery/elapsed histograms. Every quantity is a
/// pure function of the seed, so the rendered body is bit-identical
/// across `--jobs` values.
fn manifest(grid: Grid, opts: &SweepOptions, cells: &[Cell]) -> Manifest {
    // Names the manifest tag (`loss_s7`), the metric namespace
    // (`harness/loss_sweep/…`) and the seed's config key.
    let kind = match grid {
        Grid::Loss => "loss",
        Grid::Burst => "burst",
    };
    let mut man = Manifest::new("chaos", &format!("{kind}_s{}", opts.seed));
    man.set_config(&format!("{kind}_sweep_seed"), opts.seed);
    man.set_config("protocol", opts.protocol.map(|p| p.name()).unwrap_or("all"));
    let root = format!("harness/{kind}_sweep");
    man.add_count(&format!("{root}/cells"), cells.len() as u64);
    man.add_count(
        &format!("{root}/converged"),
        cells.iter().filter(|c| c.converged).count() as u64,
    );
    let mut recovery = LogHistogram::default();
    let mut elapsed = LogHistogram::default();
    for c in cells {
        let mut cell = format!("{root}/{}", c.net);
        for (_, _, prefix, axis) in grid.axes() {
            let _ = write!(cell, "/{prefix}{}", axis(c));
        }
        for (name, counter, _) in COUNTERS.iter().filter(|(_, _, counted)| *counted) {
            man.add_count(&format!("{cell}/{}/{name}", c.mode.name()), counter(c));
        }
        recovery.record(recovery_ms([c]));
        elapsed.record(c.elapsed_ms);
        man.virtual_ms += c.elapsed_ms;
    }
    man.put_histogram(&format!("{root}/recovery_ms"), recovery.summary());
    man.put_histogram(&format!("{root}/elapsed_ms"), elapsed.summary());
    man
}

fn sweep_cells(rows: &[SweepRow]) -> Vec<Cell> {
    rows.iter().map(SweepRow::cell).collect()
}

/// Runs the full Bernoulli sweep.
pub fn run_sweep(opts: &SweepOptions) -> Vec<SweepRow> {
    run_grid(Grid::Loss, opts)
        .into_iter()
        .map(SweepRow::from_cell)
        .collect()
}

/// CSV of the sweep rows.
pub fn sweep_csv(seed: u64, rows: &[SweepRow]) -> String {
    csv(Grid::Loss, seed, &sweep_cells(rows))
}

/// Summary table of the sweep rows: one line per (net, rate, mode).
pub fn sweep_table(seed: u64, rows: &[SweepRow]) -> String {
    table(Grid::Loss, seed, &sweep_cells(rows))
}

/// The deterministic manifest body of a sweep.
pub fn sweep_manifest(opts: &SweepOptions, rows: &[SweepRow]) -> Manifest {
    manifest(Grid::Loss, opts, &sweep_cells(rows))
}

/// Runs the full burst sweep. Deterministic across `jobs` for the
/// same reason as [`run_sweep`].
pub fn run_burst_sweep(opts: &SweepOptions) -> Vec<BurstRow> {
    run_grid(Grid::Burst, opts)
}

/// CSV of the burst rows.
pub fn burst_csv(seed: u64, rows: &[BurstRow]) -> String {
    csv(Grid::Burst, seed, rows)
}

/// Summary table of the burst rows: one line per (net, burst, rate,
/// mode).
pub fn burst_table(seed: u64, rows: &[BurstRow]) -> String {
    table(Grid::Burst, seed, rows)
}

/// The deterministic manifest body of a burst sweep; same
/// bit-identity contract as [`sweep_manifest`].
pub fn burst_manifest(opts: &SweepOptions, rows: &[BurstRow]) -> Manifest {
    manifest(Grid::Burst, opts, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_config(net: &str, pct: u32, mode: SweepMode, p: ProtocolKind, seed: u64) -> GcsConfig {
        cell_config(Grid::Loss, net, (0, pct), mode, p, seed)
    }

    fn burst_config(
        net: &str,
        rot: u32,
        pct: u32,
        mode: SweepMode,
        p: ProtocolKind,
        seed: u64,
    ) -> GcsConfig {
        cell_config(Grid::Burst, net, (rot, pct), mode, p, seed)
    }

    #[test]
    fn cell_grid_is_deterministic_and_complete() {
        let opts = SweepOptions {
            seed: 7,
            jobs: 1,
            protocol: None,
        };
        let grid = cells(Grid::Loss, &opts);
        // 2 nets × 4 rates × 2 modes × 5 protocols.
        assert_eq!(grid.len(), 80);
        assert_eq!(grid, cells(Grid::Loss, &opts));
        let one = SweepOptions {
            protocol: Some(ProtocolKind::Bd),
            ..opts
        };
        assert_eq!(cells(Grid::Loss, &one).len(), 16);
    }

    #[test]
    fn parity_floor_scales_with_loss() {
        assert_eq!(parity_for(1), 2);
        assert_eq!(parity_for(5), 4);
        assert_eq!(parity_for(10), 6);
        assert_eq!(parity_for(20), 10);
    }

    #[test]
    fn modes_share_the_loss_seed_for_like_for_like_cells() {
        let a = loss_config("wan", 10, SweepMode::Retrans, ProtocolKind::Gdh, 7);
        let b = loss_config("wan", 10, SweepMode::Fec, ProtocolKind::Gdh, 7);
        assert_eq!(a.loss_seed, b.loss_seed);
        assert_eq!(a.fec_parity, 0, "baseline keeps the pre-FEC engine");
        assert!(b.fec_parity > 0);
    }

    #[test]
    fn burst_grid_is_deterministic_and_complete() {
        let opts = SweepOptions {
            seed: 7,
            jobs: 1,
            protocol: None,
        };
        let grid = cells(Grid::Burst, &opts);
        // 2 nets × 2 burst lengths × 2 bad rates × 2 modes × 5 protocols.
        assert_eq!(grid.len(), 80);
        assert_eq!(grid, cells(Grid::Burst, &opts));
    }

    #[test]
    fn burst_modes_share_chain_and_loss_seeds() {
        let a = burst_config("wan", 4, 80, SweepMode::Retrans, ProtocolKind::Gdh, 7);
        let b = burst_config("wan", 4, 80, SweepMode::Fec, ProtocolKind::Gdh, 7);
        assert_eq!(a.loss_seed, b.loss_seed);
        assert_eq!(a.gilbert, b.gilbert, "like-for-like burst trajectory");
        assert_eq!(a.loss_rate, 0.0, "all burst-cell loss is bursty");
        assert_eq!(a.wire_granularity, WireGranularity::Byte);
        assert_eq!(b.wire_granularity, WireGranularity::Byte);
        assert!(!a.fec_adaptive);
        assert!(b.fec_adaptive);
        // Distinct parameter pairs get distinct chains.
        let c = burst_config("wan", 1, 80, SweepMode::Fec, ProtocolKind::Gdh, 7);
        assert_ne!(b.gilbert, c.gilbert);
    }

    #[test]
    fn burst_dwell_ratio_is_three_to_one() {
        for net in ["lan", "wan"] {
            for rot in BURST_ROTS {
                let cfg = burst_config(net, rot, 40, SweepMode::Fec, ProtocolKind::Bd, 7);
                let ge = cfg.gilbert.expect("burst cells configure a chain");
                assert_eq!(ge.good_dwell.as_nanos(), 3 * ge.bad_dwell.as_nanos());
                assert_eq!(
                    ge.bad_dwell.as_nanos(),
                    rotation_unit(net).as_nanos() * u64::from(rot)
                );
            }
        }
    }
}
