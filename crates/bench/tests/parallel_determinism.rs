//! The parallel harness contract: `--jobs N` must not change a single
//! output byte. Every figure folds worker results in serial iteration
//! order and every cell seed depends only on the cell's coordinates,
//! so serial and 8-way runs must render identical CSVs.

use gkap_bench::figures;
use gkap_core::experiment::SuiteKind;

#[test]
fn fig11_csv_identical_serial_vs_parallel() {
    let sizes = [2, 3, 5];
    let serial = figures::fig11_join_lan(SuiteKind::FastZero, &sizes, 2, 1).to_csv();
    let par = figures::fig11_join_lan(SuiteKind::FastZero, &sizes, 2, 8).to_csv();
    assert_eq!(serial, par);
}

#[test]
fn fig12_csv_identical_serial_vs_parallel() {
    let sizes = [2, 4];
    let serial = figures::fig12_leave_lan(SuiteKind::FastZero, &sizes, 3, 1).to_csv();
    let par = figures::fig12_leave_lan(SuiteKind::FastZero, &sizes, 3, 8).to_csv();
    assert_eq!(serial, par);
}

#[test]
fn wan_figure_csv_identical_serial_vs_parallel() {
    let sizes = [2, 3];
    let serial = figures::fig14_join_wan(&sizes, 2, 1).to_csv();
    let par = figures::fig14_join_wan(&sizes, 2, 8).to_csv();
    assert_eq!(serial, par);
}

#[test]
fn custom_grid_figure_csv_identical_serial_vs_parallel() {
    // scale_figure states its own axes and seed formula (it does not
    // go through build_figure_jobs): exercise that path too.
    let sizes = [3, 5];
    let serial = figures::scale_figure(&sizes, 2, 1).to_csv();
    let par = figures::scale_figure(&sizes, 2, 8).to_csv();
    assert_eq!(serial, par);
}

/// Every figure builder behind a `repro` registry entry, at sizes
/// small enough for a test: `(name, CSV)` in registry order.
fn small_figures(jobs: usize) -> Vec<(&'static str, String)> {
    use gkap_gcs::testbed::{lan, wan};
    let fast = SuiteKind::FastZero;
    let figs = vec![
        ("fig11", figures::fig11_join_lan(fast, &[2, 3, 5], 2, jobs)),
        ("fig12", figures::fig12_leave_lan(fast, &[2, 4], 3, jobs)),
        ("fig14-join", figures::fig14_join_wan(&[2, 3], 2, jobs)),
        ("fig14-leave", figures::fig14_leave_wan(&[2, 3], 2, jobs)),
        (
            "partition-lan",
            figures::partition_figure(&lan(), "partition", &[4, 7], 2, jobs),
        ),
        (
            "merge-wan",
            figures::merge_figure(&wan(), "merge", &[4, 5], 2, jobs),
        ),
        ("crossover", figures::crossover_figure(4, &[0, 20], 2, jobs)),
        (
            "ablate-flow",
            figures::flow_control_ablation(6, &[1, 5], 2, jobs),
        ),
        ("ablate-sponsor", figures::sponsor_location_ablation(6)),
        ("ablate-tree", figures::tree_shape_ablation(6, 4)),
        ("ablate-sig", figures::signature_scheme_ablation(4, 2, jobs)),
        ("ablate-avl", figures::avl_policy_ablation(6, 5)),
        ("lossy", figures::lossy_links_figure(4, &[0, 10], 2, jobs)),
        (
            "ablate-hetero",
            figures::hetero_machine_ablation(4, 2, jobs),
        ),
        (
            "ablate-confirm",
            figures::key_confirmation_ablation(4, 2, jobs),
        ),
        ("ika", figures::ika_figure(&lan(), "ika", &[2, 4], 2, jobs)),
        ("ext-scale", figures::scale_figure(&[3, 5], 2, jobs)),
    ];
    figs.into_iter().map(|(n, f)| (n, f.to_csv())).collect()
}

/// Pins the grid fold: the CSVs in `small_figures.golden` were
/// captured from the hand-written per-figure loops it replaced, and
/// must come out of it byte for byte, serial and 8-way alike.
#[test]
fn small_figures_match_pre_fold_goldens_serial_and_parallel() {
    for jobs in [1, 8] {
        let mut actual = String::new();
        for (name, csv) in small_figures(jobs) {
            actual.push_str(&format!("## {name}\n{csv}"));
        }
        if actual != include_str!("small_figures.golden") {
            let path =
                std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("small_figures.actual");
            std::fs::write(&path, &actual).expect("write actual");
            panic!(
                "jobs={jobs}: differs from small_figures.golden; actual written to {}",
                path.display()
            );
        }
    }
}
