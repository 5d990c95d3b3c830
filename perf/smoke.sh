#!/usr/bin/env bash
# Smoke test of the benchmark: build perf/ offline, run every workload
# once at the default seed with two timed passes (goldens and the
# determinism checks only), then one traced run. Under a minute on two
# cores. For a later change to wire into
# .github/workflows/ci.yml; nothing calls it yet.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
perf="$CARGO_TARGET_DIR/release/perf"

for workload in paper_figs scale_churn loss_recovery gcs_storm trace_on real_crypto; do
    # Two passes: the second is compared bit for bit with the first.
    result="$("$perf" run --workload "$workload" --passes 2 | tail -n 1)"
    case "$result" in
        '{"correct": true, '*'"failed": 0, '*) echo "ok   $workload" ;;
        *) echo "FAIL $workload: $result" >&2; exit 1 ;;
    esac
done

"$perf" run --workload gcs_storm --trace 1 | tail -n 1 | grep -q '"unattributed_share"' \
    && echo "ok   traced run prints the per-layer metrics"
