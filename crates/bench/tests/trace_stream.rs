//! The traced streams, pinned: for each figure `repro trace` knows,
//! the event count and an FNV-64 digest of the JSONL that
//! `jsonl::render_events` renders over every run of `trace_figure` at
//! a small group size. A change to how events are stored (their
//! layout, how ids and labels are held) must leave these alone; a
//! change that moves one byte of a stream is a change in behaviour.

use gkap_bench::trace::trace_figure;
use gkap_telemetry::jsonl;

/// Group size of every pinned figure: small enough for a debug build.
const N: usize = 6;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(events, digest)` over every row of `figure`, in row order.
fn stream(figure: &str) -> (usize, u64) {
    let rows = trace_figure(figure, N).expect("known figure");
    rows.iter()
        .fold((0, 0xcbf2_9ce4_8422_2325), |(count, h), row| {
            let text = jsonl::render_events(&row.run.events);
            (count + row.run.events.len(), fnv64(h, text.as_bytes()))
        })
}

#[test]
fn traced_streams_are_pinned() {
    let pins = [
        ("fig11", 1192, 8227960094566632855),
        ("fig12", 729, 15622410220281816116),
        ("fig14", 1486, 3582674476536561162),
        ("crash", 746, 10436969560426441771),
    ];
    for (figure, events, digest) in pins {
        assert_eq!(stream(figure), (events, digest), "{figure} at n = {N}");
    }
}
