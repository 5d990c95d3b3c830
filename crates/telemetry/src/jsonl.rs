//! JSONL rendering of captured telemetry.
//!
//! One JSON object per line, hand-rendered (every value is a number,
//! an identifier-safe string, or a fixed label — no escaping needed).
//!
//! Event lines:
//!
//! ```json
//! {"at_ms":12.345,"dur_ms":0.25,"actor":"client:3","kind":"crypto_op","op":"exp","bits":512}
//! ```
//!
//! Common fields: `at_ms`/`dur_ms` (virtual milliseconds), `actor`
//! (`world`, `client:N`, `daemon:N`, `machine:N`), `kind` (see the
//! crate-level taxonomy table). Kind-specific fields follow.

use crate::{Actor, Event, EventKind};
use std::fmt::Write as _;

/// What [`render_events`] reserves per event: a line of the common
/// four fields plus two small kind-specific ones, newline included.
const LINE_RESERVE: usize = 128;

/// Appends `ns` nanoseconds as milliseconds with six decimals: the
/// bytes of `{:.6}` applied to `ns as f64 / 1e6` (what
/// `as_millis_f64` returns), without formatting a float.
///
/// Below 2^52 ns (52 virtual days) the two agree exactly: `ns` is an
/// exact `f64` and the division is correctly rounded, so the quotient
/// is within half an ulp — at most 2^-21 ms, under half a step of the
/// 10^-6 ms grid — of `ns / 10^6`, which lies *on* that grid; rounding
/// to six decimals therefore lands on it. Above, the float is
/// formatted.
fn write_ms(out: &mut String, ns: u64) -> std::fmt::Result {
    if ns < 1 << 52 {
        write!(out, "{}.{:06}", ns / 1_000_000, ns % 1_000_000)
    } else {
        write!(out, "{:.6}", ns as f64 / 1_000_000.0)
    }
}

fn write_actor(out: &mut String, a: Actor) -> std::fmt::Result {
    match a {
        Actor::World => out.write_str("world"),
        Actor::Client(i) => write!(out, "client:{i}"),
        Actor::Daemon(i) => write!(out, "daemon:{i}"),
        Actor::Machine(i) => write!(out, "machine:{i}"),
    }
}

/// Appends one event to `out` as a single-line JSON object (no
/// trailing newline), allocating nothing beyond `out`'s own growth.
/// [`event_to_json`] documents the schema.
fn write_event(out: &mut String, ev: &Event) {
    try_write_event(out, ev).expect("write to String");
}

fn try_write_event(out: &mut String, ev: &Event) -> std::fmt::Result {
    out.push_str("{\"at_ms\":");
    write_ms(out, ev.at.as_nanos())?;
    out.push_str(",\"dur_ms\":");
    write_ms(out, ev.dur.as_nanos())?;
    out.push_str(",\"actor\":\"");
    write_actor(out, ev.actor)?;
    write!(out, "\",\"kind\":\"{}\"", ev.kind.name())?;
    match &ev.kind {
        EventKind::MembershipEvent { action, group_size } => {
            write!(out, ",\"action\":\"{action}\",\"group_size\":{group_size}")
        }
        EventKind::ProtocolRound { protocol, round } => {
            write!(out, ",\"protocol\":\"{protocol}\",\"round\":{round}")
        }
        EventKind::CryptoOp { op, bits } => {
            write!(out, ",\"op\":\"{}\",\"bits\":{bits}", op.as_str())
        }
        EventKind::TokenRotation { rotation } => write!(out, ",\"rotation\":{rotation}"),
        EventKind::IdleRotations { first, count } => {
            write!(out, ",\"first\":{first},\"count\":{count}")
        }
        EventKind::Retransmit { seq } => write!(out, ",\"seq\":{seq}"),
        EventKind::FecRepair { seq } => write!(out, ",\"seq\":{seq}"),
        EventKind::Sequenced { seq, sender } => {
            write!(out, ",\"seq\":{seq},\"sender\":{sender}")
        }
        EventKind::Delivered { sender, service } => {
            write!(out, ",\"sender\":{sender},\"service\":\"{service}\"")
        }
        EventKind::ViewInstalled { view_id } => write!(out, ",\"view_id\":{view_id}"),
        EventKind::HandlerSpan { wait } => {
            out.push_str(",\"wait_ms\":");
            write_ms(out, wait.as_nanos())
        }
        EventKind::MessageSend { class } => {
            write!(out, ",\"class\":\"{}\"", class.as_str())
        }
        EventKind::Fault { action, target } => {
            write!(out, ",\"action\":\"{action}\",\"target\":{target}")
        }
    }?;
    out.push('}');
    Ok(())
}

/// Renders one event as a single-line JSON object (no trailing
/// newline).
///
/// Kind-specific fields, after the common four:
///
/// | `kind` | fields |
/// |--------|--------|
/// | `membership` | `action`, `group_size` |
/// | `protocol_round` | `protocol`, `round` |
/// | `crypto_op` | `op`, `bits` |
/// | `token_rotation` | `rotation` |
/// | `idle_rotations` | `first`, `count` — `count` rotations of a quiet ring in one line: `at_ms` is the first one's instant, `dur_ms` the span of them all, rotation `first + i` falls at `at_ms + i * dur_ms / count` |
/// | `retransmit`, `fec_repair` | `seq` |
/// | `sequenced` | `seq`, `sender` |
/// | `delivered` | `sender`, `service` |
/// | `view_installed` | `view_id` |
/// | `handler_span` | `wait_ms` |
/// | `message_send` | `class` |
/// | `fault` | `action`, `target` |
pub fn event_to_json(ev: &Event) -> String {
    let mut s = String::with_capacity(LINE_RESERVE);
    write_event(&mut s, ev);
    s
}

/// Renders all events, one per line, into one buffer reserved up
/// front.
pub fn render_events(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * LINE_RESERVE);
    for ev in events {
        write_event(&mut out, ev);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CryptoOpKind, Label, SendClass};
    use gkap_sim::{Duration, SimTime};

    fn ev(actor: Actor, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_nanos(1_500_000),
            dur: Duration::from_micros(250),
            actor,
            kind,
        }
    }

    /// One event of every kind, over every actor shape.
    fn one_of_each() -> Vec<Event> {
        vec![
            ev(
                Actor::World,
                EventKind::MembershipEvent {
                    action: Label::new(&"inject_join"),
                    group_size: 14,
                },
            ),
            ev(
                Actor::Client(2),
                EventKind::ProtocolRound {
                    protocol: Label::new(&"GDH"),
                    round: 3,
                },
            ),
            ev(
                Actor::Client(2),
                EventKind::CryptoOp {
                    op: CryptoOpKind::Exp,
                    bits: 512,
                },
            ),
            ev(Actor::Daemon(0), EventKind::TokenRotation { rotation: 7 }),
            ev(
                Actor::Daemon(0),
                EventKind::IdleRotations {
                    first: 8,
                    count: 1076,
                },
            ),
            ev(Actor::Daemon(12), EventKind::Retransmit { seq: 42 }),
            ev(Actor::Daemon(12), EventKind::FecRepair { seq: 43 }),
            ev(
                Actor::Daemon(3),
                EventKind::Sequenced { seq: 42, sender: 1 },
            ),
            ev(
                Actor::Client(2),
                EventKind::Delivered {
                    sender: 1,
                    service: Label::new(&"agreed"),
                },
            ),
            ev(Actor::Daemon(3), EventKind::ViewInstalled { view_id: 9 }),
            ev(
                Actor::Machine(5),
                EventKind::HandlerSpan {
                    wait: Duration::from_micros(80),
                },
            ),
            ev(
                Actor::Client(2),
                EventKind::MessageSend {
                    class: SendClass::Multicast,
                },
            ),
            ev(
                Actor::Daemon(4),
                EventKind::Fault {
                    action: crate::fault::CRASH,
                    target: 4,
                },
            ),
        ]
    }

    /// The bytes `event_to_json` produced when it built one `String`
    /// per event and one per actor label (commit 2ee1b3e), plus the
    /// `idle_rotations` line that commit could not have.
    const GOLDEN: &str = r#"{"at_ms":1.500000,"dur_ms":0.250000,"actor":"world","kind":"membership","action":"inject_join","group_size":14}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"client:2","kind":"protocol_round","protocol":"GDH","round":3}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"client:2","kind":"crypto_op","op":"exp","bits":512}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:0","kind":"token_rotation","rotation":7}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:0","kind":"idle_rotations","first":8,"count":1076}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:12","kind":"retransmit","seq":42}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:12","kind":"fec_repair","seq":43}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:3","kind":"sequenced","seq":42,"sender":1}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"client:2","kind":"delivered","sender":1,"service":"agreed"}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:3","kind":"view_installed","view_id":9}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"machine:5","kind":"handler_span","wait_ms":0.080000}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"client:2","kind":"message_send","class":"multicast"}
{"at_ms":1.500000,"dur_ms":0.250000,"actor":"daemon:4","kind":"fault","action":"crash","target":4}
"#;

    #[test]
    fn rendering_is_pinned_for_every_kind() {
        let events = one_of_each();
        let mut names: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 13, "one event of every `EventKind`");
        assert_eq!(render_events(&events), GOLDEN);
        // The per-event wrapper and the appending form agree, and
        // appending leaves what was already there alone.
        let mut appended = String::from("x");
        for (event, line) in events.iter().zip(GOLDEN.lines()) {
            assert_eq!(event_to_json(event), line);
            write_event(&mut appended, event);
            appended.push('\n');
        }
        assert_eq!(appended.strip_prefix('x'), Some(GOLDEN));
        assert_eq!(render_events(&[]), "");
    }

    fn ms(ns: u64) -> String {
        let mut s = String::new();
        write_ms(&mut s, ns).expect("write to String");
        s
    }

    #[test]
    fn milliseconds_are_the_float_rendering_at_the_edges() {
        let float = |ns: u64| format!("{:.6}", ns as f64 / 1_000_000.0);
        let edges = [0, 1, 999_999, 1_000_000, 1_500_000, 12_345_678_901];
        let powers = (0..64).map(|p| 1u64 << p);
        for ns in edges.into_iter().chain(powers) {
            for ns in [ns.wrapping_sub(1), ns, ns.saturating_add(1)] {
                assert_eq!(ms(ns), float(ns), "{ns} ns");
            }
        }
        assert_eq!(ms(1_500_000), "1.500000");
        assert_eq!(ms(42), "0.000042");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        /// The integer path is bit for bit the float rendering it
        /// replaces — over the first seconds, the whole exact range
        /// and beyond it.
        #[test]
        fn milliseconds_are_the_float_rendering(raw in proptest::prelude::any::<u64>(), shift in 0u32..64) {
            let ns = raw >> shift;
            proptest::prop_assert_eq!(ms(ns), format!("{:.6}", ns as f64 / 1_000_000.0));
        }
    }

    #[test]
    fn event_lines_are_valid_single_objects() {
        for event in one_of_each() {
            let line = event_to_json(&event);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            // Braces balance and quotes pair up — cheap well-formedness.
            assert_eq!(line.matches('{').count(), 1, "{line}");
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
            assert!(line.contains("\"at_ms\":1.5"), "{line}");
        }
    }
}
