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
//!
//! Metric lines are rendered from the typed hub by [`render_hub`].

use crate::{Actor, Event, EventKind};
use std::fmt::Write as _;

fn actor_label(a: Actor) -> String {
    match a {
        Actor::World => "world".to_string(),
        Actor::Client(i) => format!("client:{i}"),
        Actor::Daemon(i) => format!("daemon:{i}"),
        Actor::Machine(i) => format!("machine:{i}"),
    }
}

/// Renders one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(ev: &Event) -> String {
    let mut s = String::with_capacity(96);
    write!(
        s,
        "{{\"at_ms\":{:.6},\"dur_ms\":{:.6},\"actor\":\"{}\",\"kind\":\"{}\"",
        ev.at.as_millis_f64(),
        ev.dur.as_millis_f64(),
        actor_label(ev.actor),
        ev.kind.name()
    )
    .expect("write to String");
    match &ev.kind {
        EventKind::MembershipEvent { action, group_size } => {
            write!(s, ",\"action\":\"{action}\",\"group_size\":{group_size}")
        }
        EventKind::ProtocolRound { protocol, round } => {
            write!(s, ",\"protocol\":\"{protocol}\",\"round\":{round}")
        }
        EventKind::CryptoOp { op, bits } => {
            write!(s, ",\"op\":\"{}\",\"bits\":{bits}", op.as_str())
        }
        EventKind::TokenRotation { rotation } => write!(s, ",\"rotation\":{rotation}"),
        EventKind::Retransmit { seq } => write!(s, ",\"seq\":{seq}"),
        EventKind::FecRepair { seq } => write!(s, ",\"seq\":{seq}"),
        EventKind::Sequenced { seq, sender } => {
            write!(s, ",\"seq\":{seq},\"sender\":{sender}")
        }
        EventKind::Delivered { sender, service } => {
            write!(s, ",\"sender\":{sender},\"service\":\"{service}\"")
        }
        EventKind::ViewInstalled { view_id } => write!(s, ",\"view_id\":{view_id}"),
        EventKind::HandlerSpan { wait } => {
            write!(s, ",\"wait_ms\":{:.6}", wait.as_millis_f64())
        }
        EventKind::MessageSend { class } => write!(s, ",\"class\":\"{}\"", class.as_str()),
        EventKind::Fault { action, target } => {
            write!(s, ",\"action\":\"{action}\",\"target\":{target}")
        }
    }
    .expect("write to String");
    s.push('}');
    s
}

/// Renders all events, one per line.
pub fn render_events(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Renders the typed hub: one JSON object per counter, gauge and
/// histogram summary, keyed by the canonical metric path.
///
/// ```json
/// {"metric":"counter","name":"crypto/exp","value":816}
/// {"metric":"gauge","name":"gcs/pending_peak","value":4}
/// {"metric":"histogram","name":"harness/TGDH/rekey_ms","count":9,"min":1.2,"p50":3.1,"p95":6.0,"p99":6.0,"max":6.2}
/// ```
pub fn render_hub(hub: &crate::metrics::MetricsHub) -> String {
    let mut out = String::new();
    for (key, value) in hub.counters() {
        out.push_str(&format!(
            "{{\"metric\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
            key.path()
        ));
    }
    for (key, value) in hub.gauges() {
        out.push_str(&format!(
            "{{\"metric\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}\n",
            key.path()
        ));
    }
    for (key, hist) in hub.histograms() {
        let s = hist.summary();
        out.push_str(&format!(
            "{{\"metric\":\"histogram\",\"name\":\"{}\",\"count\":{},\"min\":{:.6},\"p50\":{:.6},\"p95\":{:.6},\"p99\":{:.6},\"max\":{:.6}}}\n",
            key.path(),
            s.count,
            s.min,
            s.p50,
            s.p95,
            s.p99,
            s.max,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CryptoOpKind, SendClass};
    use gkap_sim::{Duration, SimTime};

    fn ev(kind: EventKind) -> Event {
        Event {
            at: SimTime::from_nanos(1_500_000),
            dur: Duration::from_micros(250),
            actor: Actor::Client(2),
            kind,
        }
    }

    #[test]
    fn event_lines_are_valid_single_objects() {
        let kinds = vec![
            EventKind::MembershipEvent {
                action: "inject_join",
                group_size: 14,
            },
            EventKind::ProtocolRound {
                protocol: "GDH",
                round: 3,
            },
            EventKind::CryptoOp {
                op: CryptoOpKind::Exp,
                bits: 512,
            },
            EventKind::TokenRotation { rotation: 7 },
            EventKind::Retransmit { seq: 42 },
            EventKind::FecRepair { seq: 43 },
            EventKind::Sequenced { seq: 42, sender: 1 },
            EventKind::Delivered {
                sender: 1,
                service: "agreed",
            },
            EventKind::ViewInstalled { view_id: 9 },
            EventKind::HandlerSpan {
                wait: Duration::from_micros(80),
            },
            EventKind::MessageSend {
                class: SendClass::Multicast,
            },
            EventKind::Fault {
                action: "crash",
                target: 4,
            },
        ];
        for kind in kinds {
            let line = event_to_json(&ev(kind));
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            // Braces balance and quotes pair up — cheap well-formedness.
            assert_eq!(line.matches('{').count(), 1, "{line}");
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
            assert!(line.contains("\"at_ms\":1.5"), "{line}");
        }
    }
}
