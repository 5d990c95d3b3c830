//! The paper's two testbeds, plus parameterized topologies for the
//! extension studies.

use gkap_sim::Duration;

use crate::config::{GcsConfig, WireGranularity};
use crate::topology::{MachineCfg, SiteCfg, Topology};

/// One-way latency between two machines at the same site, on every
/// testbed.
const INTRA_SITE: Duration = Duration::from_micros(40);

/// The settings every preset shares: reliable links, no FEC and the
/// legacy request-every-visit retransmission. A preset supplies only
/// what differs between testbeds — the topology, how long crash
/// detection takes on it, and the backoff cap that fits its rotation.
fn preset(
    topology: Topology,
    crash_detection_timeout: Duration,
    retrans_backoff_max: Duration,
) -> GcsConfig {
    GcsConfig {
        topology,
        flow_control_max_msgs: 20,
        loss_rate: 0.0,
        loss_seed: 0x10_55,
        gilbert: None,
        wire_granularity: WireGranularity::WholeKb,
        crash_detection_timeout,
        fec_parity: 0,
        fec_parity_max: 4,
        fec_adaptive: false,
        retrans_backoff: Duration::ZERO,
        retrans_backoff_max,
    }
}

/// The LAN testbed of §6.1.1: a cluster of thirteen 666 MHz Pentium III
/// dual-processor PCs, one Spread daemon per machine.
///
/// Calibration targets (measured by `repro -- microlan`): Agreed
/// multicast ≈ 1.2–1.4 ms, membership service 2–7 ms for groups of
/// 2–50.
pub fn lan() -> GcsConfig {
    preset(
        Topology::single_site(13, 2, INTRA_SITE),
        Duration::from_millis(5),
        Duration::from_millis(10),
    )
}

/// The WAN testbed of §6.2.1 / Figure 13: eleven machines at JHU
/// (Maryland), one at UCI (California), one at ICU (Korea).
///
/// Round-trip latencies from the paper: JHU–UCI 35 ms, UCI–ICU 150 ms,
/// ICU–JHU 135 ms (we use half of each as one-way latency). Two of the
/// thirteen machines are slower than the cluster machines (a 850 MHz
/// Athlon and a 930 MHz PIII in the paper — close enough to 1.0 that we
/// keep speed 1.0 and the dual-processor JHU configuration; the two
/// remote machines are modelled single-processor).
///
/// Calibration targets (measured by `repro -- microwan`): Agreed
/// multicast ≈ 305/315/335 ms depending on the sender's site,
/// membership service ≈ 450–800 ms.
pub fn wan() -> GcsConfig {
    let sites = vec![
        SiteCfg { name: "JHU".into() },
        SiteCfg { name: "UCI".into() },
        SiteCfg { name: "ICU".into() },
    ];
    let ms_f = Duration::from_millis_f64;
    let latency = vec![
        vec![Duration::ZERO, ms_f(17.5), ms_f(67.5)],
        vec![ms_f(17.5), Duration::ZERO, ms_f(75.0)],
        vec![ms_f(67.5), ms_f(75.0), Duration::ZERO],
    ];
    let mut machines: Vec<MachineCfg> = (0..11)
        .map(|_| MachineCfg {
            site: 0,
            cores: 2,
            speed: 1.0,
        })
        .collect();
    machines.push(MachineCfg {
        site: 1,
        cores: 1,
        speed: 1.0,
    }); // UCI
    machines.push(MachineCfg {
        site: 2,
        cores: 1,
        speed: 1.0,
    }); // ICU
    preset(
        Topology::new(sites, machines, latency, INTRA_SITE),
        Duration::from_millis(1000),
        Duration::from_millis(2000),
    )
}

/// A symmetric "medium-delay" WAN used for the crossover study the
/// paper lists as future work (§7): three sites of 5/4/4 machines with
/// the given one-way inter-site latency.
pub fn medium_wan(one_way: Duration) -> GcsConfig {
    let sites = (0..3)
        .map(|i| SiteCfg {
            name: format!("site{i}"),
        })
        .collect();
    let latency = (0..3)
        .map(|a| {
            (0..3)
                .map(|b| if a == b { Duration::ZERO } else { one_way })
                .collect()
        })
        .collect();
    let mut machines = Vec::new();
    for (site, count) in [(0usize, 5usize), (1, 4), (2, 4)] {
        for _ in 0..count {
            machines.push(MachineCfg {
                site,
                cores: 2,
                speed: 1.0,
            });
        }
    }
    preset(
        Topology::new(sites, machines, latency, INTRA_SITE),
        Duration::from_millis(500),
        Duration::from_millis(1000),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_matches_paper_shape() {
        let cfg = lan();
        assert_eq!(cfg.topology.machine_count(), 13);
        assert_eq!(cfg.topology.site_count(), 1);
        assert_eq!(cfg.topology.machine(0).cores, 2);
    }

    #[test]
    fn wan_matches_figure_13() {
        let cfg = wan();
        assert_eq!(cfg.topology.machine_count(), 13);
        assert_eq!(cfg.topology.site_count(), 3);
        assert_eq!(cfg.topology.site_name(0), "JHU");
        assert_eq!(cfg.topology.site_name(2), "ICU");
        // RTTs: one-way x2.
        let rtt_jhu_uci = cfg.topology.site_latency(0, 1).as_millis_f64() * 2.0;
        let rtt_uci_icu = cfg.topology.site_latency(1, 2).as_millis_f64() * 2.0;
        let rtt_icu_jhu = cfg.topology.site_latency(2, 0).as_millis_f64() * 2.0;
        assert_eq!(rtt_jhu_uci, 35.0);
        assert_eq!(rtt_uci_icu, 150.0);
        assert_eq!(rtt_icu_jhu, 135.0);
        // 11 machines at JHU, 1 each elsewhere.
        let jhu = (0..13)
            .filter(|&m| cfg.topology.machine(m).site == 0)
            .count();
        assert_eq!(jhu, 11);
    }

    #[test]
    fn medium_wan_is_symmetric() {
        let cfg = medium_wan(Duration::from_millis(30));
        assert_eq!(cfg.topology.site_count(), 3);
        assert_eq!(cfg.topology.machine_count(), 13);
        assert_eq!(
            cfg.topology.site_latency(0, 2),
            cfg.topology.site_latency(2, 1)
        );
    }
}
