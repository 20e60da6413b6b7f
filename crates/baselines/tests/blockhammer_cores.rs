//! Differential test: the real BlockHammer through both scheduler cores.
//!
//! BlockHammer is the only shipped mitigation that throttles. Its release
//! for a blacklisted row is the absolute time `last ACT + tDelay`, and its
//! blacklist changes only on an ACT to that bank or at the lazy CBF epoch
//! swap, which it reports as a change to every bank. This test pins that
//! the event core, which caches throttled activation picks under that
//! contract, issues exactly the naive core's command stream — with QoS
//! off and with QoS throttling layered on top.

use mithril_baselines::{BlockHammer, BlockHammerConfig};
use mithril_dram::{ChannelId, Ddr5Timing, DramDevice, Geometry, NoMitigation, TimePs, PS_PER_US};
use mithril_memctrl::{
    CommandKind, MappedAddr, McConfig, MemRequest, MemoryController, QosConfig, QosPolicy, RfmMode,
    SchedulerKind,
};

/// A small-NBL BlockHammer whose epoch is short enough that the test's
/// traffic crosses several CBF swaps.
fn config() -> BlockHammerConfig {
    let t = Ddr5Timing::ddr5_4800();
    BlockHammerConfig {
        cbf_counters: 256,
        cbf_hashes: 4,
        nbl: 8,
        flip_th: 1_000,
        t_cbf: 40 * PS_PER_US,
        trc: t.trc,
        t_delay: PS_PER_US / 2,
    }
}

fn build(kind: SchedulerKind, qos: QosPolicy) -> MemoryController {
    let geometry = Geometry::default();
    let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
        Box::new(NoMitigation)
    });
    let cfg = McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 8,
        ..McConfig::default()
    };
    let bh = BlockHammer::new(config(), geometry.banks_total());
    let mut mc = MemoryController::with_scheduler(device, cfg, Box::new(bh), kind);
    mc.set_qos(qos);
    mc.record_commands(true);
    mc
}

/// Thread 0 hammers two double-sided pairs (banks 0 and 5); threads 1–3
/// read pseudo-random rows on eight banks. One request every 50 ns for
/// 100 µs.
fn traffic() -> Vec<MemRequest> {
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lcg >> 33
    };
    (0..2_000u64)
        .map(|i| {
            let (bank, row, thread) = if i % 2 == 0 {
                let bank = if i % 4 == 0 { 0 } else { 5 };
                (bank, 100 + 2 * ((i / 4) % 2), 0)
            } else {
                ((next() % 8) as usize, next() % 512, 1 + (i % 3) as usize)
            };
            let addr = MappedAddr {
                channel: ChannelId(0),
                bank,
                row,
                col: i % 8,
            };
            MemRequest::read(i, addr, thread, i * 50_000)
        })
        .collect()
}

/// Runs both cores over the same traffic, asserts every output agrees and
/// returns the event core's controller for further checks.
fn run_both(qos: QosPolicy) -> MemoryController {
    let mut event = build(SchedulerKind::EventQueue, qos);
    let mut naive = build(SchedulerKind::NaiveRescan, qos);
    let (mut done_event, mut done_naive) = (Vec::new(), Vec::new());
    let reqs = traffic();
    for (i, req) in reqs.iter().enumerate() {
        event.enqueue(*req);
        naive.enqueue(*req);
        if i % 16 == 15 {
            event.advance_until_into(req.arrival, &mut done_event);
            naive.advance_until_into(req.arrival, &mut done_naive);
        }
    }
    let horizon: TimePs = reqs.last().map_or(0, |r| r.arrival) + 2_000 * PS_PER_US;
    event.advance_until_into(horizon, &mut done_event);
    naive.advance_until_into(horizon, &mut done_naive);

    assert_eq!(event.pending(), 0, "event core lost requests");
    assert_eq!(naive.pending(), 0, "naive core lost requests");
    assert_eq!(done_event, done_naive, "completion streams diverge");
    assert_eq!(event.stats(), naive.stats(), "controller stats diverge");
    assert_eq!(event.device().stats(), naive.device().stats());
    assert_eq!(event.qos_stats(), naive.qos_stats(), "QoS outcomes diverge");
    let log_event = event.take_command_log();
    let log_naive = naive.take_command_log();
    assert_eq!(log_event.len(), log_naive.len(), "command counts diverge");
    for (i, (e, n)) in log_event.iter().zip(&log_naive).enumerate() {
        assert_eq!(e, n, "command {i} diverges");
    }
    let last_act = log_event
        .iter()
        .filter(|c| c.kind == CommandKind::Act)
        .map(|c| c.at)
        .max()
        .unwrap_or(0);
    assert!(
        last_act > config().t_cbf,
        "traffic must cross CBF epoch swaps (last ACT at {last_act} ps)"
    );
    assert!(
        event.stats().throttled_acts > 0,
        "BlockHammer must actually defer ACTs (vacuous agreement otherwise)"
    );
    event
}

#[test]
fn blockhammer_cores_agree_without_qos() {
    let mc = run_both(QosPolicy::Off);
    assert!(mc.qos_stats().is_none());
}

#[test]
fn blockhammer_cores_agree_under_qos() {
    let mc = run_both(QosPolicy::Throttle(QosConfig {
        window_ps: 500_000,
        share_pct: 30,
        tokens_per_window: 2,
        ..QosConfig::default()
    }));
    let qos = mc.qos_stats().expect("QoS-on run reports stats");
    assert!(qos.windows > 0, "windows must rotate over this horizon");
    assert!(qos.throttled_acts > 0, "QoS must defer the hammer too");
}
