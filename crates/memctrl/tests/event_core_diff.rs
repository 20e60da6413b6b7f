//! Differential property tests: the event-driven scheduler core must be
//! *decision-identical* to the retained naive rescan core — identical
//! command streams (kind, bank, row, issue time), identical controller and
//! device statistics, identical completions, and identical observability
//! event streams — on random and adversarial workloads, across
//! geometries and mitigation styles.

use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation, RowId, TimePs, PS_PER_US};
use mithril_memctrl::{
    MappedAddr, McAction, McConfig, McMitigation, McStats, MemRequest, MemoryController,
    NoMcMitigation, QosConfig, QosPolicy, QosStats, ReleaseChange, RfmMode, SchedulerKind,
    ThrottleKind,
};
use mithril_obs::{Event, RingSink};
use proptest::prelude::*;

type Req = (usize, u64, u64, bool, usize, u64);

/// Deterministic ARR-issuing mitigation: refresh neighbours of every k-th
/// activation (a de-randomized PARA).
struct ArrEveryK {
    k: u64,
    seen: u64,
}

impl McMitigation for ArrEveryK {
    fn on_activate(&mut self, bank: usize, row: RowId, _thread: usize, _now: TimePs) -> McAction {
        self.seen += 1;
        if self.seen.is_multiple_of(self.k) {
            McAction::Arr {
                bank,
                victims: vec![row.saturating_sub(1), row + 1],
            }
        } else {
            McAction::None
        }
    }
    fn name(&self) -> &'static str {
        "arr-every-k"
    }
}

/// Records each bank's last ACT time — the state the throttling fixtures
/// derive their absolute releases from. It changes only inside
/// `on_activate` and only for the activated bank; a fixture whose
/// releases on that bank depend on it needs no report, because the
/// controller recomputes the activated bank anyway.
#[derive(Default)]
struct LastAct(Vec<TimePs>);

impl LastAct {
    fn record(&mut self, bank: usize, now: TimePs) {
        if bank >= self.0.len() {
            self.0.resize(bank + 1, 0);
        }
        self.0[bank] = now;
    }

    /// `delay` after the bank's last ACT; unconstrained before its first.
    fn after(&self, bank: usize, delay: TimePs) -> TimePs {
        self.0.get(bank).map_or(0, |&last| last + delay)
    }
}

/// Deterministic throttling mitigation: holds even threads' ACTs until a
/// bank-dependent delay after the bank's last ACT; odd threads are never
/// held.
#[derive(Default)]
struct DelayEvenThreads(LastAct);

impl McMitigation for DelayEvenThreads {
    fn on_activate(&mut self, bank: usize, _row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.0.record(bank, now);
        McAction::None
    }
    fn activate_allowed_at(&self, bank: usize, _row: RowId, thread: usize) -> TimePs {
        if thread.is_multiple_of(2) {
            self.0.after(bank, (bank as TimePs % 3 + 1) * 50_000)
        } else {
            0
        }
    }
    fn name(&self) -> &'static str {
        "delay-even-threads"
    }
}

/// Deterministic throttling mitigation whose releases differ per row:
/// a row's ACT is held until `(row % 8) × 20 ns` after its bank's last
/// ACT. Queued requests on one bank release at staggered times a few
/// tRRD apart, so cached activation picks are overtaken by later
/// releases between selections.
#[derive(Default)]
struct RowStaggered(LastAct);

impl McMitigation for RowStaggered {
    fn on_activate(&mut self, bank: usize, _row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.0.record(bank, now);
        McAction::None
    }
    fn activate_allowed_at(&self, bank: usize, row: RowId, _thread: usize) -> TimePs {
        self.0.after(bank, (row % 8) * 20_000)
    }
    fn name(&self) -> &'static str {
        "row-staggered"
    }
}

/// Cross-bank throttling fixture: an ACT on bank `b` holds the ACTs of
/// its sibling bank `b ^ 1` for 60 ns, and reports that sibling as the
/// one bank whose releases changed.
#[derive(Default)]
struct SiblingHold {
    acts: LastAct,
    changed: Option<usize>,
}

impl McMitigation for SiblingHold {
    fn on_activate(&mut self, bank: usize, _row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.acts.record(bank, now);
        self.changed = Some(bank ^ 1);
        McAction::None
    }
    fn activate_allowed_at(&self, bank: usize, _row: RowId, _thread: usize) -> TimePs {
        self.acts.after(bank ^ 1, 60_000)
    }
    fn take_release_change(&mut self) -> ReleaseChange {
        self.changed
            .take()
            .map_or(ReleaseChange::None, ReleaseChange::Bank)
    }
    fn name(&self) -> &'static str {
        "sibling-hold"
    }
}

fn build(
    geometry: Geometry,
    cfg: McConfig,
    mitigation: Box<dyn McMitigation>,
    kind: SchedulerKind,
) -> MemoryController<RingSink> {
    let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
        Box::new(NoMitigation)
    });
    // Large enough that these bounded workloads never wrap the ring, so
    // the drained streams are complete.
    let mut mc = MemoryController::with_obs(device, cfg, mitigation, kind, RingSink::new(1 << 18));
    mc.record_commands(true);
    mc
}

/// The controller's drained event stream (asserting the ring never
/// wrapped, so the comparison sees every event).
fn events(mc: &mut MemoryController<RingSink>) -> Vec<(u64, Event)> {
    let sink = mc.obs_mut();
    assert_eq!(sink.dropped(), 0, "ring wrapped; grow the test capacity");
    sink.take_events()
}

/// Drives two controllers through the same enqueue/advance interleaving
/// and asserts every observable output matches: completions, stats,
/// device state, command log, observability events, and QoS outcomes.
/// Returns the (agreed) controller and QoS stats so callers can assert
/// the run was not vacuous.
fn assert_controllers_agree(
    geometry: Geometry,
    mut event: MemoryController<RingSink>,
    mut naive: MemoryController<RingSink>,
    reqs: &[Req],
) -> (McStats, Option<QosStats>) {
    let nbanks = geometry.banks_total();
    let mut done_event = Vec::new();
    let mut done_naive = Vec::new();
    let mut now = 0u64;
    for (i, &(bank, row, col, is_write, thread, gap)) in reqs.iter().enumerate() {
        now += gap * PS_PER_US / 8;
        let addr = MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: bank % nbanks,
            row,
            col,
        };
        let req = if is_write {
            MemRequest::write(i as u64, addr, thread, now)
        } else {
            MemRequest::read(i as u64, addr, thread, now)
        };
        event.enqueue(req);
        naive.enqueue(req);
        // Interleave advances mid-stream (the simulator's intra-epoch
        // relaxation pattern) so candidates go stale between fences.
        if i % 16 == 15 {
            event.advance_until_into(now, &mut done_event);
            naive.advance_until_into(now, &mut done_naive);
        }
    }
    let horizon = now + 4_000 * PS_PER_US;
    event.advance_until_into(horizon, &mut done_event);
    naive.advance_until_into(horizon, &mut done_naive);

    assert_eq!(event.pending(), 0, "event core lost requests");
    assert_eq!(naive.pending(), 0, "naive core lost requests");
    assert_eq!(done_event, done_naive, "completion streams diverge");
    assert_eq!(event.stats(), naive.stats(), "controller stats diverge");
    assert_eq!(
        event.device().stats(),
        naive.device().stats(),
        "device stats diverge"
    );
    assert_eq!(
        event.device().max_disturbance(),
        naive.device().max_disturbance(),
        "oracle disturbance diverges"
    );
    let log_event = event.take_command_log();
    let log_naive = naive.take_command_log();
    assert_eq!(log_event.len(), log_naive.len(), "command counts diverge");
    for (i, (e, n)) in log_event.iter().zip(&log_naive).enumerate() {
        assert_eq!(e, n, "command {i} diverges");
    }
    let ev_event = events(&mut event);
    let ev_naive = events(&mut naive);
    assert_eq!(
        ev_event.len(),
        ev_naive.len(),
        "observability event counts diverge"
    );
    for (i, (e, n)) in ev_event.iter().zip(&ev_naive).enumerate() {
        assert_eq!(e, n, "observability event {i} diverges");
    }
    assert_eq!(event.qos_stats(), naive.qos_stats(), "QoS outcomes diverge");
    (event.stats().clone(), event.qos_stats())
}

/// Drives both scheduler cores (optionally with a QoS policy applied)
/// through the same traffic and asserts decision identity.
fn assert_cores_agree_qos(
    geometry: Geometry,
    cfg: McConfig,
    mk_mitigation: impl Fn() -> Box<dyn McMitigation>,
    qos: QosPolicy,
    reqs: &[Req],
) {
    let mut event = build(geometry, cfg, mk_mitigation(), SchedulerKind::EventQueue);
    let mut naive = build(geometry, cfg, mk_mitigation(), SchedulerKind::NaiveRescan);
    event.set_qos(qos);
    naive.set_qos(qos);
    assert_controllers_agree(geometry, event, naive, reqs);
}

/// [`assert_cores_agree_qos`] without QoS — the pre-existing contract.
fn assert_cores_agree(
    geometry: Geometry,
    cfg: McConfig,
    mk_mitigation: impl Fn() -> Box<dyn McMitigation>,
    reqs: &[Req],
) {
    let event = build(geometry, cfg, mk_mitigation(), SchedulerKind::EventQueue);
    let naive = build(geometry, cfg, mk_mitigation(), SchedulerKind::NaiveRescan);
    assert_controllers_agree(geometry, event, naive, reqs);
}

/// An aggressive QoS tuning for the differential tests: short windows,
/// tiny token budget, low election bar — maximizes rotations, suspect
/// churn and window-boundary deferrals per request batch.
fn aggressive_qos() -> QosPolicy {
    QosPolicy::Throttle(QosConfig {
        kind: ThrottleKind::TokenBucket,
        window_ps: 300_000,
        share_pct: 30,
        min_score: 8,
        tokens_per_window: 2,
    })
}

/// Arbitrary request batches: (bank, row, col, is_write, thread, gap).
fn batches(max_len: usize) -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec(
        (
            0usize..64,
            0u64..256,
            0u64..64,
            any::<bool>(),
            0usize..8,
            0u64..6,
        ),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Default geometry (1 rank x 32 banks), standard RFM, BLISS on.
    #[test]
    fn random_traffic_matches(reqs in batches(160)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 8,
            ..Default::default()
        };
        assert_cores_agree(
            Geometry::default(),
            cfg,
            || Box::new(NoMcMitigation),
            &reqs,
        );
    }

    /// Two ranks (staggered REF, per-rank tRRD/tFAW), Mithril+ MRR
    /// elision, BLISS off (pure FR-FCFS).
    #[test]
    fn two_rank_mrr_elision_matches(reqs in batches(120)) {
        let geometry = Geometry {
            ranks: 2,
            ..Geometry::default()
        };
        let cfg = McConfig {
            rfm_mode: RfmMode::MrrElision,
            rfm_th: 6,
            bliss: None,
            ..Default::default()
        };
        assert_cores_agree(geometry, cfg, || Box::new(NoMcMitigation), &reqs);
    }

    /// MC-side ARR mitigation injecting maintenance mid-stream.
    #[test]
    fn arr_mitigation_matches(reqs in batches(120), k in 2u64..6) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::new(ArrEveryK { k, seen: 0 }),
            &reqs,
        );
    }

    /// Throttling mitigation: the event core caches throttled
    /// activation picks and must still match the naive core exactly.
    #[test]
    fn throttling_mitigation_matches(reqs in batches(100)) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::<DelayEvenThreads>::default(),
            &reqs,
        );
    }

    /// Per-row releases: a bank's queued requests release at different
    /// times, so the selection-time clamps overtake a cached pick's next
    /// release and the lane is re-picked at selection.
    #[test]
    fn per_row_releases_match(reqs in batches(120)) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::<RowStaggered>::default(),
            &reqs,
        );
    }

    /// QoS token-bucket throttling on, with RFM pressure feeding the
    /// suspect scorer: both cores must elect the same suspects, defer
    /// the same ACTs to the same window boundaries, and agree on every
    /// downstream decision.
    #[test]
    fn qos_throttling_matches(reqs in batches(120)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 4,
            ..Default::default()
        };
        assert_cores_agree_qos(
            Geometry::default(),
            cfg,
            || Box::new(NoMcMitigation),
            aggressive_qos(),
            &reqs,
        );
    }

    /// Cross-bank releases: each ACT moves its sibling bank's releases
    /// and reports exactly that bank.
    #[test]
    fn sibling_bank_releases_match(reqs in batches(120)) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::<SiblingHold>::default(),
            &reqs,
        );
    }

    /// A one-token bucket with long windows and BLISS off: every ACT a
    /// suspect issues runs it dry, and no blacklist change or window
    /// rotation refreshes the other banks' cached picks for it, so only
    /// the bucket's own release-change report keeps the cores in step.
    #[test]
    fn qos_one_token_matches(reqs in batches(120)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 4,
            bliss: None,
            ..Default::default()
        };
        let qos = QosConfig {
            kind: ThrottleKind::TokenBucket,
            window_ps: 2_000_000,
            share_pct: 30,
            min_score: 8,
            tokens_per_window: 1,
        };
        assert_cores_agree_qos(
            Geometry::default(),
            cfg,
            || Box::new(NoMcMitigation),
            QosPolicy::Throttle(qos),
            &reqs,
        );
    }

    /// QoS layered on top of an ARR mitigation: both pressure sources
    /// (RFM arming and MC-mitigation triggers) feed the scorer.
    #[test]
    fn qos_over_arr_mitigation_matches(reqs in batches(100), k in 2u64..6) {
        assert_cores_agree_qos(
            Geometry::default(),
            McConfig::default(),
            || Box::new(ArrEveryK { k, seen: 0 }),
            aggressive_qos(),
            &reqs,
        );
    }

    /// `QosPolicy::Off` must be entry-by-entry identical to a controller
    /// that never saw the QoS subsystem at all — the command-log half of
    /// the `BENCH_sweep.json` byte-identity contract.
    #[test]
    fn qos_off_is_identical_to_no_qos(reqs in batches(120)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 8,
            ..Default::default()
        };
        let untouched = build(
            Geometry::default(),
            cfg,
            Box::new(NoMcMitigation),
            SchedulerKind::EventQueue,
        );
        let mut off = build(
            Geometry::default(),
            cfg,
            Box::new(NoMcMitigation),
            SchedulerKind::EventQueue,
        );
        off.set_qos(QosPolicy::Off);
        assert_controllers_agree(Geometry::default(), untouched, off, &reqs);
    }
}

/// The adversarial hammer under QoS throttling: the differential holds
/// on the Table III channel while the hammer is actually being deferred
/// (the stats assert throttling really happened, so this is not a
/// vacuous agreement).
#[test]
fn adversarial_hammer_matches_under_qos() {
    let geometry = Geometry::table_iii_system().channel_view();
    let mut reqs = Vec::new();
    for i in 0..400u64 {
        let row = if i.is_multiple_of(2) { 100 } else { 102 };
        reqs.push((0usize, row, i % 4, false, 0usize, 0u64));
        if i % 5 == 0 {
            reqs.push((0usize, 101, 0, false, 1usize, 0u64));
        }
    }
    let cfg = McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 8,
        ..Default::default()
    };
    let mut event = build(
        geometry,
        cfg,
        Box::new(NoMcMitigation),
        SchedulerKind::EventQueue,
    );
    let mut naive = build(
        geometry,
        cfg,
        Box::new(NoMcMitigation),
        SchedulerKind::NaiveRescan,
    );
    event.set_qos(aggressive_qos());
    naive.set_qos(aggressive_qos());
    let qos = assert_controllers_agree(geometry, event, naive, &reqs)
        .1
        .expect("QoS-on run reports stats");
    assert!(qos.windows > 0, "windows must rotate over this horizon");
    assert!(
        qos.throttled_acts > 0,
        "the hammer must actually be deferred (vacuous agreement otherwise)"
    );
}

/// Adversarial double-sided hammer plus a conflicting victim stream on the
/// per-channel view of the paper's 2-channel Table III system: long
/// same-bank runs maximize row-hit/precharge churn and RFM pressure.
#[test]
fn adversarial_hammer_matches_table_iii_channel() {
    let geometry = Geometry::table_iii_system().channel_view();
    let mut reqs = Vec::new();
    for i in 0..400u64 {
        let row = if i.is_multiple_of(2) { 100 } else { 102 }; // double-sided pair
        reqs.push((0usize, row, i % 4, false, 0usize, 0u64));
        if i % 5 == 0 {
            // Victim-row reads on the same bank, different row: forces
            // precharge/activate conflicts against the hammer stream.
            reqs.push((0usize, 101, 0, false, 1usize, 0u64));
        }
        if i % 7 == 0 {
            // Background traffic on a sibling bank of the same rank
            // (tRRD/tFAW interaction with the rank-floor clamp).
            reqs.push((1usize, i % 64, 0, i % 3 == 0, 2usize, 1u64));
        }
    }
    let cfg = McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 16,
        ..Default::default()
    };
    assert_cores_agree(geometry, cfg, || Box::new(NoMcMitigation), &reqs);
}

/// Empty-queue idle advance: both cores issue exactly the same refresh
/// schedule with no demand traffic.
#[test]
fn idle_refresh_schedule_matches() {
    let geometry = Geometry {
        ranks: 2,
        ..Geometry::default()
    };
    assert_cores_agree(
        geometry,
        McConfig::default(),
        || Box::new(NoMcMitigation),
        &[],
    );
}

/// The throttling fixtures are not vacuous: on a fixed hammer-plus-victim
/// stream both cores agree while each fixture defers some ACTs and not
/// others (and `DelayEvenThreads` never defers an odd thread).
#[test]
fn throttling_fixtures_defer_some_acts_and_not_others() {
    let geometry = Geometry::default();
    let mut reqs = Vec::new();
    for i in 0..200u64 {
        reqs.push(((i % 3) as usize, i % 16, 0, false, (i % 4) as usize, i % 2));
    }
    let fixtures: [fn() -> Box<dyn McMitigation>; 3] = [
        || Box::<DelayEvenThreads>::default(),
        || Box::<RowStaggered>::default(),
        || Box::<SiblingHold>::default(),
    ];
    for (f, mk) in fixtures.iter().enumerate() {
        let event = build(
            geometry,
            McConfig::default(),
            mk(),
            SchedulerKind::EventQueue,
        );
        let naive = build(
            geometry,
            McConfig::default(),
            mk(),
            SchedulerKind::NaiveRescan,
        );
        let (stats, _) = assert_controllers_agree(geometry, event, naive, &reqs);
        assert!(stats.throttled_acts > 0, "fixture {f} deferred nothing");
        assert!(
            stats.throttled_acts < stats.acts,
            "fixture {f} deferred every ACT"
        );
        if f == 0 {
            for (thread, core) in stats.per_core.iter() {
                if thread % 2 == 1 {
                    assert_eq!(core.throttled_acts, 0, "odd thread {thread} deferred");
                }
            }
        }
    }
}
