//! The traced run: a workload's simulated work decomposed into stages,
//! each timed around calls into one layer's public API from this file.
//! Nothing inside the program is instrumented.
//!
//! Per simulated system (a "case") the stages are:
//!
//! | stage | layer | what is timed |
//! |---|---|---|
//! | A | `workloads` | `Thread::next_op` until each thread's budget |
//! | B | `sim` (LLC) | `Llc::access`/`fill` over A's op stream, fills immediate |
//! | C | `sim` | core model + LLC over A's ops, memory stubbed at a fixed latency |
//! | D | `memctrl` | bare controllers fed C's arrival-stamped requests, batch by batch |
//! | E | `core` | `MithrilScheme` replaying D's ACT/RFM command log |
//! | F | `obs` | `System::with_obs` run + `take_obs` + rendering, vs `System::new` |
//! | G | `runner` | the workload's scenarios on `engine::run_sharded_robust` |
//!
//! A, C and D together stand for the simulation loop (B is inside C, E is
//! inside D); `bench.stage_sum_over_wall` compares their sum with the
//! end-to-end wall time of the same systems.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use mithril::fasthash::FastHashMap;
use mithril::{MithrilConfig, MithrilScheme};
use mithril_dram::{DramDevice, DramMitigation, RfmOutcome, TimePs};
use mithril_memctrl::{
    CommandKind, CommandRecord, McConfig, MemRequest, MemoryController, NoMcMitigation, RfmMode,
};
use mithril_runner::engine::{run_sharded_robust, DEFAULT_RETRIES};
use mithril_runner::report::{metrics_json, sweep_json, SweepResult};
use mithril_runner::scenarios::{self, Scenario, SweepSpec};
use mithril_sim::{
    geomean, LatencyHistogram, Llc, LlcAccess, Metrics, ObsConfig, QosConfig, QosPolicy, Scheme,
    System, SystemConfig,
};
use mithril_workloads::TraceOp;

use crate::stats::fnv1a64;
use crate::{
    check_sweep, render_obs, repeat, sweep_pool, Checks, Metric, Single, Workload,
    SWEEP_CAP_PS_PER_INST,
};

/// Traced iterations a run makes at least, so the repetition digest
/// check always has two repetitions to compare.
const MIN_ITERS: usize = 2;

/// One simulated system the stages decompose.
struct Case {
    cfg: SystemConfig,
    /// Registry workload name.
    mix: String,
    /// Workload seed (the engine's item seed for sweep scenarios).
    seed: u64,
    insts_per_core: u64,
    max_time: TimePs,
}

impl Case {
    fn threads(&self) -> mithril_workloads::ThreadSet {
        scenarios::workload(&self.mix, self.cfg.cores, &self.cfg, self.seed)
    }
}

/// Host times of one case's stages, in seconds, and the counts they
/// processed.
#[derive(Debug, Default, Clone, Copy)]
struct StageTimes {
    gen_s: f64,
    ops: u64,
    insts: u64,
    llc_s: f64,
    llc_accesses: u64,
    llc_misses: u64,
    core_llc_s: f64,
    core_insts: u64,
    requests: u64,
    mc_s: f64,
    mc_cmds: u64,
    mc_acts: u64,
    mc_flipped_s: f64,
    mc_flipped_cmds: u64,
    /// `true` when the case's own run has QoS on (so the flipped run is
    /// QoS off).
    qos_on: bool,
    engine_s: f64,
    engine_acts: u64,
    engine_rfms: u64,
    plain_s: f64,
    obs_run_s: f64,
    render_s: f64,
    events: u64,
    e2e_acts: u64,
}

impl StageTimes {
    fn add(&mut self, o: &StageTimes) {
        self.gen_s += o.gen_s;
        self.ops += o.ops;
        self.insts += o.insts;
        self.llc_s += o.llc_s;
        self.llc_accesses += o.llc_accesses;
        self.llc_misses += o.llc_misses;
        self.core_llc_s += o.core_llc_s;
        self.core_insts += o.core_insts;
        self.requests += o.requests;
        self.mc_s += o.mc_s;
        self.mc_cmds += o.mc_cmds;
        self.mc_acts += o.mc_acts;
        self.mc_flipped_s += o.mc_flipped_s;
        self.mc_flipped_cmds += o.mc_flipped_cmds;
        self.engine_s += o.engine_s;
        self.engine_acts += o.engine_acts;
        self.engine_rfms += o.engine_rfms;
        self.plain_s += o.plain_s;
        self.obs_run_s += o.obs_run_s;
        self.render_s += o.render_s;
        self.events += o.events;
        self.e2e_acts += o.e2e_acts;
    }

    fn llc_miss_rate(&self) -> f64 {
        self.llc_misses as f64 / self.llc_accesses as f64
    }

    /// Host ns per controller command with QoS on, minus QoS off, on the
    /// same request stream.
    fn throttle_ns_per_cmd(&self) -> f64 {
        let own = self.mc_s / self.mc_cmds as f64;
        let flipped = self.mc_flipped_s / self.mc_flipped_cmds as f64;
        let (on, off) = if self.qos_on {
            (own, flipped)
        } else {
            (flipped, own)
        };
        (on - off) * 1e9
    }
}

/// Stage A: each thread's op stream, generated up to its budget.
fn stage_workloads(case: &Case, t: &mut StageTimes) -> Vec<Vec<TraceOp>> {
    let mut threads = case.threads();
    let t0 = Instant::now();
    let streams: Vec<Vec<TraceOp>> = threads
        .threads
        .iter_mut()
        .map(|th| {
            let mut ops = Vec::new();
            let mut insts = 0;
            while insts < case.insts_per_core {
                let op = th.next_op();
                insts += op.instructions();
                ops.push(op);
            }
            ops
        })
        .collect();
    t.gen_s = t0.elapsed().as_secs_f64();
    t.ops = streams.iter().map(|s| s.len() as u64).sum();
    t.insts = streams.iter().flatten().map(TraceOp::instructions).sum();
    streams
}

/// Stage B: the shared LLC alone, threads interleaved one op at a time,
/// every miss filled at once.
fn stage_llc(case: &Case, streams: &[Vec<TraceOp>], t: &mut StageTimes) {
    let mut llc = Llc::new(case.cfg.llc);
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut accesses = 0u64;
    let t0 = Instant::now();
    for i in 0..longest {
        for ops in streams {
            let Some(op) = ops.get(i) else { continue };
            if op.uncacheable {
                continue;
            }
            accesses += 1;
            if llc.access(op.line_addr, op.is_write) == LlcAccess::Miss {
                std::hint::black_box(llc.fill(op.line_addr));
            }
        }
    }
    t.llc_s = t0.elapsed().as_secs_f64();
    t.llc_accesses = accesses;
    t.llc_misses = llc.counters().1;
}

/// The requests one epoch-relaxation round hands the controllers before
/// advancing them to `fence`, as `System::run` does.
struct Batch {
    fence: TimePs,
    reqs: Vec<MemRequest>,
}

/// A stubbed memory completion: (time, request id, line, thread,
/// uncacheable).
type Pending = Reverse<(TimePs, u64, u64, usize, bool)>;

/// Core state as `mithril_sim`'s trace-driven core keeps it.
#[derive(Default, Clone, Copy)]
struct Core {
    clock: TimePs,
    insts: u64,
    outstanding: usize,
    blocked: bool,
}

/// Stage C: the core model and LLC of `System::run`, with the memory
/// controllers replaced by a fixed latency `stub_ps`. Returns the
/// arrival-stamped requests in the batches the real loop would enqueue.
fn stage_core_llc(
    case: &Case,
    streams: &[Vec<TraceOp>],
    stub_ps: TimePs,
    t: &mut StageTimes,
) -> Vec<Batch> {
    let cfg = &case.cfg;
    let p = cfg.core;
    let mapping = cfg.mapping();
    let t0 = Instant::now();
    let mut llc = Llc::new(cfg.llc);
    let mut cores = vec![Core::default(); streams.len()];
    let mut pos = vec![0usize; streams.len()];
    let mut pending: BinaryHeap<Pending> = BinaryHeap::new();
    let mut waiters: FastHashMap<u64, Vec<usize>> = FastHashMap::default();
    let mut batches = Vec::new();
    let mut reqs = Vec::new();
    let mut next_id = 0u64;
    let done = |c: &Core| c.insts >= case.insts_per_core;
    let deliver = |c: &mut Core, at: TimePs| {
        c.outstanding -= 1;
        if c.blocked {
            c.blocked = false;
            c.clock = c.clock.max(at);
        }
    };
    let mut fence = cfg.epoch_ps;
    loop {
        loop {
            let mut issued = false;
            for (th, core) in cores.iter_mut().enumerate() {
                while !core.blocked && !done(core) && core.clock < fence {
                    let op = streams[th][pos[th]];
                    pos[th] += 1;
                    issued = true;
                    let cycles = (op.non_mem_insts / p.width).max(1) as TimePs;
                    core.clock += cycles * p.period_ps;
                    core.insts += op.instructions();
                    let access = if op.uncacheable {
                        LlcAccess::Miss
                    } else {
                        llc.access(op.line_addr, op.is_write)
                    };
                    if access == LlcAccess::Hit {
                        core.clock += p.llc_hit_ps;
                        continue;
                    }
                    if access == LlcAccess::Miss {
                        let addr = mapping.map_line(op.line_addr);
                        reqs.push(MemRequest::read(next_id, addr, th, core.clock));
                        pending.push(Reverse((
                            core.clock + stub_ps,
                            next_id,
                            op.line_addr,
                            th,
                            op.uncacheable,
                        )));
                        next_id += 1;
                    }
                    if !op.uncacheable {
                        waiters.entry(op.line_addr).or_default().push(th);
                    }
                    core.outstanding += 1;
                    core.blocked = core.outstanding >= p.mlp;
                }
            }
            batches.push(Batch {
                fence,
                reqs: std::mem::take(&mut reqs),
            });
            let mut delivered = false;
            while let Some(&Reverse((at, _, line, th, uncacheable))) = pending.peek() {
                if at > fence {
                    break;
                }
                pending.pop();
                delivered = true;
                if uncacheable {
                    deliver(&mut cores[th], at);
                    continue;
                }
                if let Some(victim) = llc.fill(line) {
                    reqs.push(MemRequest::write(next_id, mapping.map_line(victim), th, at));
                    next_id += 1;
                }
                for w in waiters.remove(&line).unwrap_or_default() {
                    deliver(&mut cores[w], at);
                }
            }
            if !issued && !delivered {
                break;
            }
        }
        if cores.iter().all(done) || fence >= case.max_time {
            break;
        }
        fence += cfg.epoch_ps;
    }
    t.core_llc_s = t0.elapsed().as_secs_f64();
    t.core_insts = cores.iter().map(|c| c.insts).sum();
    t.requests = next_id;
    batches
}

/// The Mithril configuration `System` solves for `cfg`.
fn mithril_config(cfg: &SystemConfig) -> Result<(MithrilConfig, RfmMode), String> {
    let Scheme::Mithril {
        rfm_th,
        ad_th,
        plus,
    } = cfg.scheme
    else {
        return Err(format!(
            "staged cases need a Mithril scheme, not {}",
            cfg.scheme.name()
        ));
    };
    let rows = cfg.geometry.channel_view().rows_per_bank;
    let m = MithrilConfig::solve(cfg.flip_th, rfm_th, cfg.blast_radius, ad_th, &cfg.timing)
        .map_err(|e| e.to_string())?
        .with_rows_per_bank(rows);
    let mode = if plus {
        RfmMode::MrrElision
    } else {
        RfmMode::Standard
    };
    Ok((m, mode))
}

/// One bare controller per channel, built as `System` builds them for a
/// Mithril scheme, with command recording on.
fn controllers(cfg: &SystemConfig, qos: QosPolicy) -> Result<Vec<MemoryController>, String> {
    let (mcfg, rfm_mode) = mithril_config(cfg)?;
    let geometry = cfg.geometry.channel_view();
    Ok((0..cfg.geometry.channels)
        .map(|_| {
            let device =
                DramDevice::new(geometry, cfg.timing, cfg.flip_th, cfg.blast_radius, |_| {
                    Box::new(MithrilScheme::new(mcfg))
                });
            let mc_cfg = McConfig {
                rfm_mode,
                rfm_th: mcfg.rfm_th,
                ..Default::default()
            };
            let mut mc = MemoryController::with_scheduler(
                device,
                mc_cfg,
                Box::new(NoMcMitigation),
                cfg.scheduler,
            );
            mc.set_qos(qos);
            mc.record_commands(true);
            mc
        })
        .collect())
}

/// Stage D: feeds the batches to bare controllers; returns the host
/// seconds and the per-channel command logs.
fn stage_memctrl(
    cfg: &SystemConfig,
    qos: QosPolicy,
    batches: &[Batch],
) -> Result<(f64, Vec<Vec<CommandRecord>>), String> {
    let mut mcs = controllers(cfg, qos)?;
    let mut done = Vec::new();
    let t0 = Instant::now();
    for b in batches {
        for r in &b.reqs {
            mcs[r.addr.channel.0].enqueue(*r);
        }
        for mc in &mut mcs {
            done.clear();
            mc.advance_until_into(b.fence, &mut done);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        secs,
        mcs.iter_mut()
            .map(MemoryController::take_command_log)
            .collect(),
    ))
}

/// Stage E: one fresh `MithrilScheme` per bank replays each channel's
/// ACTs and RFMs.
fn stage_engine(
    cfg: &SystemConfig,
    logs: &[Vec<CommandRecord>],
    t: &mut StageTimes,
) -> Result<(), String> {
    let (mcfg, _) = mithril_config(cfg)?;
    let banks = cfg.geometry.channel_view().banks_total();
    let mut engines: Vec<Vec<MithrilScheme>> = logs
        .iter()
        .map(|_| (0..banks).map(|_| MithrilScheme::new(mcfg)).collect())
        .collect();
    let mut out = RfmOutcome::default();
    let (mut acts, mut rfms) = (0, 0);
    let t0 = Instant::now();
    for (log, engines) in logs.iter().zip(&mut engines) {
        for c in log {
            match c.kind {
                CommandKind::Act => {
                    engines[c.bank].on_activate(c.row);
                    acts += 1;
                }
                CommandKind::Rfm => {
                    engines[c.bank].on_rfm_into(&mut out);
                    std::hint::black_box(&out);
                    rfms += 1;
                }
                _ => {}
            }
        }
    }
    t.engine_s = t0.elapsed().as_secs_f64();
    t.engine_acts = acts;
    t.engine_rfms = rfms;
    Ok(())
}

/// Stage F: the system run without and then with observability; the
/// metrics must be identical. Returns the unobserved run's metrics (the
/// case's end-to-end metrics) and the rendered capture.
fn stage_obs(
    case: &Case,
    t: &mut StageTimes,
    checks: &mut Checks,
) -> Result<(Metrics, String), String> {
    let mut sys = System::new(case.cfg, case.threads())?;
    let t0 = Instant::now();
    let plain = sys.run(case.insts_per_core, case.max_time);
    t.plain_s = t0.elapsed().as_secs_f64();
    let mut sys = System::with_obs(case.cfg, case.threads(), ObsConfig::default())?;
    let t0 = Instant::now();
    let m = sys.run(case.insts_per_core, case.max_time);
    t.obs_run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (rendered, counts) = render_obs(&mut sys);
    t.render_s = t1.elapsed().as_secs_f64();
    t.events = counts.iter().sum();
    if metrics_json(&m) != metrics_json(&plain) {
        checks.fail(format!(
            "{}: metrics with obs on differ from obs off",
            case.mix
        ));
    }
    Ok((plain, rendered))
}

/// Runs stages F and A–E on one case. Returns the stage times, the
/// case's end-to-end metrics and its rendered observability capture.
fn decompose(case: &Case, checks: &mut Checks) -> Result<(StageTimes, Metrics, String), String> {
    let mut t = StageTimes {
        qos_on: case.cfg.qos != QosPolicy::Off,
        ..Default::default()
    };
    let (e2e, rendered) = stage_obs(case, &mut t, checks)?;
    t.e2e_acts = e2e.counters.acts;
    let streams = stage_workloads(case, &mut t);
    stage_llc(case, &streams, &mut t);
    let stub_ps = e2e.read_latency.p50().max(1);
    let batches = stage_core_llc(case, &streams, stub_ps, &mut t);
    let (mc_s, logs) = stage_memctrl(&case.cfg, case.cfg.qos, &batches)?;
    t.mc_s = mc_s;
    t.mc_cmds = logs.iter().map(|l| l.len() as u64).sum();
    t.mc_acts = logs
        .iter()
        .flatten()
        .filter(|c| c.kind == CommandKind::Act)
        .count() as u64;
    let flipped = if t.qos_on {
        QosPolicy::Off
    } else {
        QosPolicy::Throttle(QosConfig::default())
    };
    let (flipped_s, flipped_logs) = stage_memctrl(&case.cfg, flipped, &batches)?;
    t.mc_flipped_s = flipped_s;
    t.mc_flipped_cmds = flipped_logs.iter().map(|l| l.len() as u64).sum();
    stage_engine(&case.cfg, &logs, &mut t)?;
    Ok((t, e2e, rendered))
}

/// Stage G: `run` over `items` on the shard pool, timed per scenario.
/// Returns the results (with the seed each ran under), the pool's wall
/// time and each scenario's busy time.
fn stage_runner(
    items: &[Scenario],
    base_seed: u64,
    run: impl Fn(&Scenario, u64) -> (u64, Result<Metrics, String>) + Sync,
) -> (Vec<SweepResult>, f64, Vec<f64>) {
    let t0 = Instant::now();
    let outcomes = run_sharded_robust(
        items,
        sweep_pool(),
        base_seed,
        DEFAULT_RETRIES,
        |s, seed| {
            let t = Instant::now();
            let (seed, outcome) = run(s, seed);
            (seed, outcome, t.elapsed().as_secs_f64())
        },
    );
    let pool_s = t0.elapsed().as_secs_f64();
    let mut busy = Vec::new();
    let results = items
        .iter()
        .zip(outcomes)
        .map(|(s, o)| {
            let (seed, outcome) = match o.into_result() {
                Ok((seed, outcome, secs)) => {
                    busy.push(secs);
                    (seed, outcome)
                }
                Err(e) => (base_seed, Err(e)),
            };
            SweepResult {
                scenario: s.clone(),
                seed,
                outcome,
            }
        })
        .collect();
    (results, pool_s, busy)
}

/// Per-layer numbers of one traced iteration.
struct Iteration {
    stages: StageTimes,
    pool_efficiency: f64,
    scenario_p50_s: f64,
    scenario_p90_s: f64,
    share_blockhammer: f64,
    report_s: f64,
    /// Model outputs of the whole workload.
    model: Model,
    /// Model outputs of the staged cases alone (the whole workload
    /// except on `sweep-full`).
    staged_model: Model,
}

/// Exact model outputs (simulated time and counts).
struct Model {
    ipc: f64,
    read: LatencyHistogram,
    throttled_acts: u64,
    acts: u64,
    rfms: u64,
    flips: u64,
    insts: u64,
    requests: u64,
    llc_miss_rate: f64,
}

impl Model {
    fn of(ms: &[&Metrics]) -> Self {
        let mut read = LatencyHistogram::new();
        for m in ms {
            read.merge(&m.read_latency);
        }
        Self {
            ipc: geomean(&ms.iter().map(|m| m.aggregate_ipc).collect::<Vec<_>>()),
            read,
            throttled_acts: ms.iter().map(|m| m.throttled_acts).sum(),
            acts: ms.iter().map(|m| m.counters.acts).sum(),
            rfms: ms.iter().map(|m| m.rfms).sum(),
            flips: ms.iter().map(|m| m.flips as u64).sum(),
            insts: ms.iter().map(|m| m.total_insts).sum(),
            requests: ms
                .iter()
                .map(|m| m.counters.reads + m.counters.writes)
                .sum(),
            llc_miss_rate: ms.iter().map(|m| m.llc_miss_rate).sum::<f64>() / ms.len() as f64,
        }
    }
}

/// A single-system workload as a one-scenario runner job.
fn single_scenario(w: Single, cfg: &SystemConfig) -> Scenario {
    Scenario {
        name: format!("mithril/{}/table-iii", w.mix),
        scheme_label: "mithril".into(),
        scheme: cfg.scheme,
        workload: w.mix.into(),
        geometry: cfg.geometry,
        flip_th: cfg.flip_th,
        cores: cfg.cores,
        insts_per_core: w.insts_per_core,
        faults: None,
        qos: cfg.qos,
    }
}

fn iterate_single(w: Single, seed: u64, checks: &mut Checks) -> Result<Iteration, String> {
    let cfg = w.config(seed);
    let case = Case {
        cfg,
        mix: w.mix.into(),
        seed,
        insts_per_core: w.insts_per_core,
        max_time: u64::MAX,
    };
    let (stages, e2e, rendered) = decompose(&case, checks)?;
    checks.attempt();
    checks.check_metrics("run", cfg.scheme, &e2e, cfg.cores, w.insts_per_core, None);
    let mut digest = metrics_json(&e2e);
    if w.obs {
        digest.push_str(&rendered);
    }
    checks.same_digest("run", fnv1a64(digest.as_bytes()));

    let items = [single_scenario(w, &cfg)];
    // The engine runs the workload's own system (uncapped, workload seed),
    // so its result must equal the direct run's.
    let (results, pool_s, busy) = stage_runner(&items, seed, |_, _| {
        let run =
            System::new(cfg, case.threads()).map(|mut sys| sys.run(w.insts_per_core, u64::MAX));
        (seed, run)
    });
    let t1 = Instant::now();
    std::hint::black_box(sweep_json(seed, &results));
    let report_s = t1.elapsed().as_secs_f64();
    for r in &results {
        match &r.outcome {
            Ok(m) if metrics_json(m) == metrics_json(&e2e) => {}
            Ok(_) => checks.fail("runner: scenario metrics differ from the direct run".into()),
            Err(e) => checks.fail(format!("runner: {e}")),
        }
    }
    Ok(Iteration {
        stages,
        pool_efficiency: busy.iter().sum::<f64>() / (sweep_pool().threads as f64 * pool_s),
        scenario_p50_s: percentile(&busy, 50),
        scenario_p90_s: percentile(&busy, 90),
        share_blockhammer: 0.0,
        report_s,
        model: Model::of(&[&e2e]),
        staged_model: Model::of(&[&e2e]),
    })
}

/// One traced iteration of `sweep-full`; `first` re-runs the scenarios
/// that stopped short (see `verify_cut`).
fn iterate_sweep(seed: u64, first: bool, checks: &mut Checks) -> Result<Iteration, String> {
    let items = SweepSpec::full().scenarios();
    let (results, pool_s, busy) = stage_runner(&items, seed, |s, seed| (seed, s.run(seed)));
    let t0 = Instant::now();
    let report = sweep_json(seed, &results);
    let report_s = t0.elapsed().as_secs_f64();
    check_sweep(&results, first, checks);
    checks.same_digest("sweep", fnv1a64(report.as_bytes()));

    let total: f64 = busy.iter().sum();
    let bh: f64 = results
        .iter()
        .zip(&busy)
        .filter(|(r, _)| matches!(r.scenario.scheme, Scheme::BlockHammer { .. }))
        .map(|(_, s)| s)
        .sum();
    // Stages A–F run on the sweep's Mithril scenarios at the Table III
    // geometry: one per workload class of the sweep.
    let table_iii = SystemConfig::table_iii().geometry;
    let mut stages = StageTimes::default();
    let mut staged = Vec::new();
    for r in &results {
        if r.scenario.scheme_label != "mithril" || r.scenario.geometry != table_iii {
            continue;
        }
        let Ok(m) = &r.outcome else { continue };
        let case = Case {
            cfg: r.scenario.system_config(r.seed),
            mix: r.scenario.workload.clone(),
            seed: r.seed,
            insts_per_core: r.scenario.insts_per_core,
            max_time: r.scenario.insts_per_core * SWEEP_CAP_PS_PER_INST,
        };
        let (t, direct, _) = decompose(&case, checks)?;
        if metrics_json(&direct) != metrics_json(m) {
            checks.fail(format!(
                "{}: direct run differs from the sweep's",
                r.scenario.name
            ));
        }
        stages.add(&t);
        staged.push(m);
    }
    let ok: Vec<&Metrics> = results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    Ok(Iteration {
        stages,
        pool_efficiency: total / (sweep_pool().threads as f64 * pool_s),
        scenario_p50_s: percentile(&busy, 50),
        scenario_p90_s: percentile(&busy, 90),
        share_blockhammer: bh / total,
        report_s,
        model: Model::of(&ok),
        staged_model: Model::of(&staged),
    })
}

/// Nearest-rank percentile of `xs` (0 for no samples).
fn percentile(xs: &[f64], pct: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (pct * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// The traced run: iterates the staged decomposition until `seconds`
/// have passed (at least [`MIN_ITERS`] times) and reports every
/// per-layer metric as the median over iterations.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let iters = repeat(seconds, MIN_ITERS, checks, |first, checks| {
        match w.single() {
            Some(single) => iterate_single(single, seed, checks),
            None => iterate_sweep(seed, first, checks),
        }
    })?;
    print_work_counts(&iters[0]);

    let host = |name, unit, f: &dyn Fn(&Iteration) -> f64| {
        Metric::new(name, unit, "host", iters.iter().map(f).collect())
    };
    let st = |f: fn(&StageTimes) -> f64| move |i: &Iteration| f(&i.stages);
    // Counts and model outputs are exact: one sample says it all.
    let sim = |name, unit, v: f64| Metric::new(name, unit, "sim", vec![v]);
    let (s, m) = (&iters[0].stages, &iters[0].model);
    let metrics = vec![
        host(
            "workloads.ns_per_op",
            "ns",
            &st(|s| s.gen_s * 1e9 / s.ops as f64),
        ),
        host(
            "sim.llc.ns_per_access",
            "ns",
            &st(|s| s.llc_s * 1e9 / s.llc_accesses as f64),
        ),
        sim("sim.llc.miss_rate", "ratio", s.llc_miss_rate()),
        host(
            "sim.ns_per_inst",
            "ns",
            &st(|s| s.core_llc_s * 1e9 / s.core_insts as f64),
        ),
        host(
            "memctrl.ns_per_cmd",
            "ns",
            &st(|s| s.mc_s * 1e9 / s.mc_cmds as f64),
        ),
        sim(
            "memctrl.cmds_per_act",
            "ratio",
            s.mc_cmds as f64 / s.mc_acts as f64,
        ),
        sim("memctrl.requests", "count", s.requests as f64),
        host(
            "memctrl.throttle_ns_per_cmd",
            "ns",
            &st(StageTimes::throttle_ns_per_cmd),
        ),
        host(
            "core.ns_per_act",
            "ns",
            &st(|s| s.engine_s * 1e9 / s.engine_acts as f64),
        ),
        host(
            "obs.ns_per_act",
            "ns",
            &st(|s| (s.obs_run_s - s.plain_s) * 1e9 / s.e2e_acts as f64),
        ),
        sim(
            "obs.events_per_act",
            "ratio",
            s.events as f64 / s.e2e_acts as f64,
        ),
        host("obs.render_s", "s", &st(|s| s.render_s)),
        host("runner.pool_efficiency", "ratio", &|i| i.pool_efficiency),
        host("runner.scenario_p50_s", "s", &|i| i.scenario_p50_s),
        host("runner.scenario_p90_s", "s", &|i| i.scenario_p90_s),
        host("runner.share.blockhammer", "ratio", &|i| {
            i.share_blockhammer
        }),
        host("runner.report_s", "s", &|i| i.report_s),
        host("bench.stage_sum_over_wall", "ratio", &|i| {
            (i.stages.gen_s + i.stages.core_llc_s + i.stages.mc_s) / i.stages.plain_s
        }),
        sim("sim.ipc", "ipc", m.ipc),
        sim("memctrl.read_p50_ps", "sim_ps", m.read.p50() as f64),
        sim("memctrl.read_p99_ps", "sim_ps", m.read.p99() as f64),
        sim("memctrl.read_min_ps", "sim_ps", m.read.min() as f64),
        sim("memctrl.throttled_acts", "count", m.throttled_acts as f64),
        sim("dram.acts", "count", m.acts as f64),
        sim("dram.rfms", "count", m.rfms as f64),
        sim("dram.flips", "count", m.flips as f64),
    ];
    Ok(metrics)
}

/// Each stage's work count beside the same count from the end-to-end
/// run, so the reader can see how closely the stages follow the loop.
fn print_work_counts(it: &Iteration) {
    let s = &it.stages;
    let m = &it.staged_model;
    println!("# work counts, staged vs end-to-end (first iteration):");
    println!(
        "#   workloads  {:>12} insts ({} ops) vs {:>12} insts",
        s.insts, s.ops, m.insts
    );
    println!(
        "#   sim.llc    miss rate {:.4} over {} accesses vs {:.4}",
        s.llc_miss_rate(),
        s.llc_accesses,
        m.llc_miss_rate
    );
    println!(
        "#   sim        {:>12} insts vs {:>12} insts",
        s.core_insts, m.insts
    );
    println!(
        "#   memctrl    {:>12} requests vs {:>12} reads+writes",
        s.requests, m.requests
    );
    println!(
        "#   memctrl    {:>12} ACTs ({} commands) vs {:>12} ACTs",
        s.mc_acts, s.mc_cmds, m.acts
    );
    println!(
        "#   core       {:>12} ACTs + {} RFMs replayed vs {:>12} ACTs + {} RFMs",
        s.engine_acts, s.engine_rfms, m.acts, m.rfms
    );
    println!(
        "#   obs        {:>12} events over {} ACTs",
        s.events, s.e2e_acts
    );
}
