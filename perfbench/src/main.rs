//! Host-time benchmark of the Mithril simulator.
//!
//! One process runs one workload:
//!
//! ```text
//! mithril-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's fixed simulated work until the time
//! is up and reports the end-to-end metrics (`wall_s`, `sim_acts_per_s`,
//! `setup_s`, `peak_rss_mb`) as medians over the repetitions. `--trace 1`
//! runs the staged per-layer decomposition of [`stages`] instead. Both
//! check every repetition (see [`Checks`]) and end stdout with one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Everything is driven through the simulator crates' public APIs; the
//! program under test is not modified. `perfbench/README.md` gives the
//! workload rationale and the layer → end-to-end prediction table.

mod stages;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mithril_obs::{RingSink, KINDS};
use mithril_runner::engine::{position_seed, PoolConfig};
use mithril_runner::report::{metrics_json, sweep_json, SweepResult};
use mithril_runner::run_sweep;
use mithril_runner::scenarios::{self, SweepSpec};
use mithril_sim::{Metrics, ObsConfig, QosConfig, QosPolicy, Scheme, System, SystemConfig};

use stats::{fnv1a64, num, peak_rss_mb, quote, reset_peak_rss, Summary};

/// Seed reserved for checking a claim on data not used while the claim
/// was written: `--seed heldout`. Never use it while tuning.
const HELD_OUT_SEED: u64 = 0x5EED_0BAD_F00D;

/// Cores of every single-system workload.
const CORES: usize = 4;
/// Row Hammer threshold of every single-system workload (paper Fig. 9's
/// 6.25K column).
const FLIP_TH: u64 = 6_250;
/// Adaptive-refresh threshold, as in every scheme catalog of the runner.
const AD_TH: u64 = 200;
/// Worker threads of `sweep-full`: the host has 2 cores, and the load
/// must come from one process with at most `nproc` threads.
const SWEEP_WORKERS: usize = 2;
/// Fewest repetitions a run reports, even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;

/// The four benchmark workloads (README.md says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BenignMithril,
    NoisyNeighborQos,
    SweepFull,
    BenignMithrilObs,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::BenignMithril,
        Workload::NoisyNeighborQos,
        Workload::SweepFull,
        Workload::BenignMithrilObs,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::BenignMithril => "benign-mithril",
            Workload::NoisyNeighborQos => "noisy-neighbor-qos",
            Workload::SweepFull => "sweep-full",
            Workload::BenignMithrilObs => "benign-mithril-obs",
        }
    }

    /// The single-system parameters, `None` for `sweep-full`.
    fn single(self) -> Option<Single> {
        let benign = Single {
            mix: "mix-high",
            rfm_th: 128,
            qos: false,
            obs: false,
            insts_per_core: 2_000_000,
        };
        match self {
            Workload::BenignMithril => Some(benign),
            Workload::BenignMithrilObs => Some(Single {
                obs: true,
                ..benign
            }),
            Workload::NoisyNeighborQos => Some(Single {
                mix: "noisy-neighbor",
                rfm_th: 64,
                qos: true,
                obs: false,
                insts_per_core: 200_000,
            }),
            Workload::SweepFull => None,
        }
    }
}

/// One Mithril-protected Table III system (2ch1rk32b, FlipTH 6,250,
/// event core) running a registry workload for a fixed instruction
/// budget per core.
#[derive(Debug, Clone, Copy)]
struct Single {
    /// Registry workload name (`mithril_runner::scenarios::workload`).
    mix: &'static str,
    rfm_th: u64,
    /// `QosPolicy::Throttle(QosConfig::default())` when set.
    qos: bool,
    /// Build with `System::with_obs` and render the capture.
    obs: bool,
    insts_per_core: u64,
}

impl Single {
    fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::table_iii();
        cfg.cores = CORES;
        cfg.flip_th = FLIP_TH;
        cfg.scheme = Scheme::Mithril {
            rfm_th: self.rfm_th,
            ad_th: Some(AD_TH),
            plus: false,
        };
        cfg.qos = if self.qos {
            QosPolicy::Throttle(QosConfig::default())
        } else {
            QosPolicy::Off
        };
        cfg.seed = seed;
        cfg
    }
}

/// Drains the observability capture and renders it in memory, as
/// `sweep --obs` writes it: events, time series and summary. Returns the
/// rendering and the exact per-kind event counts.
fn render_obs(sys: &mut System<RingSink>) -> (String, [u64; KINDS]) {
    let capture = sys.take_obs();
    let mut out = capture.events_jsonl();
    out.push_str(&capture.series_csv());
    out.push_str(&capture.summary_json());
    (out, capture.total_counts())
}

/// Correctness bookkeeping of one run: what was attempted, what failed
/// and why. A failure is an `Err`, a panic, or a failed check.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// Digest of the first repetition's simulated statistics; every
    /// later repetition must reproduce it exactly.
    digest: Option<u64>,
}

impl Checks {
    /// Records one attempted unit (a run, or a sweep scenario).
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Compares a repetition's digest with the first one's.
    fn same_digest(&mut self, what: &str, digest: u64) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => self.fail(format!(
                "{what}: digest {digest:016x} differs from the first repetition's {d:016x}"
            )),
            Some(_) => {}
        }
    }

    /// Flip safety and the instruction budget of one run: every core
    /// must retire `insts_per_core`, unless the run had a simulated-time
    /// cap (`cap_ps`); then it must not have run past the cap, and
    /// [`verify_cut`] checks that a short run was really cut by it.
    fn check_metrics(
        &mut self,
        what: &str,
        scheme: Scheme,
        m: &Metrics,
        cores: usize,
        insts_per_core: u64,
        cap_ps: Option<u64>,
    ) {
        if deterministic(scheme) && m.flips != 0 {
            self.fail(format!(
                "{what}: {} bit flips under a deterministic scheme",
                m.flips
            ));
        }
        let budget = cores as u64 * insts_per_core;
        match cap_ps {
            None if m.total_insts < budget => self.fail(format!(
                "{what}: retired {} of {budget} instructions",
                m.total_insts
            )),
            // The run stops at the first epoch fence at or past the cap.
            Some(cap) if m.sim_time_ps > cap + 2 * EPOCH_PS => self.fail(format!(
                "{what}: simulated {} ps, past the {cap} ps cap",
                m.sim_time_ps
            )),
            _ => {}
        }
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Schemes with a deterministic protection guarantee: a bit flip under
/// one of them is a simulator bug. `none` is unprotected and PARA/PARFM
/// are probabilistic.
fn deterministic(scheme: Scheme) -> bool {
    matches!(
        scheme,
        Scheme::Mithril { .. }
            | Scheme::Graphene
            | Scheme::TwiCe
            | Scheme::Cbt
            | Scheme::BlockHammer { .. }
    )
}

/// Mirrors the runner's private simulated-time cap for sweep scenarios
/// (4,000 ps per requested instruction).
const SWEEP_CAP_PS_PER_INST: u64 = 4_000;
/// Simulation epoch of `SystemConfig::table_iii()` (500 ns).
const EPOCH_PS: u64 = 500_000;

/// A sweep scenario that stopped short of its budget must have been cut
/// by the simulated-time cap: given twice the time, the same run retires
/// more instructions. A run that stopped for any other reason (a hang, a
/// lost completion) would not.
fn verify_cut(r: &SweepResult, m: &Metrics, cap: u64, checks: &mut Checks) {
    let s = &r.scenario;
    let cfg = s.system_config(r.seed);
    let threads = scenarios::workload(&s.workload, cfg.cores, &cfg, r.seed);
    match System::new(cfg, threads) {
        Ok(mut sys) => {
            let longer = sys.run(s.insts_per_core, 2 * cap);
            if longer.total_insts <= m.total_insts {
                checks.fail(format!(
                    "{}: retired {} instructions, and no more with twice the time cap",
                    s.name, m.total_insts
                ));
            }
        }
        Err(e) => checks.fail(format!("{}: {e}", s.name)),
    }
}

/// One end-to-end repetition.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    acts: u64,
    peak_rss_mb: f64,
}

/// One repetition of a single-system workload; failed checks are
/// recorded in `checks`.
fn single_rep(w: Single, seed: u64, checks: &mut Checks) -> Result<Rep, String> {
    reset_peak_rss();
    let t0 = Instant::now();
    let cfg = w.config(seed);
    let threads = scenarios::workload(w.mix, cfg.cores, &cfg, seed);
    let (m, obs, setup_s, wall_s) = if w.obs {
        let mut sys = System::with_obs(cfg, threads, ObsConfig::default())?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let m = sys.run(w.insts_per_core, u64::MAX);
        let (obs, _) = render_obs(&mut sys);
        (m, obs, setup_s, t1.elapsed().as_secs_f64())
    } else {
        let mut sys = System::new(cfg, threads)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let m = sys.run(w.insts_per_core, u64::MAX);
        (m, String::new(), setup_s, t1.elapsed().as_secs_f64())
    };
    let peak_rss_mb = peak_rss_mb()?;
    checks.attempt();
    let mut digest_input = metrics_json(&m);
    digest_input.push_str(&obs);
    checks.same_digest("run", fnv1a64(digest_input.as_bytes()));
    checks.check_metrics("run", cfg.scheme, &m, cfg.cores, w.insts_per_core, None);
    Ok(Rep {
        setup_s,
        wall_s,
        acts: m.counters.acts,
        peak_rss_mb,
    })
}

/// The set-up work of a sweep: expanding the spec and building every
/// scenario's workload and `System` (scheme configuration included), one
/// after the other on this thread.
fn sweep_setup(spec: &SweepSpec, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    for (i, s) in spec.scenarios().iter().enumerate() {
        let item_seed = position_seed(seed, sweep_pool().shard_size, i);
        let cfg = s.system_config(item_seed);
        let threads = scenarios::workload(&s.workload, cfg.cores, &cfg, item_seed);
        std::hint::black_box(System::new(cfg, threads).map_err(|e| format!("{}: {e}", s.name))?);
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The sweep's pool: `SWEEP_WORKERS` workers, one scenario per shard.
fn sweep_pool() -> PoolConfig {
    PoolConfig {
        threads: SWEEP_WORKERS,
        shard_size: 1,
    }
}

/// Checks every scenario of a finished sweep (re-running the short ones
/// with [`verify_cut`] when `verify_cuts` is set); returns the ACT total.
fn check_sweep(results: &[SweepResult], verify_cuts: bool, checks: &mut Checks) -> u64 {
    let mut acts = 0;
    for r in results {
        checks.attempt();
        match &r.outcome {
            Ok(m) => {
                let s = &r.scenario;
                let cap = s.insts_per_core * SWEEP_CAP_PS_PER_INST;
                acts += m.counters.acts;
                checks.check_metrics(&s.name, s.scheme, m, s.cores, s.insts_per_core, Some(cap));
                if verify_cuts && m.total_insts < s.cores as u64 * s.insts_per_core {
                    verify_cut(r, m, cap, checks);
                }
            }
            Err(e) => checks.fail(format!("{}: {e}", r.scenario.name)),
        }
    }
    acts
}

/// One repetition of `sweep-full`, like [`single_rep`]. Short scenarios
/// are re-run on the first repetition only: later ones must match its
/// digest anyway.
fn sweep_rep(spec: &SweepSpec, seed: u64, first: bool, checks: &mut Checks) -> Result<Rep, String> {
    reset_peak_rss();
    let setup_s = sweep_setup(spec, seed)?;
    let t0 = Instant::now();
    let results = run_sweep(spec, sweep_pool(), seed);
    let report = sweep_json(seed, &results);
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb()?;
    let acts = check_sweep(&results, first, checks);
    checks.same_digest("sweep", fnv1a64(report.as_bytes()));
    Ok(Rep {
        setup_s,
        wall_s,
        acts,
        peak_rss_mb,
    })
}

/// One metric as it appears on the result line and in the detail record.
struct Metric {
    name: &'static str,
    unit: &'static str,
    /// `host` (time or memory of the simulator itself) or `sim`
    /// (simulated time or counts of the modelled hardware).
    clock: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, clock: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            clock,
            samples,
        }
    }
}

/// Runs `rep` until `seconds` have passed and at least `min` repetitions
/// were tried; an `Err` or a panic counts as one failed attempt. `rep` is
/// told whether it is the first try. Fails when no repetition succeeded.
fn repeat<T>(
    seconds: f64,
    min: usize,
    checks: &mut Checks,
    mut rep: impl FnMut(bool, &mut Checks) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut tries = 0;
    while tries < min || start.elapsed().as_secs_f64() < seconds {
        let first = tries == 0;
        tries += 1;
        match catch_unwind(AssertUnwindSafe(|| rep(first, checks))) {
            Ok(Ok(r)) => done.push(r),
            Ok(Err(e)) => {
                checks.attempt();
                checks.fail(e);
            }
            Err(_) => {
                checks.attempt();
                checks.fail("repetition panicked".into());
            }
        }
        if tries >= min && done.is_empty() {
            return Err("no repetition succeeded".into());
        }
    }
    Ok(done)
}

fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let spec = SweepSpec::full();
    let reps = repeat(seconds, MIN_REPS, checks, |first, checks| {
        match w.single() {
            Some(single) => single_rep(single, seed, checks),
            None => sweep_rep(&spec, seed, first, checks),
        }
    })?;
    Ok(vec![
        Metric::new(
            "wall_s",
            "s",
            "host",
            reps.iter().map(|r| r.wall_s).collect(),
        ),
        Metric::new(
            "sim_acts_per_s",
            "1/s",
            "host",
            reps.iter().map(|r| r.acts as f64 / r.wall_s).collect(),
        ),
        Metric::new(
            "setup_s",
            "s",
            "host",
            reps.iter().map(|r| r.setup_s).collect(),
        ),
        Metric::new(
            "peak_rss_mb",
            "MB",
            "host",
            reps.iter().map(|r| r.peak_rss_mb).collect(),
        ),
    ])
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Host context (JSON object) recorded with the result.
    context: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut context = "{}".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = if v == "heldout" {
                    HELD_OUT_SEED
                } else {
                    v.parse().map_err(|e| format!("--seed {v}: {e}"))?
                };
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v}: want 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                }
            }
            "--context" => context = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", names.join(", ")))?,
        seed,
        seconds,
        trace,
        context,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mithril-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        stages::traced(args.workload, args.seed, args.seconds, &mut checks)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &mut checks)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mithril-perfbench: {}: {e}", args.workload.name());
            for f in &checks.failures {
                eprintln!("  failed: {f}");
            }
            std::process::exit(1);
        }
    };
    report(&args, &metrics, &checks);
}

/// Prints the human-readable table, the detail record (every metric
/// with its spread, the checks and the host context) and, last, the
/// result line.
fn report(args: &Args, metrics: &[Metric], checks: &Checks) {
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "# {} ({mode}), seed {}, {} s",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for m in metrics {
        let s = Summary::of(&m.samples);
        let clock = if m.clock == "host" {
            "host time"
        } else {
            "simulated"
        };
        println!(
            "{:<32} {:>16.6} {:<7} {clock}; median of {}, IQR [{:.6}, {:.6}]",
            m.name, s.median, m.unit, s.n, s.q1, s.q3
        );
    }
    let error_rate = checks.failed() as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<32} {:>16.6} {:<7} failed {} of {} attempted",
        "error_rate",
        error_rate,
        "ratio",
        checks.failed(),
        checks.attempted
    );
    for f in &checks.failures {
        println!("# failed: {f}");
    }
    let detail: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"unit\":{},\"clock\":{},\"summary\":{}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.clock),
                Summary::of(&m.samples).json()
            )
        })
        .collect();
    println!(
        "{{\"detail\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"error_rate\":{},\"host\":{},\"metrics\":{{{}}}}}}}",
        quote(args.workload.name()),
        args.seed,
        num(args.seconds),
        args.trace as u8,
        num(error_rate),
        args.context,
        detail.join(",")
    );
    let result: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(Summary::of(&m.samples).median),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failed(),
        result.join(",")
    );
}
