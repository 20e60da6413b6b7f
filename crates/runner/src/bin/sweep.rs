//! The sweep runner: executes a scheme × workload × geometry sweep on the
//! sharded parallel engine and writes `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p mithril-runner --bin sweep -- [options]
//!   --smoke           tiny CI sweep (default)
//!   --full            the full default sweep
//!   --threads N       worker threads (default: host parallelism, max 8)
//!   --shard-size N    scenarios per shard (default 1)
//!   --seed N          base seed (default 1)
//!   --insts N         override instructions per core
//!   --cores N         override cores per scenario
//!   --out PATH        report path (default BENCH_sweep.json,
//!                     BENCH_faults.json in --faults mode)
//!   --obs DIR         attach observability: per-scenario event logs
//!                     (events.jsonl), cycle-domain time series
//!                     (series.csv) and summaries under DIR, plus the
//!                     aggregate DIR/obs_counts.json baseline
//!   --progress        heartbeat on stderr: one `# progress: d/total`
//!                     line per finished scenario (journal-aware)
//!   --journal PATH    crash-safe mode: append each completed scenario to
//!                     PATH as it finishes
//!   --resume          recover completed scenarios from --journal PATH
//!                     and run only what is missing
//!   --faults          fault-injection campaign: the smoke grid crossed
//!                     with a soft-error rate ladder, reported as
//!                     degradation curves per scheme
//!   --fault-rates R,R,...  override the campaign's rates (ppm of ACTs)
//!   --no-scrub        disable scrub (self-check + repair) in --faults
//!   --qos             multi-tenant QoS campaign: the noisy-neighbor grid
//!                     run with QoS off and on, reported as per-tenant
//!                     comparison pairs (default out: BENCH_qos.json)
//! ```
//!
//! The report contains only deterministic content; wall-clock and thread
//! count are printed to stdout so the file stays byte-comparable across
//! worker counts (the determinism regression test relies on this).
//!
//! Operational errors — malformed arguments, an unwritable report path, a
//! foreign journal — exit nonzero with a one-line message, not a panic
//! backtrace.

use std::path::Path;
use std::time::Instant;

use mithril_runner::engine::{default_threads, PoolConfig};
use mithril_runner::report::{self, TenantSummary};
use mithril_runner::scenarios::{FaultCampaignSpec, QosCampaignSpec, Scenario, SweepSpec};
use mithril_runner::{run_passes, run_sweep_journaled, write_obs_outputs, Executed};
use mithril_sim::{Metrics, ObsConfig};

struct Args {
    smoke: bool,
    threads: usize,
    shard_size: usize,
    seed: u64,
    insts: Option<u64>,
    cores: Option<usize>,
    out: Option<String>,
    obs: Option<String>,
    progress: bool,
    journal: Option<String>,
    resume: bool,
    faults: bool,
    fault_rates: Option<Vec<u64>>,
    scrub: bool,
    qos: bool,
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}

fn value<'a>(args: &'a [String], i: &mut usize, usage: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| die(format!("missing value: expected {usage}")))
        .as_str()
}

fn parsed<T: std::str::FromStr>(args: &[String], i: &mut usize, usage: &str) -> T {
    let raw = value(args, i, usage);
    raw.parse()
        .unwrap_or_else(|_| die(format!("invalid value {raw:?}: expected {usage}")))
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: true,
        threads: default_threads(),
        shard_size: 1,
        seed: 1,
        insts: None,
        cores: None,
        out: None,
        obs: None,
        progress: false,
        journal: None,
        resume: false,
        faults: false,
        fault_rates: None,
        scrub: true,
        qos: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => out.smoke = true,
            "--full" => out.smoke = false,
            "--threads" => out.threads = parsed(&args, &mut i, "--threads N"),
            "--shard-size" => out.shard_size = parsed(&args, &mut i, "--shard-size N"),
            "--seed" => out.seed = parsed(&args, &mut i, "--seed N"),
            "--insts" => out.insts = Some(parsed(&args, &mut i, "--insts N")),
            "--cores" => out.cores = Some(parsed(&args, &mut i, "--cores N")),
            "--out" => out.out = Some(value(&args, &mut i, "--out PATH").to_string()),
            "--obs" => out.obs = Some(value(&args, &mut i, "--obs DIR").to_string()),
            "--progress" => out.progress = true,
            "--journal" => out.journal = Some(value(&args, &mut i, "--journal PATH").to_string()),
            "--resume" => out.resume = true,
            "--faults" => out.faults = true,
            "--fault-rates" => {
                let raw = value(&args, &mut i, "--fault-rates R,R,...");
                let rates: Result<Vec<u64>, _> = raw.split(',').map(str::parse).collect();
                out.fault_rates = Some(rates.unwrap_or_else(|_| {
                    die(format!(
                        "invalid value {raw:?}: expected --fault-rates R,R,..."
                    ))
                }));
            }
            "--no-scrub" => out.scrub = false,
            "--qos" => out.qos = true,
            other => die(format!(
                "unknown argument {other} (see --help in the crate docs)"
            )),
        }
        i += 1;
    }
    if out.resume && out.journal.is_none() {
        die("--resume requires --journal PATH");
    }
    if out.faults && out.journal.is_some() {
        die("--faults and --journal are mutually exclusive");
    }
    if out.obs.is_some() && out.journal.is_some() {
        die("--obs and --journal are mutually exclusive");
    }
    if out.obs.is_some() && out.faults {
        die("--obs and --faults are mutually exclusive");
    }
    if out.qos && (out.faults || out.journal.is_some() || out.obs.is_some()) {
        die("--qos is mutually exclusive with --faults, --journal and --obs");
    }
    out
}

fn write_report(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| die(format!("cannot write report {path}: {e}")));
}

/// What the invocation runs: a plain sweep, or one of the campaigns
/// built as passes over a base grid.
enum Mode {
    Sweep(SweepSpec),
    Faults(FaultCampaignSpec),
    Qos(QosCampaignSpec),
}

fn with_overrides(mut spec: SweepSpec, args: &Args) -> SweepSpec {
    if let Some(insts) = args.insts {
        spec.insts_per_core = insts;
    }
    if let Some(cores) = args.cores {
        spec.cores = cores;
    }
    spec
}

impl Mode {
    fn of(args: &Args) -> Self {
        if args.faults {
            let mut spec = FaultCampaignSpec::smoke();
            if !args.smoke {
                spec.base = SweepSpec::full();
            }
            spec.base = with_overrides(spec.base, args);
            if let Some(rates) = &args.fault_rates {
                spec.rates_ppm = rates.clone();
            }
            spec.scrub = args.scrub;
            Mode::Faults(spec)
        } else if args.qos {
            let spec = if args.smoke {
                QosCampaignSpec::smoke()
            } else {
                QosCampaignSpec::full()
            };
            Mode::Qos(QosCampaignSpec {
                base: with_overrides(spec.base, args),
                ..spec
            })
        } else if args.smoke {
            Mode::Sweep(with_overrides(SweepSpec::smoke(), args))
        } else {
            Mode::Sweep(with_overrides(SweepSpec::full(), args))
        }
    }

    fn passes(&self) -> Vec<Vec<Scenario>> {
        match self {
            Mode::Sweep(spec) => vec![spec.scenarios()],
            Mode::Faults(spec) => spec.passes(),
            Mode::Qos(spec) => spec.passes(),
        }
    }

    fn header(&self, runs: usize) -> String {
        match self {
            Mode::Sweep(spec) => format!(
                "# sweep: {runs} scenarios ({} geometries x {} schemes x {} workloads, minus skips)",
                spec.geometries.len(),
                spec.schemes.len(),
                spec.workloads.len()
            ),
            Mode::Faults(spec) => format!(
                "# fault campaign: {runs} runs ({} base scenarios x {} rates, scrub {})",
                spec.base.scenarios().len(),
                spec.rates_ppm.len(),
                if spec.scrub { "on" } else { "off" }
            ),
            Mode::Qos(spec) => format!(
                "# qos campaign: {runs} runs ({} base scenarios, off + throttled passes)",
                spec.base.scenarios().len()
            ),
        }
    }

    fn default_out(&self) -> &'static str {
        match self {
            Mode::Sweep(_) => "BENCH_sweep.json",
            Mode::Faults(_) => "BENCH_faults.json",
            Mode::Qos(_) => "BENCH_qos.json",
        }
    }

    fn columns(&self) -> &'static [&'static str] {
        match self {
            Mode::Sweep(_) => &["agg_ipc", "energy_pj", "rfms", "disturb(max)", "flips"],
            Mode::Faults(_) => &[
                "rate_ppm",
                "rfms",
                "disturb(max)",
                "flips",
                "injected",
                "repairs",
            ],
            Mode::Qos(_) => &["victim_p99", "hammer_p99", "fairness", "flips", "qos_thr"],
        }
    }

    fn cells(&self, run: &Executed, m: &Metrics) -> Vec<String> {
        match self {
            Mode::Sweep(_) => vec![
                format!("{:.3}", m.aggregate_ipc),
                format!("{:.3e}", m.energy_pj),
                m.rfms.to_string(),
                m.max_disturbance.to_string(),
                m.flips.to_string(),
            ],
            Mode::Faults(_) => {
                let stats = run.fault_stats.as_ref();
                vec![
                    run.result.scenario.fault_rate_ppm().to_string(),
                    m.rfms.to_string(),
                    m.max_disturbance.to_string(),
                    m.flips.to_string(),
                    stats.map_or(0, |f| f.injected()).to_string(),
                    stats.map_or(0, |f| f.repairs).to_string(),
                ]
            }
            Mode::Qos(_) => {
                let t = TenantSummary::of(m);
                vec![
                    t.victim_p99_ps.to_string(),
                    t.hammer_p99_ps.to_string(),
                    format!("{:.3}", t.fairness_acts),
                    t.flips.to_string(),
                    t.qos_throttled_acts.to_string(),
                ]
            }
        }
    }

    fn report(&self, seed: u64, runs: Vec<Executed>) -> String {
        if let Mode::Faults(spec) = self {
            return report::faults_json(seed, spec.scrub, &spec.rates_ppm, &runs);
        }
        let results: Vec<_> = runs.into_iter().map(|r| r.result).collect();
        match self {
            Mode::Qos(_) => report::qos_campaign_json(seed, &results),
            _ => report::sweep_json(seed, &results),
        }
    }
}

fn table_row(name: &str, cells: impl IntoIterator<Item = impl std::fmt::Display>) -> String {
    let mut row = format!("{name:<48}");
    for cell in cells {
        row.push_str(&format!(" {cell:>12}"));
    }
    row
}

fn main() {
    let args = parse_args();
    let pool = PoolConfig {
        threads: args.threads,
        shard_size: args.shard_size,
    };
    let mode = Mode::of(&args);
    let passes = mode.passes();
    let n: usize = passes.iter().map(Vec::len).sum();
    println!("{}", mode.header(n));
    println!(
        "# engine: {} threads, shard size {}, base seed {}",
        pool.threads, pool.shard_size, args.seed
    );

    let out = args.out.as_deref().unwrap_or(mode.default_out());
    let t0 = Instant::now();
    let (json, status) = match (&args.journal, &mode) {
        (Some(journal), Mode::Sweep(spec)) => {
            let sweep = run_sweep_journaled(
                spec,
                pool,
                args.seed,
                Path::new(journal),
                args.resume,
                args.progress,
            )
            .unwrap_or_else(|e| die(e));
            println!(
                "# journal {journal}: {} recovered, {} run, {} corrupt line(s) dropped",
                sweep.recovered, sweep.ran, sweep.dropped_lines
            );
            (sweep.report, format!("{n} runs"))
        }
        _ => {
            let obs = args.obs.as_ref().map(|_| ObsConfig::default());
            let runs = run_passes(&passes, pool, args.seed, obs, args.progress);
            if let Some(dir) = &args.obs {
                write_obs_outputs(Path::new(dir), args.seed, &runs).unwrap_or_else(|e| die(e));
                println!("# obs: wrote event logs, time series and {dir}/obs_counts.json");
            }
            println!("{}", table_row("run", mode.columns()));
            for run in &runs {
                let name = &run.result.scenario.name;
                match &run.result.outcome {
                    Ok(m) => println!("{}", table_row(name, mode.cells(run, m))),
                    Err(e) => println!("{name:<48} unavailable: {e}"),
                }
            }
            let ok = runs.iter().filter(|r| r.result.outcome.is_ok()).count();
            (mode.report(args.seed, runs), format!("{ok}/{n} runs ok"))
        }
    };
    let wall = t0.elapsed();
    write_report(out, &json);
    println!(
        "# {status}; wall-clock {:.2}s at {} threads; wrote {out}",
        wall.as_secs_f64(),
        pool.threads,
    );
}
