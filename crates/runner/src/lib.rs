//! Scenario registry and sharded parallel sweep engine.
//!
//! `mithril-runner` turns the system simulator into an experiment machine:
//!
//! * [`scenarios`] — the registry of named workloads, scheme catalogs and
//!   scheme × workload × geometry [`scenarios::SweepSpec`]s (the figure
//!   binaries' shared source of truth), plus the fault and QoS campaigns
//!   expressed as *passes* over a base grid;
//! * [`engine`] — a std::thread work-stealing shard pool with
//!   deterministic per-position RNG seeding: the same base seed produces
//!   bit-identical metrics at any worker count;
//! * [`report`] — the deterministic `BENCH_*.json` writers;
//! * [`journal`] — the crash-safe completion journal behind
//!   [`run_sweep_journaled`].
//!
//! Every sweep, campaign, journaled sweep and `trace replay` runs through
//! one execution path: a scenario runs through
//! [`Scenario::execute`](scenarios::Scenario::execute), and positions run
//! on the pool through one function that seeds each by its position
//! ([`engine::position_seed`]), turns a position that keeps panicking
//! into an `Err` outcome, and calls one per-position callback (progress
//! heartbeat, journal append). [`run_passes`] is its public face:
//! each pass is seeded by position within the pass, so position `i` of
//! every pass shares one seed. [`run_sweep`] is the one-pass case.
//!
//! The `sweep` binary ties these together:
//!
//! ```text
//! cargo run --release -p mithril-runner --bin sweep -- --smoke --threads 4
//! ```
//!
//! # Example
//!
//! ```
//! use mithril_runner::engine::PoolConfig;
//! use mithril_runner::run_sweep;
//! use mithril_runner::scenarios::SweepSpec;
//!
//! let mut spec = SweepSpec::smoke();
//! spec.insts_per_core = 500; // keep the doctest quick
//! spec.workloads.truncate(1);
//! spec.geometries.truncate(1);
//! let results = run_sweep(&spec, PoolConfig { threads: 2, shard_size: 1 }, 42);
//! assert_eq!(results.len(), spec.scenarios().len());
//! assert!(results.iter().all(|r| r.outcome.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod engine;
pub mod journal;
pub mod report;
pub mod scenarios;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use engine::{PoolConfig, DEFAULT_RETRIES};
use mithril_obs::ObsCapture;
use mithril_sim::{FaultStats, ObsConfig};
use report::{ObsCountEntry, SweepResult};
use scenarios::{Scenario, SweepSpec};

/// A sweep heartbeat: after every finished scenario it prints a
/// `# progress: done/total (name)` line to **stderr** — never stdout,
/// which carries the result table, and never the report, which must stay
/// deterministic. A resumed journaled sweep starts the counter at the
/// number of recovered scenarios, so it counts toward the same total an
/// uninterrupted run would.
struct Progress {
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    fn tick(heartbeat: &Option<Progress>, name: &str) {
        if let Some(p) = heartbeat {
            let done = p.done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("# progress: {done}/{} ({name})", p.total);
        }
    }
}

/// One executed sweep position: the sweep result plus what the run
/// produced beside its metrics.
#[derive(Debug)]
pub struct Executed {
    /// The scenario, its position seed and its metrics (or error).
    pub result: SweepResult,
    /// Fault-injection counters (`None` for fault-free runs and errors).
    pub fault_stats: Option<FaultStats>,
    /// The observability capture (`None` unless observed, or on error).
    pub capture: Option<ObsCapture>,
}

/// The one execution path: runs `scenarios[p]` for every `p` in
/// `positions` on the shard pool, each under the seed of its position
/// ([`engine::position_seed`]), and calls `done(p, executed)` on the
/// worker as each run finishes. A scenario that keeps panicking through
/// the retry budget becomes an `Err` outcome under its position seed
/// instead of taking the sweep down (`done` is not called for it).
/// Results come back in `positions` order, bit-identical at any
/// `pool.threads`.
fn execute(
    scenarios: &[Scenario],
    positions: &[usize],
    pool: PoolConfig,
    base_seed: u64,
    obs: Option<ObsConfig>,
    done: impl Fn(usize, &Executed) + Sync,
) -> Vec<Executed> {
    let seed_of = |p| engine::position_seed(base_seed, pool.shard_size, p);
    let outcomes =
        engine::run_sharded_robust(positions, pool, base_seed, DEFAULT_RETRIES, |&p, _| {
            let scenario = &scenarios[p];
            let seed = seed_of(p);
            let (outcome, fault_stats, capture) = match scenario.execute(seed, obs) {
                Ok(run) => (Ok(run.metrics), run.fault_stats, run.capture),
                Err(e) => (Err(e), None, None),
            };
            let executed = Executed {
                result: SweepResult {
                    scenario: scenario.clone(),
                    seed,
                    outcome,
                },
                fault_stats,
                capture,
            };
            done(p, &executed);
            executed
        });
    positions
        .iter()
        .zip(outcomes)
        .map(|(&p, item)| {
            item.into_result().unwrap_or_else(|e| Executed {
                result: SweepResult {
                    scenario: scenarios[p].clone(),
                    seed: seed_of(p),
                    outcome: Err(e),
                },
                fault_stats: None,
                capture: None,
            })
        })
        .collect()
}

/// Executes `passes` one after another on the shard pool and returns
/// every position's [`Executed`] record, pass by pass in registry order.
///
/// Each pass is seeded by position *within the pass* from the same
/// `base_seed`, so position `i` of every pass runs under one seed: a
/// campaign's passes (QoS off/on, one fault rate each) differ only in
/// what the passes change, never in the workload's or scheme's RNG
/// draw. A plain sweep is one pass. With `obs`, every run is observed
/// and carries its capture; with `progress`, a stderr heartbeat ticks
/// after every finished run. Bit-identical at any `pool.threads`.
///
/// ```
/// use mithril_runner::engine::PoolConfig;
/// use mithril_runner::run_passes;
/// use mithril_runner::scenarios::QosCampaignSpec;
///
/// let mut spec = QosCampaignSpec::smoke();
/// spec.base.insts_per_core = 400; // keep the doctest quick
/// spec.base.cores = 2;
/// let pool = PoolConfig { threads: 2, shard_size: 1 };
/// let runs = run_passes(&spec.passes(), pool, 7, None, false);
/// let half = runs.len() / 2;
/// // Position i of the off pass pairs with position half + i of the on
/// // pass: same scenario, same seed, QoS policy flipped.
/// assert_eq!(runs[0].result.seed, runs[half].result.seed);
/// assert_eq!(
///     format!("{}+qos", runs[0].result.scenario.name),
///     runs[half].result.scenario.name
/// );
/// ```
pub fn run_passes(
    passes: &[Vec<Scenario>],
    pool: PoolConfig,
    base_seed: u64,
    obs: Option<ObsConfig>,
    progress: bool,
) -> Vec<Executed> {
    let heartbeat = progress.then(|| Progress {
        done: AtomicUsize::new(0),
        total: passes.iter().map(Vec::len).sum(),
    });
    passes
        .iter()
        .flat_map(|pass| {
            let positions: Vec<usize> = (0..pass.len()).collect();
            execute(pass, &positions, pool, base_seed, obs, |_, e| {
                Progress::tick(&heartbeat, &e.result.scenario.name)
            })
        })
        .collect()
}

/// Executes `spec` on the shard pool and returns per-scenario results in
/// registry order: [`run_passes`] over the one pass `spec.scenarios()`.
/// Bit-identical for any `pool.threads`.
///
/// A scenario that *panics* (rather than erroring) is isolated: the
/// engine retries it once with its original position seed and, if it
/// keeps panicking, reports the panic as that scenario's `Err` outcome
/// instead of taking the whole sweep down.
pub fn run_sweep(spec: &SweepSpec, pool: PoolConfig, base_seed: u64) -> Vec<SweepResult> {
    run_passes(&[spec.scenarios()], pool, base_seed, None, false)
        .into_iter()
        .map(|e| e.result)
        .collect()
}

/// Directory-name-safe projection of a scenario name: alphanumerics,
/// `-`, `_` and `.` pass through, everything else becomes `-`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes the observability artifacts of an observed sweep under `dir`:
///
/// * `dir/NNN_<scenario>/events.jsonl` — merged per-position event log;
/// * `dir/NNN_<scenario>/series.csv` — cycle-domain time series;
/// * `dir/NNN_<scenario>/summary.json` — per-position counts summary;
/// * `dir/obs_counts.json` — the aggregate per-kind count baseline
///   ([`report::obs_counts_json`], the `BENCH_obs.json` format CI diffs).
///
/// Returns the aggregate `obs_counts.json` string so callers can also
/// write it elsewhere (e.g. refresh the committed baseline).
///
/// # Errors
///
/// Any I/O failure, rendered with the offending path.
pub fn write_obs_outputs(
    dir: &Path,
    base_seed: u64,
    observed: &[Executed],
) -> Result<String, String> {
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    let mut entries = Vec::new();
    for (index, run) in observed.iter().enumerate() {
        let (result, Some(capture)) = (&run.result, &run.capture) else {
            continue;
        };
        let sub = dir.join(format!(
            "{index:03}_{}",
            sanitize_name(&result.scenario.name)
        ));
        std::fs::create_dir_all(&sub).map_err(|e| io(&sub, e))?;
        for (file, contents) in [
            ("events.jsonl", capture.events_jsonl()),
            ("series.csv", capture.series_csv()),
            ("summary.json", capture.summary_json()),
        ] {
            let path = sub.join(file);
            std::fs::write(&path, contents).map_err(|e| io(&path, e))?;
        }
        entries.push(ObsCountEntry {
            index,
            name: result.scenario.name.clone(),
            seed: result.seed,
            counts: capture.total_counts(),
            dropped: capture.total_dropped(),
        });
    }
    let counts = report::obs_counts_json(base_seed, &entries);
    let path = dir.join("obs_counts.json");
    std::fs::write(&path, &counts).map_err(|e| io(&path, e))?;
    Ok(counts)
}

/// The outcome of a journaled (crash-safe) sweep.
#[derive(Debug)]
pub struct JournaledSweep {
    /// The assembled `BENCH_sweep.json` report.
    pub report: String,
    /// Scenarios recovered from the journal instead of re-run.
    pub recovered: usize,
    /// Journal lines dropped as corrupt or torn during recovery.
    pub dropped_lines: usize,
    /// Scenarios executed (or re-executed) by this invocation.
    pub ran: usize,
}

/// Executes `spec` with a crash-safe completion journal at `path`.
///
/// Every completed scenario is appended to the journal (hash-guarded,
/// flushed) *before* the sweep moves on, so a killed process loses only
/// in-flight work. With `resume`, an existing journal for the same seed
/// and spec is recovered first — corrupt or torn lines are dropped and
/// re-run — and only missing scenarios execute, on the same path as
/// [`run_passes`] and each seeded by its sweep *position*. The assembled
/// report is byte-identical to what an uninterrupted [`run_sweep`] +
/// [`report::sweep_json`] would produce. With `progress`, the stderr
/// heartbeat starts at the number of recovered scenarios.
///
/// # Errors
///
/// Journal I/O failure, or a journal that belongs to a different sweep
/// (seed or spec fingerprint mismatch).
pub fn run_sweep_journaled(
    spec: &SweepSpec,
    pool: PoolConfig,
    base_seed: u64,
    path: &Path,
    resume: bool,
    progress: bool,
) -> Result<JournaledSweep, String> {
    let scenarios = spec.scenarios();
    let fp = journal::fingerprint(base_seed, &scenarios);
    let (mut entries, dropped_lines, writer) = if resume && path.exists() {
        let loaded = journal::load(path, base_seed, fp, scenarios.len())?;
        let writer = journal::JournalWriter::append(path)?;
        (loaded.entries, loaded.dropped_lines, writer)
    } else {
        let writer = journal::JournalWriter::create(path, base_seed, fp)?;
        (vec![None; scenarios.len()], 0, writer)
    };
    let missing: Vec<usize> = (0..scenarios.len())
        .filter(|&i| entries[i].is_none())
        .collect();
    let recovered = scenarios.len() - missing.len();
    let heartbeat = progress.then(|| Progress {
        done: AtomicUsize::new(recovered),
        total: scenarios.len(),
    });
    let ran = execute(&scenarios, &missing, pool, base_seed, None, |p, e| {
        writer.record(p, report::result_json(&e.result).trim_start());
        Progress::tick(&heartbeat, &e.result.scenario.name);
    });
    for (&p, e) in missing.iter().zip(&ran) {
        entries[p] = Some(report::result_json(&e.result).trim_start().to_string());
    }

    let full: Vec<String> = entries
        .into_iter()
        .map(|e| format!("    {}", e.expect("every index recovered or run")))
        .collect();
    Ok(JournaledSweep {
        report: report::sweep_json_from_entries(base_seed, &full),
        recovered,
        dropped_lines,
        ran: ran.len(),
    })
}
