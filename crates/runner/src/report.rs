//! Machine-readable sweep reports (`BENCH_sweep.json`).
//!
//! The writer is deliberately dependency-free and **deterministic**: field
//! order is fixed, floats are emitted with Rust's shortest-round-trip
//! formatting, and nothing time- or host-dependent enters the file. The
//! determinism regression test compares whole report strings across thread
//! counts, so keep it that way: wall-clock and worker counts belong on
//! stdout, not in the report.

use mithril_dram::EnergyCounters;
use mithril_sim::{ChannelMetrics, CoreStats, FaultStats, Metrics, PerCore, QosStats};

use crate::scenarios::{geometry_tag, Scenario};
use crate::Executed;

use mithril_obs::json::esc;
pub use mithril_obs::{validate_format_version, FORMAT_VERSION};
use mithril_obs::{KINDS, KIND_NAMES};

/// One executed scenario with its seed and results.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// What ran.
    pub scenario: Scenario,
    /// The deterministic seed the engine assigned.
    pub seed: u64,
    /// The run's metrics, or the configuration error that prevented it.
    pub outcome: Result<Metrics, String>,
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn counters_json(c: &EnergyCounters) -> String {
    format!(
        "{{\"acts\":{},\"pres\":{},\"reads\":{},\"writes\":{},\"auto_refresh_rows\":{},\
         \"preventive_rows\":{},\"rfm_commands\":{},\"mrr_commands\":{}}}",
        c.acts,
        c.pres,
        c.reads,
        c.writes,
        c.auto_refresh_rows,
        c.preventive_rows,
        c.rfm_commands,
        c.mrr_commands
    )
}

fn channel_json(c: &ChannelMetrics) -> String {
    format!(
        "{{\"channel\":{},\"reads_done\":{},\"writes_done\":{},\"avg_read_latency_ns\":{},\
         \"row_hit_rate\":{},\"energy_pj\":{},\"rfms\":{},\"rfm_elisions\":{},\"arrs\":{},\
         \"throttled_acts\":{},\"max_disturbance\":{},\"flips\":{},\"counters\":{}}}",
        c.channel.0,
        c.reads_done,
        c.writes_done,
        num(c.avg_read_latency_ns),
        num(c.row_hit_rate),
        num(c.energy_pj),
        c.rfms,
        c.rfm_elisions,
        c.arrs,
        c.throttled_acts,
        c.max_disturbance,
        c.flips,
        counters_json(&c.counters)
    )
}

/// Renders the per-core attribution array: one entry per issuing core,
/// with its command shares, latency percentiles and its share of the
/// mitigation triggers (the "who is hammering" signal, rendered as an
/// exact fraction of the run's total triggers).
fn per_core_json(per_core: &PerCore<CoreStats>) -> String {
    let total_triggers: u64 = per_core.iter().map(|(_, c)| c.mitigation_triggers).sum();
    let entries: Vec<String> = per_core
        .iter()
        .map(|(core, c)| {
            let share = if total_triggers == 0 {
                0.0
            } else {
                c.mitigation_triggers as f64 / total_triggers as f64
            };
            format!(
                "{{\"core\":{core},\"acts\":{},\"reads\":{},\"writes\":{},\
                 \"throttled_acts\":{},\"rfm_triggers\":{},\"mitigation_triggers\":{},\
                 \"trigger_share\":{},\"p50_ps\":{},\"p99_ps\":{}}}",
                c.acts,
                c.reads_done,
                c.writes_done,
                c.throttled_acts,
                c.rfm_triggers,
                c.mitigation_triggers,
                num(share),
                c.read_latency.p50(),
                c.read_latency.p99()
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// Renders the QoS throttling summary: window count, total deferred
/// ACTs, and the per-thread suspect/throttle attribution.
fn qos_json(q: &QosStats) -> String {
    let threads: Vec<String> = q
        .per_thread
        .iter()
        .enumerate()
        .map(|(thread, t)| {
            format!(
                "{{\"thread\":{thread},\"suspect_windows\":{},\"throttled_acts\":{},\
                 \"score\":{},\"pressure\":{}}}",
                t.suspect_windows, t.throttled_acts, t.score, t.pressure
            )
        })
        .collect();
    format!(
        "{{\"windows\":{},\"throttled_acts\":{},\"per_thread\":[{}]}}",
        q.windows,
        q.throttled_acts,
        threads.join(",")
    )
}

/// Renders one run's [`Metrics`] in the deterministic report dialect.
///
/// Public because replay comparisons diff *metrics*, not scenario labels:
/// a replayed scenario is named `trace:<path>` while its live twin carries
/// the generator name, so whole-report strings can never match — this
/// projection is the byte-comparable part.
///
/// The `latency` section embeds the read/write histograms' integer
/// summaries (exact count/sum/min/max plus bucket-lower-bound
/// percentiles) and `per_core` the per-issuing-core attribution; both are
/// integer-rendered, so they are byte-identical at any thread count like
/// the rest of the report.
///
/// A `qos` section rides at the end *only* when the run had QoS
/// throttling enabled — QoS-off runs carry no QoS state at all, keeping
/// their reports byte-identical to pre-QoS builds.
pub fn metrics_json(m: &Metrics) -> String {
    let channels: Vec<String> = m.per_channel.iter().map(channel_json).collect();
    let qos = match &m.qos {
        Some(q) => format!(",\"qos\":{}", qos_json(q)),
        None => String::new(),
    };
    format!(
        "{{\"aggregate_ipc\":{},\"total_insts\":{},\"sim_time_ps\":{},\"llc_miss_rate\":{},\
         \"energy_pj\":{},\"rfms\":{},\"rfm_elisions\":{},\"arrs\":{},\"throttled_acts\":{},\
         \"avg_read_latency_ns\":{},\"max_disturbance\":{},\"flips\":{},\"counters\":{},\
         \"per_channel\":[{}],\
         \"latency\":{{\"read\":{},\"write\":{}}},\"per_core\":{}{}}}",
        num(m.aggregate_ipc),
        m.total_insts,
        m.sim_time_ps,
        num(m.llc_miss_rate),
        num(m.energy_pj),
        m.rfms,
        m.rfm_elisions,
        m.arrs,
        m.throttled_acts,
        num(m.avg_read_latency_ns),
        m.max_disturbance,
        m.flips,
        counters_json(&m.counters),
        channels.join(","),
        m.read_latency.summary_json(),
        m.write_latency.summary_json(),
        per_core_json(&m.per_core),
        qos
    )
}

fn result_json_fields(r: &SweepResult) -> String {
    let s = &r.scenario;
    let g = &s.geometry;
    let outcome = match &r.outcome {
        Ok(m) => format!("\"metrics\":{}", metrics_json(m)),
        Err(e) => format!("\"error\":\"{}\"", esc(e)),
    };
    format!(
        "\"name\":\"{}\",\"scheme\":\"{}\",\"workload\":\"{}\",\
         \"geometry\":{{\"tag\":\"{}\",\"channels\":{},\"ranks\":{},\"banks_per_rank\":{}}},\
         \"flip_th\":{},\"cores\":{},\"insts_per_core\":{},\"seed\":{},{}",
        esc(&s.name),
        esc(&s.scheme_label),
        esc(&s.workload),
        geometry_tag(g),
        g.channels,
        g.ranks,
        g.banks_per_rank,
        s.flip_th,
        s.cores,
        s.insts_per_core,
        r.seed,
        outcome
    )
}

/// Renders one sweep result as a single report entry (one line, 4-space
/// indent) — the unit the crash-safe sweep journal stores and
/// [`sweep_json_from_entries`] reassembles.
pub fn result_json(r: &SweepResult) -> String {
    format!("    {{{}}}", result_json_fields(r))
}

/// Renders [`FaultStats`] in the deterministic report dialect.
pub fn fault_stats_json(f: &FaultStats) -> String {
    format!(
        "{{\"bit_flips\":{},\"invalidations\":{},\"stuck_bits\":{},\"stuck_assertions\":{},\
         \"scrubs\":{},\"scrub_detections\":{},\"repairs\":{},\"dropped\":{}}}",
        f.bit_flips,
        f.invalidations,
        f.stuck_bits,
        f.stuck_assertions,
        f.scrubs,
        f.scrub_detections,
        f.repairs,
        f.dropped
    )
}

/// Renders only the scheme labels and metrics of a sweep — the
/// label-independent projection `trace replay --metrics-only` emits so a
/// replayed capture and its live-generated twin can be compared
/// byte-for-byte (`cmp`/`git diff`) despite their different workload
/// names.
pub fn metrics_only_json(base_seed: u64, results: &[SweepResult]) -> String {
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                Ok(m) => format!("\"metrics\":{}", metrics_json(m)),
                Err(e) => format!("\"error\":\"{}\"", esc(e)),
            };
            format!(
                "    {{\"scheme\":\"{}\",\"flip_th\":{},{}}}",
                esc(&r.scenario.scheme_label),
                r.scenario.flip_th,
                outcome
            )
        })
        .collect();
    format!(
        "{{\n  \"format_version\": {FORMAT_VERSION},\n  \"base_seed\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        base_seed,
        entries.join(",\n")
    )
}

/// Renders a whole sweep to the `BENCH_sweep.json` format.
///
/// Identical inputs render to identical strings; the engine guarantees
/// identical inputs for any worker count, so reports are comparable
/// byte-for-byte across thread counts.
pub fn sweep_json(base_seed: u64, results: &[SweepResult]) -> String {
    let entries: Vec<String> = results.iter().map(result_json).collect();
    sweep_json_from_entries(base_seed, &entries)
}

/// Assembles a `BENCH_sweep.json` report from pre-rendered
/// [`result_json`] entries (in scenario-registry order).
///
/// This is the resume path's assembly point: entries recovered from a
/// crash-safe journal and entries rendered live in the same process go
/// through the same function, so a resumed report is byte-identical to
/// an uninterrupted one.
pub fn sweep_json_from_entries(base_seed: u64, entries: &[String]) -> String {
    format!(
        "{{\n  \"format_version\": {FORMAT_VERSION},\n  \"base_seed\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        base_seed,
        entries.join(",\n")
    )
}

/// Renders a fault campaign to the `BENCH_faults.json` format: the flat
/// run list (each entry a [`result_json`] record extended with its rate
/// and fault counters), followed by one degradation curve per
/// scheme × workload × geometry cell — protection (`max_disturbance`,
/// `flips`) and cost (`rfms`, `preventive_rows`) as functions of the
/// injected fault rate.
///
/// Deterministic like [`sweep_json`]: identical campaigns render to
/// identical strings at any worker count.
pub fn faults_json(base_seed: u64, scrub: bool, rates_ppm: &[u64], runs: &[Executed]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|fr| {
            let faults = match &fr.fault_stats {
                Some(f) => fault_stats_json(f),
                None => "null".to_string(),
            };
            format!(
                "    {{{},\"rate_ppm\":{},\"fault_stats\":{}}}",
                result_json_fields(&fr.result),
                fr.result.scenario.fault_rate_ppm(),
                faults
            )
        })
        .collect();

    // One curve per base cell, in first-appearance order (the campaign
    // expands rate-major, so the rate-0 pass fixes the cell order).
    let mut cells: Vec<(String, String, String)> = Vec::new();
    for fr in runs {
        let s = &fr.result.scenario;
        let cell = (
            s.scheme_label.clone(),
            s.workload.clone(),
            geometry_tag(&s.geometry),
        );
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let curves: Vec<String> = cells
        .iter()
        .map(|(scheme, workload, geom)| {
            let points: Vec<String> = runs
                .iter()
                .filter(|fr| {
                    let s = &fr.result.scenario;
                    s.scheme_label == *scheme
                        && s.workload == *workload
                        && geometry_tag(&s.geometry) == *geom
                })
                .map(|fr| match &fr.result.outcome {
                    Ok(m) => format!(
                        "{{\"rate_ppm\":{},\"injected\":{},\"repairs\":{},\
                         \"max_disturbance\":{},\"flips\":{},\"rfms\":{},\"preventive_rows\":{}}}",
                        fr.result.scenario.fault_rate_ppm(),
                        fr.fault_stats.as_ref().map_or(0, |f| f.injected()),
                        fr.fault_stats.as_ref().map_or(0, |f| f.repairs),
                        m.max_disturbance,
                        m.flips,
                        m.rfms,
                        m.counters.preventive_rows
                    ),
                    Err(e) => format!(
                        "{{\"rate_ppm\":{},\"error\":\"{}\"}}",
                        fr.result.scenario.fault_rate_ppm(),
                        esc(e)
                    ),
                })
                .collect();
            format!(
                "    {{\"scheme\":\"{}\",\"workload\":\"{}\",\"geometry\":\"{}\",\"points\":[{}]}}",
                esc(scheme),
                esc(workload),
                geom,
                points.join(",")
            )
        })
        .collect();

    let rates: Vec<String> = rates_ppm.iter().map(|r| r.to_string()).collect();
    format!(
        "{{\n  \"format_version\": {FORMAT_VERSION},\n  \"base_seed\": {},\n  \"scrub\": {},\n  \"rates_ppm\": [{}],\n  \"runs\": [\n{}\n  ],\n  \"curves\": [\n{}\n  ]\n}}\n",
        base_seed,
        scrub,
        rates.join(","),
        entries.join(",\n"),
        curves.join(",\n")
    )
}

/// Per-tenant outcome summary of one noisy-neighbor run: worst victim
/// tail latency, the hammering tenant's tail, an activations fairness
/// ratio, flip safety, and QoS throttle attribution. The `sweep --qos`
/// table and the [`qos_campaign_json`] pairs both read it.
///
/// The noisy-neighbor mix pins the hammering tenant on the **highest
/// core index** (victims occupy the lower indices), so tenant roles are
/// recovered from core position, not from a heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSummary {
    /// Worst victim read p50, in ps.
    pub victim_p50_ps: u64,
    /// Worst victim read p99, in ps.
    pub victim_p99_ps: u64,
    /// The hammering tenant's read p99, in ps.
    pub hammer_p99_ps: u64,
    /// min/max per-tenant activations (1.0 = perfectly fair).
    pub fairness_acts: f64,
    /// Bit flips in the run.
    pub flips: usize,
    /// Worst disturbance any row reached.
    pub max_disturbance: u64,
    /// ACTs the QoS throttle deferred (0 with QoS off).
    pub qos_throttled_acts: u64,
}

impl TenantSummary {
    /// Summarizes `m` by tenant role.
    pub fn of(m: &Metrics) -> Self {
        let hammer = m.per_core.iter().map(|(core, _)| core).max();
        let victims = || {
            m.per_core
                .iter()
                .filter(move |(core, _)| Some(*core) != hammer)
                .map(|(_, c)| &c.read_latency)
        };
        let acts: Vec<u64> = m.per_core.iter().map(|(_, c)| c.acts).collect();
        Self {
            victim_p50_ps: victims().map(|h| h.p50()).max().unwrap_or(0),
            victim_p99_ps: victims().map(|h| h.p99()).max().unwrap_or(0),
            hammer_p99_ps: hammer
                .and_then(|h| m.per_core.get(h))
                .map_or(0, |c| c.read_latency.p99()),
            fairness_acts: match (acts.iter().min(), acts.iter().max()) {
                (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
                _ => 0.0,
            },
            flips: m.flips,
            max_disturbance: m.max_disturbance,
            qos_throttled_acts: m.qos.as_ref().map_or(0, |q| q.throttled_acts),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"victim_p50_ps\":{},\"victim_p99_ps\":{},\
             \"hammer_p99_ps\":{},\"fairness_acts\":{},\"flips\":{},\
             \"max_disturbance\":{},\"qos_throttled_acts\":{}}}",
            self.victim_p50_ps,
            self.victim_p99_ps,
            self.hammer_p99_ps,
            num(self.fairness_acts),
            self.flips,
            self.max_disturbance,
            self.qos_throttled_acts
        )
    }
}

/// Renders a QoS campaign to the `BENCH_qos.json` format: the flat run
/// list (QoS-off pass first, then the `+qos` pass), followed by one
/// comparison pair per scheme × geometry cell — the per-tenant summaries
/// of the QoS-off and QoS-on runs side by side, so victim tail latency,
/// fairness and flip safety can be read off without re-deriving them
/// from the per-core arrays.
///
/// Deterministic like [`sweep_json`]: identical campaigns render to
/// identical strings at any worker count.
pub fn qos_campaign_json(base_seed: u64, results: &[SweepResult]) -> String {
    let entries: Vec<String> = results.iter().map(result_json).collect();
    let pairs: Vec<String> = results
        .iter()
        .filter(|r| !r.scenario.name.ends_with("+qos"))
        .filter_map(|off| {
            let on = results
                .iter()
                .find(|r| r.scenario.name == format!("{}+qos", off.scenario.name))?;
            let (Ok(m_off), Ok(m_on)) = (&off.outcome, &on.outcome) else {
                return None;
            };
            Some(format!(
                "    {{\"scheme\":\"{}\",\"workload\":\"{}\",\"geometry\":\"{}\",\
                 \"off\":{},\"qos\":{}}}",
                esc(&off.scenario.scheme_label),
                esc(&off.scenario.workload),
                geometry_tag(&off.scenario.geometry),
                TenantSummary::of(m_off).json(),
                TenantSummary::of(m_on).json()
            ))
        })
        .collect();
    format!(
        "{{\n  \"format_version\": {FORMAT_VERSION},\n  \"base_seed\": {},\n  \"scenarios\": [\n{}\n  ],\n  \"pairs\": [\n{}\n  ]\n}}\n",
        base_seed,
        entries.join(",\n"),
        pairs.join(",\n")
    )
}

/// One observed position's exact per-kind event counts, as recorded by
/// the observability ring sinks (counts are exact even when the ring
/// dropped payloads).
#[derive(Debug, Clone)]
pub struct ObsCountEntry {
    /// Position of the scenario in the sweep registry.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Seed the engine assigned to this position.
    pub seed: u64,
    /// Exact per-kind counts summed over channels, indexed like
    /// [`KIND_NAMES`].
    pub counts: [u64; KINDS],
    /// Events evicted from the bounded rings (payloads lost, counts kept).
    pub dropped: u64,
}

fn kind_counts_json(counts: &[u64; KINDS]) -> String {
    let fields: Vec<String> = KIND_NAMES
        .iter()
        .zip(counts.iter())
        .map(|(name, c)| format!("\"{name}\":{c}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the aggregate observability baseline (`BENCH_obs.json`): exact
/// per-kind event counts for every observed sweep position plus the
/// sweep-wide totals. Deterministic like [`sweep_json`] — counts depend
/// only on simulated execution, never on thread count or ring capacity,
/// so CI can diff this file byte-for-byte against a committed baseline.
///
/// Ring drops surface as a top-level `warnings` array (one entry per
/// affected position) rather than only the silent `total_dropped`
/// counter; `obs report` flags any nonzero drop it ingests.
pub fn obs_counts_json(base_seed: u64, entries: &[ObsCountEntry]) -> String {
    let mut totals = [0u64; KINDS];
    let mut total_dropped = 0u64;
    for e in entries {
        for (t, c) in totals.iter_mut().zip(e.counts.iter()) {
            *t += c;
        }
        total_dropped += e.dropped;
    }
    let warnings: Vec<String> = entries
        .iter()
        .filter(|e| e.dropped > 0)
        .map(|e| {
            format!(
                "position {} ({}) ring dropped {} events (payloads lost, counts exact)",
                e.index, e.name, e.dropped
            )
        })
        .collect();
    let lines: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"index\":{},\"name\":\"{}\",\"seed\":{},\"counts\":{},\"dropped\":{}}}",
                e.index,
                esc(&e.name),
                e.seed,
                kind_counts_json(&e.counts),
                e.dropped
            )
        })
        .collect();
    format!(
        "{{\n  \"format_version\": {FORMAT_VERSION},\n  \"base_seed\": {},\n  \"positions\": [\n{}\n  ],\n  \"totals\": {},\n  \"total_dropped\": {},\n  \"warnings\": [{}]\n}}\n",
        base_seed,
        lines.join(",\n"),
        kind_counts_json(&totals),
        total_dropped,
        mithril_obs::warnings_json(&warnings)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::SweepSpec;

    fn sample_results() -> Vec<SweepResult> {
        let spec = SweepSpec::smoke();
        let mut scenarios = spec.scenarios();
        scenarios.truncate(2);
        scenarios
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let outcome = s.run(i as u64 + 1);
                SweepResult {
                    scenario: s,
                    seed: i as u64 + 1,
                    outcome,
                }
            })
            .collect()
    }

    #[test]
    fn report_is_valid_enough_json_and_deterministic() {
        let results = sample_results();
        let a = sweep_json(7, &results);
        let b = sweep_json(7, &results);
        assert_eq!(a, b);
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, expected keys present.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"base_seed\": 7"));
        assert!(a.contains("\"per_channel\""));
        assert!(a.contains("\"geometry\""));
        // The latency histograms and per-core attribution ride in every
        // metrics object, integer-rendered.
        assert!(a.contains("\"latency\":{\"read\":{\"count\":"));
        assert!(a.contains("\"p999_ps\":"));
        assert!(a.contains("\"per_core\":[{\"core\":0,"));
        assert!(a.contains("\"trigger_share\":"));
    }

    #[test]
    fn per_core_trigger_shares_sum_to_one() {
        let mut per_core: PerCore<CoreStats> = PerCore::new();
        per_core.slot(0).mitigation_triggers = 3;
        per_core.slot(1).mitigation_triggers = 1;
        let json = per_core_json(&per_core);
        assert!(json.contains("\"trigger_share\":0.75"), "{json}");
        assert!(json.contains("\"trigger_share\":0.25"), "{json}");
        // No triggers at all: shares are 0, not NaN.
        let json = per_core_json(&PerCore::new());
        assert_eq!(json, "[]");
    }

    #[test]
    fn obs_counts_surface_drops_as_warnings() {
        let entry = |index: usize, dropped: u64| ObsCountEntry {
            index,
            name: format!("scenario-{index}"),
            seed: 1,
            counts: [0; KINDS],
            dropped,
        };
        let clean = obs_counts_json(1, &[entry(0, 0)]);
        assert!(clean.contains("\"warnings\": []"), "{clean}");
        let noisy = obs_counts_json(1, &[entry(0, 0), entry(1, 9)]);
        assert!(
            noisy.contains("\"warnings\": [\"position 1 (scenario-1) ring dropped 9 events"),
            "{noisy}"
        );
    }

    #[test]
    fn errors_serialize_without_metrics() {
        let mut results = sample_results();
        results[0].outcome = Err("no \"config\"".into());
        let s = sweep_json(1, &results);
        assert!(s.contains("\"error\":\"no \\\"config\\\"\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
    }
}
