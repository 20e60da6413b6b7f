//! Every report the runner and the trace tool write must parse as JSON
//! (RFC 8259), free text included. Scenario names embed CLI paths and
//! errors embed messages, so a writer that leaves a raw newline or tab
//! inside a string emits a document strict readers reject.

use mithril_obs::json::Json;
use mithril_obs::KINDS;
use mithril_runner::engine::PoolConfig;
use mithril_runner::report::{
    faults_json, metrics_only_json, obs_counts_json, qos_campaign_json, sweep_json, ObsCountEntry,
    SweepResult,
};
use mithril_runner::scenarios::{workload, FaultCampaignSpec, QosCampaignSpec, SweepSpec};
use mithril_runner::{run_passes, run_sweep};
use mithril_sim::SystemConfig;
use mithril_trace::{record_thread_set, stats_from_reader, MtrcReader, MtrcWriter, TraceHeader};

/// Free text with every kind of character an escaper must handle.
const NASTY: &str = "trace:/tmp/a\nb\tc\"d\\e\u{1}";

fn parses(what: &str, doc: &str) -> Json {
    Json::parse(doc).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}\n{doc}"))
}

fn pool() -> PoolConfig {
    PoolConfig {
        threads: 2,
        shard_size: 1,
    }
}

fn tiny(mut spec: SweepSpec) -> SweepSpec {
    spec.insts_per_core = 400;
    spec.cores = 2;
    spec.geometries.truncate(1);
    spec.workloads.truncate(1);
    spec
}

#[test]
fn sweep_and_metrics_only_reports_parse() {
    let mut results = run_sweep(&tiny(SweepSpec::smoke()), pool(), 1);
    results[0].scenario.name = NASTY.into();
    results[0].scenario.workload = NASTY.into();
    results[1].outcome = Err(NASTY.into());
    let doc = parses("sweep report", &sweep_json(1, &results));
    let entries = doc.get("scenarios").and_then(Json::as_arr).unwrap();
    assert_eq!(entries[0].get("name").and_then(Json::as_str), Some(NASTY));
    assert_eq!(entries[1].get("error").and_then(Json::as_str), Some(NASTY));
    parses("metrics-only report", &metrics_only_json(1, &results));
}

#[test]
fn campaign_reports_parse() {
    let mut faults = FaultCampaignSpec::smoke();
    faults.base = tiny(faults.base);
    faults.rates_ppm = vec![0, 10_000];
    let mut runs = run_passes(&faults.passes(), pool(), 1, None, false);
    runs[0].result.scenario.scheme_label = NASTY.into();
    runs[1].result.outcome = Err(NASTY.into());
    parses(
        "fault campaign report",
        &faults_json(1, faults.scrub, &faults.rates_ppm, &runs),
    );

    let mut qos = QosCampaignSpec::smoke();
    qos.base = tiny(qos.base);
    let results: Vec<SweepResult> = run_passes(&qos.passes(), pool(), 1, None, false)
        .into_iter()
        .map(|mut r| {
            r.result.scenario.scheme_label = NASTY.into();
            r.result
        })
        .collect();
    let doc = parses("QoS campaign report", &qos_campaign_json(1, &results));
    let pairs = doc.get("pairs").and_then(Json::as_arr).unwrap();
    assert!(!pairs.is_empty());
    assert_eq!(pairs[0].get("scheme").and_then(Json::as_str), Some(NASTY));
}

#[test]
fn obs_counts_with_a_ring_drop_warning_parse() {
    let entry = ObsCountEntry {
        index: 0,
        name: NASTY.into(),
        seed: 1,
        counts: [1; KINDS],
        dropped: 3,
    };
    let doc = parses("obs counts", &obs_counts_json(1, &[entry]));
    let warnings = doc.get("warnings").and_then(Json::as_arr).unwrap();
    let warning = warnings[0].as_str().unwrap();
    assert!(warning.contains(NASTY), "{warning}");
}

#[test]
fn trace_stat_parses() {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 2;
    let header = TraceHeader {
        geometry: cfg.geometry,
        cores: 2,
        base_seed: 1,
        insts_per_core: 500,
        source: NASTY.into(),
    };
    let mut writer = MtrcWriter::new(Vec::new(), &header).unwrap();
    record_thread_set(&mut workload("mix-high", 2, &cfg, 1), 500, &mut writer).unwrap();
    let bytes = writer.finish().unwrap();
    let stats = stats_from_reader(MtrcReader::new(&bytes[..]).unwrap(), 5).unwrap();
    let doc = parses("trace stat", &stats.render_json());
    assert_eq!(doc.get("source").and_then(Json::as_str), Some(NASTY));
}
