//! Metric definitions (the single source `BENCHMARK.json` is generated
//! from), result printing, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Each is reported per workload, measured
/// with span recording and allocation counting off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("sat_ops_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("wal_bytes_per_user_byte", "B/B", Lower, 0.05),
];

/// Single layers, from the traced pass. No bounds: they explain a change
/// in an end-to-end metric, they do not gate one.
pub const PER_LAYER: &[MetricDef] = &[
    layer("http.self_us", "us", Lower),
    layer("frontend.self_us", "us", Lower),
    layer("frontend.shed", "count", Lower),
    layer("frontend.timeouts", "count", Lower),
    layer("frontend.redispatches", "count", Lower),
    layer("gateway.hop_us", "us", Lower),
    layer("gateway.rtt_floor_us", "us", Lower),
    layer("gateway.sat_ratio_w16_w4", "ratio", Higher),
    layer("coordinator.self_us", "us", Lower),
    layer("coordinator.write_mean_us", "us", Lower),
    layer("coordinator.read_mean_us", "us", Lower),
    layer("coordinator.resends_per_op", "ratio", Lower),
    layer("coordinator.replica_msgs_per_put", "ratio", Lower),
    layer("coordinator.hints_stored", "count", Lower),
    layer("coordinator.read_repair_pushes", "count", Lower),
    layer("codec.encode_ns", "ns", Lower),
    layer("codec.decode_ns", "ns", Lower),
    layer("codec.wire_bytes_per_user_byte", "B/B", Lower),
    layer("frame.write_ns", "ns", Lower),
    layer("frame.read_ns", "ns", Lower),
    layer("ring.key_point_ns", "ns", Lower),
    layer("ring.preference_list_ns", "ns", Lower),
    layer("bson.encode_ns", "ns", Lower),
    layer("bson.decode_ns", "ns", Lower),
    layer("bson.bytes_per_user_byte", "B/B", Lower),
    layer("engine.put_record_us", "us", Lower),
    layer("engine.get_record_us", "us", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.sync_us", "us", Lower),
    layer("wal.sync_mean_us", "us", Lower),
    layer("wal.batch_ops_mean", "ratio", Higher),
    layer("wal.fsyncs_per_put", "ratio", Lower),
    layer("wal.appends_per_put", "ratio", Lower),
    layer("gossip.rounds_per_s", "1/s", Lower),
    layer("proc.user_cpu_us_per_op", "us", Lower),
    layer("proc.sys_cpu_us_per_op", "us", Lower),
    layer("proc.ctx_switches_per_op", "ratio", Lower),
    layer("proc.minor_faults_per_op", "ratio", Lower),
    layer("proc.threads", "count", Lower),
    layer("alloc.count_per_op", "ratio", Lower),
    layer("alloc.payload_allocs_per_op", "ratio", Lower),
    layer("alloc.bytes_per_user_byte", "B/B", Lower),
    layer("client.get_p99_us", "us", Lower),
    layer("client.put_p99_us", "us", Lower),
    layer("client.error_ratio", "ratio", Lower),
    layer("client.sched_lag_p99_us", "us", Lower),
    layer("client.achieved_rate_ratio", "ratio", Higher),
    layer("client.inflight_max", "count", Lower),
    layer("client.over_limit_ratio", "ratio", Lower),
    layer("ladder.http_p50_us", "us", Lower),
    layer("ladder.wire_p50_us", "us", Lower),
    layer("ladder.coord_p50_us", "us", Lower),
    layer("ladder.inproc_p50_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// One measured value and the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

/// Values in definition order; panics if a pass forgot or invented one,
/// which is a bug in this program.
pub fn ordered(
    defs: &'static [MetricDef],
    mut got: Vec<Metric>,
) -> Vec<(&'static MetricDef, Metric)> {
    let out: Vec<_> = defs
        .iter()
        .map(|d| {
            let at = got
                .iter()
                .position(|m| m.name == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (d, got.swap_remove(at))
        })
        .collect();
    assert!(got.is_empty(), "metric {} is not defined", got[0].name);
    out
}

/// `name workload value unit n=<samples>`, one line per metric.
pub fn print_lines(workload: &str, metrics: &[(&MetricDef, Metric)]) {
    for (def, m) in metrics {
        println!("{} {workload} {} {} n={}", def.name, m.value, def.unit, m.n);
    }
}

/// The result line of the benchmark contract.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name, m.value, def.unit
        );
    }
    out.push_str("}}");
    out
}

/// `run_seconds` of `BENCHMARK.json`: what fits the driver's time budget.
const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated so the file cannot drift from the code.
pub fn manifest() -> String {
    let word = |b: Better| if b == Lower { "lower" } else { "higher" };
    let field = |d: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            word(d.better)
        )
    };
    let array = |key: &str, rows: Vec<String>| {
        format!("  \"{key}\": [\n    {{{}}}\n  ]", rows.join("},\n    {"))
    };
    let sections = [
        "  \"command\": [\"bash\", \"benchmark/run.sh\"]".to_string(),
        "  \"paths\": [\"benchmark\"]".to_string(),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        array(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why))
                .collect(),
        ),
        array(
            "end_to_end",
            END_TO_END.iter().map(|d| format!("{}, \"bound\": {}", field(d), d.bound)).collect(),
        ),
        array("per_layer", PER_LAYER.iter().map(field).collect()),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

// ---- compare ----------------------------------------------------------------

/// `workload → metric → value` of the end-to-end section of a result file.
fn end_to_end_of(path: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = root
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    let mut out = BTreeMap::new();
    for (name, w) in workloads.iter() {
        let metrics = w
            .get("end_to_end")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: {name} has no \"end_to_end\" object"))?;
        let values = metrics
            .iter()
            .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.insert(name.clone(), values);
    }
    Ok(out)
}

/// By how much `b` is worse than `a`, as a share of `a`; negative = better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Lower => (b - a) / a,
        Higher => (a - b) / a,
    }
}

/// Prints each `(metric, workload)` delta of result file `b` against `a`
/// and its bound. `Ok(true)` when no bound is breached.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (ra, rb) = (end_to_end_of(a)?, end_to_end_of(b)?);
    let mut clean = true;
    println!(
        "{:<26}{:<16}{:>14}{:>14}{:>9}{:>8}",
        "metric", "workload", "A", "B", "worse", "bound"
    );
    for w in &WORKLOADS {
        for d in END_TO_END {
            let pick = |r: &BTreeMap<String, BTreeMap<String, f64>>| {
                r.get(w.name).and_then(|m| m.get(d.name)).copied()
            };
            let (Some(va), Some(vb)) = (pick(&ra), pick(&rb)) else {
                println!("{:<26}{:<16} missing from one of the files", d.name, w.name);
                clean = false;
                continue;
            };
            let worse = worsening(d.better, va, vb);
            let breach = worse > d.bound;
            clean &= !breach;
            println!(
                "{:<26}{:<16}{:>14.3}{:>14.3}{:>+8.1}%{:>7.0}%{}",
                d.name,
                w.name,
                va,
                vb,
                worse * 100.0,
                d.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Lower, 100.0, 112.0) - 0.12).abs() < 1e-9);
        assert!((worsening(Higher, 100.0, 88.0) - 0.12).abs() < 1e-9);
        assert!(worsening(Lower, 100.0, 90.0) < 0.0);
        assert!(worsening(Higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// The checked-in manifest is the generated one.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `cargo run -- manifest`");
    }
}
