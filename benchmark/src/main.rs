//! The MyStore benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! mystore-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mystore-benchmark run all [--quick] [--seed <n>] [--seconds <s>]
//! mystore-benchmark compare <A.json> <B.json>
//! mystore-benchmark manifest
//! ```
//!
//! The first form is one pass over one workload (`--trace 0`: the measured
//! run and the end-to-end metrics; `--trace 1`: the traced pass and the
//! per-layer metrics); its last line of standard output is the result
//! object. `run all` runs both passes of all four workloads, each in a
//! process of its own, and writes `out/result.json`.

mod alloc;
mod bench;
mod client;
mod cluster;
mod load;
mod report;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::bench::PassResult;
use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What `run all` measures per pass unless told otherwise (20 s open loop
/// + 10 s closed loop), and under `--quick`.
const DEFAULT_SECONDS: f64 = 30.0;
const QUICK_SECONDS: f64 = 4.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mystore-benchmark: {e}");
            1
        }
    };
    // Every guard (temp dirs, hosts) has been dropped by now.
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
        None => Ok(default),
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") if args.get(1).map(String::as_str) == Some("all") => run_all(&args[2..]),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(if report::compare(a, b)? { 0 } else { 2 }),
            _ => Err("usage: compare <A.json> <B.json>".into()),
        },
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(0)
        }
        _ if flag(args, "--workload").is_some() => one_pass(args),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run all [--quick] | compare A.json B.json | manifest"
            .into()),
    }
}

/// One pass over one workload: metric lines, then the result object.
fn one_pass(args: &[String]) -> Result<i32, String> {
    let name = flag(args, "--workload").unwrap_or_default();
    let w = workload::find(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    eprintln!(
        "{name}: seed {seed}, {seconds} s, trace {trace}, {} hardware threads",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (defs, pass): (&[MetricDef], PassResult) = match trace {
        0 => (END_TO_END, bench::end_to_end(w, seed, seconds)?),
        1 => (PER_LAYER, bench::traced(w, seed, seconds)?),
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let metrics = report::ordered(defs, pass.metrics);
    println!("# {name} {}", pass.validity);
    report::print_lines(name, &metrics);
    if pass.failed > 0 {
        eprintln!("{name}: {} of {} operations FAILED, among them:", pass.failed, pass.attempted);
        pass.failures.iter().for_each(|f| eprintln!("  {f}"));
    }
    println!("{}", report::result_line(pass.failed == 0, pass.attempted, pass.failed, &metrics));
    Ok(0)
}

/// Both passes of every workload, each in its own process so that
/// `peak_rss_mb` is that pass's alone. Exits non-zero when any operation
/// failed or an open-loop phase was invalid.
fn run_all(args: &[String]) -> Result<i32, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 =
        parsed(args, "--seconds", if quick { QUICK_SECONDS } else { DEFAULT_SECONDS })?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut clean = true;
    let mut workloads = serde_json::Map::new();
    for w in &WORKLOADS {
        let mut entry = serde_json::Map::new();
        let (mut attempted, mut failed, mut valid) = (0, 0, true);
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn pass: {e}"))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            let mut metrics = serde_json::Map::new();
            let mut last = String::new();
            for line in BufReader::new(stdout).lines() {
                let line = line.map_err(|e| format!("read pass output: {e}"))?;
                let fields: Vec<&str> = line.split_whitespace().collect();
                if line.starts_with('#') {
                    valid &= !line.contains("INVALID");
                    println!("{line}");
                } else if let [name, _, value, unit, n] = fields[..] {
                    let note = if quick { "  (quick: not for comparison)" } else { "" };
                    println!("{line}{note}");
                    let mut m = serde_json::Map::new();
                    m.insert("value".into(), Value::Number(value.parse().unwrap_or(f64::NAN)));
                    m.insert("unit".into(), Value::String(unit.into()));
                    let n = n.trim_start_matches("n=").parse().unwrap_or(0.0);
                    m.insert("n".into(), Value::Number(n));
                    metrics.insert(name.into(), Value::Object(m));
                }
                last = line;
            }
            let status = child.wait().map_err(|e| format!("wait for pass: {e}"))?;
            if !status.success() {
                return Err(format!("{} --trace {trace} exited with {status}", w.name));
            }
            let result = serde_json::from_str(&last).map_err(|e| format!("result line: {e}"))?;
            let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
            attempted += count("attempted");
            failed += count("failed");
            entry.insert(section.into(), Value::Object(metrics));
        }
        if failed > 0 || !valid {
            clean = false;
            println!("# {} NOT A RESULT: failed={failed} valid={valid}", w.name);
        }
        entry.insert("attempted".into(), Value::Number(attempted as f64));
        entry.insert("failed".into(), Value::Number(failed as f64));
        entry.insert("valid".into(), Value::Bool(valid));
        workloads.insert(w.name.into(), Value::Object(entry));
    }
    let mut root = serde_json::Map::new();
    root.insert("kind".into(), Value::String("measured".into()));
    root.insert("not_for_comparison".into(), Value::Bool(quick));
    root.insert("seed".into(), Value::Number(seed as f64));
    root.insert("seconds".into(), Value::Number(seconds));
    root.insert("workloads".into(), Value::Object(workloads));
    let path = cluster::out_dir().join("result.json");
    std::fs::create_dir_all(cluster::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let text = serde_json::to_string_pretty(&Value::Object(root)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(if clean { 0 } else { 2 })
}
