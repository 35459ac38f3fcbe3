//! Per-crate lint policy: which rules apply where, and why.
//!
//! The policy table is the single source of truth for rule scoping. A
//! rule fires in a crate only if that crate opts in here; exemptions at
//! the crate level are documented inline so `--list-rules` and DESIGN.md
//! stay honest about what is and is not checked.

use std::path::PathBuf;

/// The lint policy for one workspace crate.
#[derive(Debug, Clone)]
pub struct CratePolicy {
    /// Crate name as it appears in diagnostics and DESIGN.md.
    pub name: String,
    /// Absolute path to the crate directory (the one containing `src/`).
    pub root: PathBuf,
    /// `no-wall-clock`: ban `Instant::now` / `SystemTime::now`. Set for
    /// every crate that runs under the deterministic simulator.
    pub wall_clock: bool,
    /// `no-unordered-iter`: ban `HashMap` / `HashSet` by name. Set for
    /// crates whose iteration order can feed the message schedule.
    pub unordered_iter: bool,
    /// `no-panic-hot-path`: crate-relative files (e.g. `src/wal.rs`)
    /// where `unwrap`/`expect`/`panic!`/indexing are banned.
    pub panic_files: Vec<String>,
    /// `atomics-ordering`: require a `// ordering:` justification next to
    /// every `Ordering::*` use.
    pub atomics_ordering: bool,
    /// `metrics-hygiene`: allowed metric-name prefixes for this crate;
    /// `None` disables the rule (crate registers no metrics, or is the
    /// metrics implementation itself).
    pub metric_prefixes: Option<Vec<String>>,
    /// `forbid-unsafe`: require `#![forbid(unsafe_code)]` in the crate
    /// root (`src/lib.rs` / `src/main.rs`).
    pub forbid_unsafe: bool,
    /// `max-file-lines`: budget on non-test lines per file (the region
    /// before `#[cfg(test)]`); `None` disables the rule. The default 600
    /// is the god-object tripwire — a module that large is hiding more
    /// than one responsibility (the PR-5 `storage_node.rs` split is the
    /// motivating case).
    pub max_file_lines: Option<usize>,
}

impl CratePolicy {
    fn new(name: &str, root: PathBuf) -> Self {
        CratePolicy {
            name: name.to_string(),
            root,
            wall_clock: false,
            unordered_iter: false,
            panic_files: Vec::new(),
            atomics_ordering: false,
            metric_prefixes: None,
            forbid_unsafe: true,
            max_file_lines: Some(600),
        }
    }
}

/// Builds the workspace policy table rooted at `workspace_root`.
///
/// Scoping decisions (kept in sync with DESIGN.md §10):
///
/// * **sim-deterministic crates** (`bson`, `ring`, `engine`, `net`,
///   `gossip`, `cache`, `core`, `workload`): wall-clock banned. The
///   threaded runtime in `net` carries a file-level allow — it exists to
///   drive real OS time; the determinism contract covers the sim runtime.
/// * **obs** is the designated wall-clock seam (`Stopwatch`) and the
///   atomics implementation, so it is exempt from `no-wall-clock` but is
///   the sole target of `atomics-ordering`.
/// * **bench** and **baselines** measure/compare against real time and
///   never run inside the simulator: exempt from determinism rules.
/// * **cache** holds a per-key LRU `HashMap` that is only ever probed by
///   key, never iterated, so `no-unordered-iter` is off there.
/// * **compat/** crates are vendored third-party subsets and are not
///   scanned at all.
pub fn workspace_policy(workspace_root: &std::path::Path) -> Vec<CratePolicy> {
    let c = |n: &str| workspace_root.join("crates").join(n);
    let mut out = Vec::new();

    let mut bson = CratePolicy::new("bson", c("bson"));
    bson.wall_clock = true;
    out.push(bson);

    let mut ring = CratePolicy::new("ring", c("ring"));
    ring.wall_clock = true;
    ring.unordered_iter = true;
    out.push(ring);

    let mut engine = CratePolicy::new("engine", c("engine"));
    engine.wall_clock = true;
    engine.unordered_iter = true;
    engine.panic_files = vec!["src/wal.rs".into(), "src/db.rs".into()];
    engine.metric_prefixes = Some(vec!["wal.".into()]);
    out.push(engine);

    let mut net = CratePolicy::new("net", c("net"));
    net.wall_clock = true;
    net.unordered_iter = true;
    net.metric_prefixes = Some(vec!["fault.".into(), "partition.".into(), "sim.".into()]);
    out.push(net);

    let mut gossip = CratePolicy::new("gossip", c("gossip"));
    gossip.wall_clock = true;
    gossip.unordered_iter = true;
    gossip.metric_prefixes = Some(vec!["gossip.".into()]);
    out.push(gossip);

    let mut cache = CratePolicy::new("cache", c("cache"));
    cache.wall_clock = true;
    cache.metric_prefixes = Some(vec!["cache.".into()]);
    out.push(cache);

    let mut core = CratePolicy::new("core", c("core"));
    core.wall_clock = true;
    core.unordered_iter = true;
    core.panic_files = vec![
        "src/storage_node/mod.rs".into(),
        "src/storage_node/coordinator/mod.rs".into(),
        "src/storage_node/coordinator/driver.rs".into(),
        "src/storage_node/coordinator/put.rs".into(),
        "src/storage_node/coordinator/get.rs".into(),
        "src/storage_node/coordinator/cas.rs".into(),
        "src/storage_node/replica.rs".into(),
        "src/storage_node/maintenance.rs".into(),
        "src/storage_node/migrate/cursor.rs".into(),
        "src/storage_node/migrate/mod.rs".into(),
        "src/storage_node/migrate/plan.rs".into(),
        "src/storage_node/sync.rs".into(),
        "src/sync.rs".into(),
        "src/frontend.rs".into(),
    ];
    core.metric_prefixes = Some(vec![
        "quorum.".into(),
        "read_repair.".into(),
        "hint.".into(),
        "retry.".into(),
        "node.".into(),
        "batch.".into(),
        "frontend.".into(),
        "cas.".into(),
        "sync.".into(),
        "migrate.".into(),
    ]);
    out.push(core);

    let mut workload = CratePolicy::new("workload", c("workload"));
    workload.wall_clock = true;
    workload.unordered_iter = true;
    workload.panic_files = vec![
        "src/matrix/mod.rs".into(),
        "src/matrix/client.rs".into(),
        "src/matrix/schedule.rs".into(),
    ];
    out.push(workload);

    let mut obs = CratePolicy::new("obs", c("obs"));
    obs.atomics_ordering = true;
    out.push(obs);

    out.push(CratePolicy::new("baselines", c("baselines")));
    out.push(CratePolicy::new("bench", c("bench")));
    out.push(CratePolicy::new("lint", c("lint")));

    // The production runtime (`mystore-serverd`, DESIGN.md §12) is the
    // designated real-transport seam: real sockets, real threads, and the
    // wall clock are its entire job, so `no-wall-clock` is scoped off here
    // — exactly like the threaded runtime's file-level allow in `net`. The
    // sim-facing crates above stay clock-free, which is what keeps the
    // simulator a valid oracle for the state machines the server hosts.
    let mut server = CratePolicy::new("server", c("server"));
    server.unordered_iter = true;
    server.metric_prefixes = Some(vec!["server.".into()]);
    out.push(server);

    // The facade crate at the workspace root (src/lib.rs re-exports).
    out.push(CratePolicy::new("mystore", workspace_root.to_path_buf()));

    out
}

/// A policy with every rule enabled, used for fixture files and ad-hoc
/// single-file runs (`mystore-lint path/to/file.rs`). Metric prefixes
/// default to `app.`; all files count as hot-path.
pub fn strict_policy(root: PathBuf) -> CratePolicy {
    CratePolicy {
        name: "adhoc".to_string(),
        root,
        wall_clock: true,
        unordered_iter: true,
        panic_files: vec!["*".into()],
        atomics_ordering: true,
        metric_prefixes: Some(vec!["app.".into()]),
        forbid_unsafe: true,
        max_file_lines: Some(40),
    }
}
