//! The source rules no compiler lint covers, checked by plain line scans
//! over every workspace crate's `src/` (DESIGN.md §10):
//!
//! * `atomics-ordering`: every memory `Ordering::*` in `mystore-obs` has
//!   an `// ordering:` comment on its line or the line above;
//! * `metrics-hygiene`: each metric-registering crate's names carry one of
//!   its prefixes, and no name is registered twice in the workspace;
//! * `max-file-lines`: at most 600 lines before a file's test module;
//! * `forbid-unsafe`: every crate root carries `#![forbid(unsafe_code)]`.
//!
//! The rest of the determinism contract is clippy's: each crate's
//! `clippy.toml` and the `#![deny(..)]` heading each hot-path file. The
//! drift guards below hold those to the scope tables here, and every rule
//! runs once on an inline bad sample, so a rule that stops firing fails
//! here instead of passing silently.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Lines a file may hold before its `#[cfg(test)]` module.
const MAX_FILE_LINES: usize = 600;

/// Files exempt from [`MAX_FILE_LINES`], each with its reason.
const LONG_FILES: &[(&str, &str)] = &[(
    "crates/net/src/sim.rs",
    "the event loop, queueing model, fault injection and scheduler share one heap and one \
     RNG draw order; splitting them would spread the determinism invariant across files",
)];

/// Crates that register metrics, with the prefixes their names may use.
const METRIC_PREFIXES: &[(&str, &[&str])] = &[
    ("engine", &["wal."]),
    ("net", &["fault.", "partition.", "sim."]),
    ("gossip", &["gossip."]),
    ("cache", &["cache."]),
    (
        "core",
        &[
            "quorum.",
            "read_repair.",
            "hint.",
            "retry.",
            "node.",
            "batch.",
            "frontend.",
            "cas.",
            "sync.",
            "migrate.",
        ],
    ),
    ("server", &["server."]),
];

/// `no-wall-clock`: crates that run under the simulator.
const NO_WALL_CLOCK: &[&str] =
    &["bson", "cache", "ring", "engine", "net", "gossip", "core", "workload"];

/// `no-unordered-iter`: crates whose iteration order can feed the schedule.
const NO_UNORDERED_ITER: &[&str] =
    &["ring", "engine", "net", "gossip", "core", "workload", "server"];

/// `no-panic-hot-path`: files that deny the panic lints outside tests.
const HOT_PATH_FILES: &[&str] = &[
    "crates/engine/src/wal.rs",
    "crates/engine/src/db.rs",
    "crates/core/src/storage_node/mod.rs",
    "crates/core/src/storage_node/coordinator/mod.rs",
    "crates/core/src/storage_node/coordinator/driver.rs",
    "crates/core/src/storage_node/coordinator/put.rs",
    "crates/core/src/storage_node/coordinator/get.rs",
    "crates/core/src/storage_node/coordinator/cas.rs",
    "crates/core/src/storage_node/replica.rs",
    "crates/core/src/storage_node/maintenance.rs",
    "crates/core/src/storage_node/migrate/cursor.rs",
    "crates/core/src/storage_node/migrate/mod.rs",
    "crates/core/src/storage_node/migrate/plan.rs",
    "crates/core/src/storage_node/sync.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/frontend.rs",
    "crates/workload/src/matrix/mod.rs",
    "crates/workload/src/matrix/client.rs",
    "crates/workload/src/matrix/schedule.rs",
];

const HOT_PATH_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
     clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]";

/// One source file: its workspace-relative path and its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    fn new(path: &str, text: &str) -> Source {
        Source { path: path.to_string(), text: text.to_string() }
    }

    /// Numbered (from 1) lines before the first `#[cfg(..test..)]`
    /// attribute, `//` comments cut off. Test modules sit at the bottom
    /// of a file, so this is the code the rules cover.
    fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text
            .lines()
            .map(code)
            .take_while(|l| !is_test_cfg(l))
            .enumerate()
            .map(|(i, l)| (i + 1, l))
    }
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The crates the rules cover, by name: `crates/*` except the vendored
/// `compat` subsets, plus the facade at the root as `mystore`.
fn crate_dirs() -> BTreeMap<String, PathBuf> {
    let mut out = BTreeMap::from([("mystore".to_string(), root())]);
    for entry in fs::read_dir(root().join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 crate dir").to_string();
        if name != "compat" && dir.join("Cargo.toml").is_file() {
            out.insert(name, dir);
        }
    }
    out
}

/// Every `.rs` file under `dir/src`, sorted.
fn sources(dir: &Path) -> Vec<Source> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("read src dir") {
            let path = entry.expect("src entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    walk(&dir.join("src"), &mut paths);
    paths.sort();
    paths
        .iter()
        .map(|p| Source {
            path: p.strip_prefix(root()).expect("under the root").to_string_lossy().into_owned(),
            text: fs::read_to_string(p).expect("read source"),
        })
        .collect()
}

/// `line` without its `//` comment. A `//` inside a string literal is
/// kept; `'"'` is not taken for the start of one.
fn code(line: &str) -> &str {
    let b = line.as_bytes();
    let (mut i, mut in_str) = (0, false);
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'\'' if b.get(i + 1) == Some(&b'"') && b.get(i + 2) == Some(&b'\'') => i += 2,
            b'/' if !in_str && b.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn is_test_cfg(code: &str) -> bool {
    let code = code.trim_start();
    code.starts_with("#[cfg(")
        && code.split(|c: char| !c.is_alphanumeric() && c != '_').any(|w| w == "test")
}

/// `atomics-ordering` findings in one file.
fn atomics_ordering(src: &Source) -> Vec<String> {
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let raw: Vec<&str> = src.text.lines().collect();
    let justified = |n: usize| n >= 1 && raw.get(n - 1).is_some_and(|l| l.contains("// ordering:"));
    let mut out = Vec::new();
    for (n, line) in src.code_lines() {
        let uses = ORDERINGS.iter().any(|o| {
            line.match_indices(&format!("Ordering::{o}"))
                .any(|(i, m)| !line[i + m.len()..].starts_with(|c: char| c.is_alphanumeric()))
        });
        if uses && !justified(n) && !justified(n - 1) {
            out.push(format!(
                "{}:{n}: atomics-ordering: a memory Ordering needs an `// ordering:` comment \
                 on this or the previous line",
                src.path
            ));
        }
    }
    out
}

/// Metric names registered by literal in one file: each
/// `counter("..")`, `gauge("..")` or `histogram("..")`, with its line.
fn metric_names(src: &Source) -> Vec<(usize, String)> {
    let lines: Vec<(usize, &str)> = src.code_lines().collect();
    let mut out = Vec::new();
    for (k, &(n, line)) in lines.iter().enumerate() {
        for call in ["counter(", "gauge(", "histogram("] {
            for (i, _) in line.match_indices(call) {
                if line[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                // rustfmt may put a long call's argument on the next line.
                let mut arg = line[i + call.len()..].trim_start();
                if arg.is_empty() {
                    arg = lines.get(k + 1).map_or("", |(_, next)| next.trim_start());
                }
                if let Some(name) = arg.strip_prefix('"').and_then(|a| a.split('"').next()) {
                    out.push((n, name.to_string()));
                }
            }
        }
    }
    out
}

/// `metrics-hygiene` findings over `(prefixes, file)` pairs: a name
/// without one of its crate's prefixes, or one registered twice.
fn metrics_hygiene(files: &[(&[&str], Source)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut first_site: BTreeMap<String, String> = BTreeMap::new();
    for (prefixes, src) in files {
        for (n, name) in metric_names(src) {
            let site = format!("{}:{n}", src.path);
            if !prefixes.iter().any(|p| name.starts_with(p)) {
                out.push(format!(
                    "{site}: metrics-hygiene: metric \"{name}\" lacks one of its crate's \
                     prefixes ({})",
                    prefixes.join(", ")
                ));
            }
            if let Some(first) = first_site.get(&name) {
                out.push(format!(
                    "{site}: metrics-hygiene: metric \"{name}\" is registered more than once \
                     (first at {first}); resolve the handle once and share it"
                ));
            } else {
                first_site.insert(name, site);
            }
        }
    }
    out
}

/// `max-file-lines` finding for one file, unless it is in [`LONG_FILES`].
fn max_file_lines(src: &Source) -> Option<String> {
    let lines = src.code_lines().count();
    let exempt = LONG_FILES.iter().any(|(path, _)| *path == src.path);
    (lines > MAX_FILE_LINES && !exempt).then(|| {
        format!(
            "{}: max-file-lines: {lines} non-test lines, over the {MAX_FILE_LINES}-line \
             budget; split the module",
            src.path
        )
    })
}

/// `forbid-unsafe` finding for a crate root.
fn forbid_unsafe(src: &Source) -> Option<String> {
    let has = src.text.lines().any(|l| code(l).trim() == "#![forbid(unsafe_code)]");
    (!has).then(|| format!("{}: forbid-unsafe: crate root lacks #![forbid(unsafe_code)]", src.path))
}

/// `no-panic-hot-path` findings for a hot-path file: it must open with
/// [`HOT_PATH_DENY`] (in whatever layout rustfmt gives it), and must not
/// index a map (`map[&k]`, `map["k"]`), which panics on a missing key and
/// which `clippy::indexing_slicing` does not cover.
fn hot_path(src: &Source) -> Vec<String> {
    let squash = |s: &str| s.split_whitespace().collect::<String>().replace(",)]", ")]");
    let mut head = String::new();
    for line in src.text.lines().skip_while(|l| l.starts_with("//!") || l.trim().is_empty()) {
        head.push_str(line);
        if line.trim_end().ends_with(")]") {
            break;
        }
    }
    let mut out = Vec::new();
    if squash(&head) != squash(HOT_PATH_DENY) {
        out.push(format!("{}: no-panic-hot-path: does not open with {HOT_PATH_DENY}", src.path));
    }
    for (n, line) in src.code_lines() {
        let indexes_map = ["[&", "[\""].iter().any(|open| {
            line.match_indices(open).any(|(i, _)| {
                line[..i].ends_with(|c: char| c.is_alphanumeric() || matches!(c, '_' | ')' | ']'))
            })
        });
        if indexes_map {
            out.push(format!(
                "{}:{n}: no-panic-hot-path: indexing a map panics on a missing key; use .get()",
                src.path
            ));
        }
    }
    out
}

fn assert_clean(findings: Vec<String>) {
    assert!(findings.is_empty(), "\n{}\n", findings.join("\n"));
}

#[test]
fn obs_atomics_orderings_are_justified() {
    let files = sources(&root().join("crates/obs"));
    assert!(!files.is_empty());
    assert_clean(files.iter().flat_map(atomics_ordering).collect());
}

#[test]
fn metric_names_are_prefixed_and_registered_once() {
    let dirs = crate_dirs();
    let files: Vec<(&[&str], Source)> = METRIC_PREFIXES
        .iter()
        .flat_map(|(name, prefixes)| sources(&dirs[*name]).into_iter().map(move |s| (*prefixes, s)))
        .collect();
    assert!(files.iter().any(|(_, s)| !metric_names(s).is_empty()), "no registration found");
    assert_clean(metrics_hygiene(&files));
}

#[test]
fn source_files_stay_within_the_line_budget() {
    let files: Vec<Source> = crate_dirs().values().flat_map(|d| sources(d)).collect();
    for (path, _) in LONG_FILES {
        assert!(files.iter().any(|s| s.path == *path), "exempt file {path} is gone");
    }
    assert_clean(files.iter().filter_map(max_file_lines).collect());
}

#[test]
fn crate_roots_forbid_unsafe_code() {
    let mut roots = 0;
    let mut findings = Vec::new();
    for dir in crate_dirs().values() {
        for path in [dir.join("src/lib.rs"), dir.join("src/main.rs")] {
            if let Ok(text) = fs::read_to_string(&path) {
                roots += 1;
                let path = path.strip_prefix(root()).expect("under the root").to_string_lossy();
                findings.extend(forbid_unsafe(&Source::new(&path, &text)));
            }
        }
    }
    assert!(roots > 10, "only {roots} crate roots found");
    assert_clean(findings);
}

#[test]
fn clippy_toml_bans_what_the_scope_tables_ban() {
    let dirs = crate_dirs();
    let mut findings = Vec::new();
    let mut require = |krate: &str, needle: &str| {
        let toml = fs::read_to_string(dirs[krate].join("clippy.toml")).unwrap_or_default();
        if !toml.contains(needle) {
            findings.push(format!("crates/{krate}/clippy.toml lacks `{needle}`"));
        }
    };
    for krate in NO_WALL_CLOCK {
        require(krate, r#"path = "std::time::Instant::now""#);
        require(krate, r#"path = "std::time::SystemTime::now""#);
    }
    for krate in NO_UNORDERED_ITER {
        require(krate, r#"path = "std::collections::HashMap""#);
        require(krate, r#"path = "std::collections::HashSet""#);
    }
    for file in HOT_PATH_FILES {
        let krate = file.split('/').nth(1).expect("crates/<name>/..");
        for what in ["unwrap", "expect", "panic", "indexing-slicing"] {
            require(krate, &format!("allow-{what}-in-tests = true"));
        }
    }
    assert_clean(findings);
}

#[test]
fn hot_path_files_deny_panics() {
    let files: Vec<Source> = HOT_PATH_FILES
        .iter()
        .map(|f| Source::new(f, &fs::read_to_string(root().join(f)).expect("read hot-path file")))
        .collect();
    assert_clean(files.iter().flat_map(hot_path).collect());
}

#[test]
fn every_rule_fires_on_a_bad_sample() {
    let atomics = Source::new(
        "obs/src/x.rs",
        "use std::cmp::Ordering::Less;\n\
         fn f(a: &AtomicU64) -> u64 {\n    \
             // ordering: independent counter\n    \
             a.fetch_add(1, Ordering::Relaxed);\n    \
             a.load(Ordering::SeqCst) // Ordering::Relaxed in a comment is free\n\
         }\n\
         #[cfg(test)]\n\
         fn t(a: &AtomicU64) { a.load(Ordering::Acquire); }\n",
    );
    assert_eq!(atomics_ordering(&atomics).len(), 1);
    assert!(atomics_ordering(&atomics)[0].starts_with("obs/src/x.rs:5: atomics-ordering"));

    let core: &[&str] = &["sync."];
    let register =
        |name: &str| format!("fn f(reg: &Registry) {{\n    reg.counter(\"{name}\");\n}}\n");
    let stats = Source::new("core/src/stats.rs", &register("sync.rounds"));
    let sync = Source::new("core/src/sync.rs", &register("sync.rounds"));
    let wrapped = Source::new("core/src/w.rs", "let h = reg.histogram(\n    \"bad.name\",\n);\n");
    let found = metrics_hygiene(&[(core, stats), (core, sync), (core, wrapped)]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].starts_with("core/src/sync.rs:2: metrics-hygiene"), "{}", found[0]);
    assert!(found[0].contains("first at core/src/stats.rs:2"), "{}", found[0]);
    assert!(found[1].starts_with("core/src/w.rs:1: metrics-hygiene"), "{}", found[1]);
    assert!(found[1].contains("\"bad.name\" lacks"), "{}", found[1]);
    let distinct = [
        (core, Source::new("a.rs", &register("sync.rounds"))),
        (core, Source::new("b.rs", &register("sync.pulls"))),
    ];
    assert!(metrics_hygiene(&distinct).is_empty());

    let long = "fn f() {}\n".repeat(MAX_FILE_LINES + 1);
    let found = max_file_lines(&Source::new("x.rs", &long)).expect("601 lines fire");
    assert!(found.starts_with("x.rs: max-file-lines: 601 non-test lines"), "{found}");
    let at_budget = "fn f() {}\n".repeat(MAX_FILE_LINES);
    assert_eq!(max_file_lines(&Source::new("x.rs", &at_budget)), None);
    let tests_below = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{long}}}\n");
    assert_eq!(max_file_lines(&Source::new("x.rs", &tests_below)), None);
    assert_eq!(max_file_lines(&Source::new("crates/net/src/sim.rs", &long)), None);

    let bare = Source::new("src/lib.rs", "//! #![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(forbid_unsafe(&bare).is_some_and(|f| f.contains("forbid-unsafe")));
    assert_eq!(forbid_unsafe(&Source::new("src/lib.rs", "#![forbid(unsafe_code)]\n")), None);

    let hot = format!(
        "//! m\n\n{HOT_PATH_DENY}\nfn f() {{\n    let a = ops[&req];\n    \
         let b = cfg()[\"k\"];\n    let c: &[&str] = &[&x];\n}}\n"
    );
    let found = hot_path(&Source::new("hot.rs", &hot));
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].starts_with("hot.rs:5: no-panic-hot-path: indexing a map"), "{}", found[0]);
    assert!(found[1].starts_with("hot.rs:6: no-panic-hot-path: indexing a map"), "{}", found[1]);
    let found = hot_path(&Source::new("hot.rs", "//! m\n#![deny(clippy::panic)]\nfn f() {}\n"));
    assert!(found.len() == 1 && found[0].contains("does not open with"), "{found:?}");

    assert_eq!(code(r#"let url = "http://x"; // note"#), r#"let url = "http://x"; "#);
    assert_eq!(code(r#"if c == '"' { f() } // note"#), r#"if c == '"' { f() } "#);
}
