//! The rule engine: walks lexed token streams and emits diagnostics
//! according to the per-crate policy, honouring `lint:allow` escapes.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::policy::CratePolicy;

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as printed (workspace-relative when possible).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name, e.g. `no-wall-clock`.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Static description of a rule, for `--list-rules`.
pub struct RuleInfo {
    /// Rule name as used in diagnostics and in allow directives.
    pub name: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// All rules the engine knows about.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-wall-clock",
        what: "Instant::now / SystemTime::now banned; logical time must come from mystore-net::time",
        scope: "sim-deterministic crates (bson, ring, engine, net, gossip, cache, core, workload)",
    },
    RuleInfo {
        name: "no-unordered-iter",
        what: "HashMap/HashSet banned; iteration order must not feed the message schedule (use BTreeMap/BTreeSet)",
        scope: "protocol crates (core, net, gossip, ring, engine, workload)",
    },
    RuleInfo {
        name: "no-panic-hot-path",
        what: "unwrap/expect/panic!/indexing banned in coordinator and WAL hot paths",
        scope: "core/src/{storage_node,frontend}.rs, engine/src/{wal,db}.rs",
    },
    RuleInfo {
        name: "atomics-ordering",
        what: "every Ordering::* use needs a `// ordering:` justification comment on the same or previous line",
        scope: "mystore-obs",
    },
    RuleInfo {
        name: "metrics-hygiene",
        what: "metric name literals registered exactly once and sharing the crate's prefix",
        scope: "all metric-registering crates",
    },
    RuleInfo {
        name: "forbid-unsafe",
        what: "crate roots must carry #![forbid(unsafe_code)]",
        scope: "every workspace crate (none currently needs unsafe)",
    },
    RuleInfo {
        name: "max-file-lines",
        what: "non-test region capped at 600 lines; a file that large is a god-object in the making — split it",
        scope: "every workspace crate (strict/fixture policy uses 40)",
    },
];

const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that legitimately precede `[` without forming an index
/// expression (slice patterns, array types, keywords).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "return", "break", "else", "match", "if", "while", "for", "loop",
    "move", "static", "const", "type", "impl", "fn", "pub", "use", "where", "as", "dyn", "crate",
    "super", "enum", "struct", "trait", "unsafe", "async", "await",
];

/// One parsed `lint:allow` directive. A directive covers the lines of
/// the comment it lives in plus the line immediately after — i.e. "same
/// line" for a trailing comment, "the next line" for a comment on its
/// own line.
#[derive(Debug)]
struct AllowDirective {
    rule: String,
    justified: bool,
    start: usize,
    end: usize,
    file_level: bool,
}

/// Allow directives extracted from a file's comments.
#[derive(Debug, Default)]
struct Allows {
    directives: Vec<AllowDirective>,
}

impl Allows {
    fn parse(lexed: &LexedFile) -> Allows {
        let mut out = Allows::default();
        for span in &lexed.spans {
            for (needle, file_level) in [("lint:allow-file(", true), ("lint:allow(", false)] {
                let mut rest = span.text.as_str();
                while let Some(pos) = rest.find(needle) {
                    let after = &rest[pos + needle.len()..];
                    if let Some(close) = after.find(')') {
                        let rule = after[..close].trim().to_string();
                        // Justified iff a `:` immediately follows the
                        // closing paren with non-empty text after it.
                        let tail = after[close + 1..].trim_start();
                        let justified =
                            tail.strip_prefix(':').map(|j| !j.trim().is_empty()).unwrap_or(false);
                        out.directives.push(AllowDirective {
                            rule,
                            justified,
                            start: span.start,
                            end: span.end,
                            file_level,
                        });
                        rest = &after[close + 1..];
                    } else {
                        break;
                    }
                }
            }
        }
        out
    }

    fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.directives
            .iter()
            .any(|d| d.rule == rule && (d.file_level || (line >= d.start && line <= d.end + 1)))
    }
}

/// Cross-file state for `metrics-hygiene` duplicate detection.
#[derive(Debug, Default)]
pub struct MetricsIndex {
    /// metric name -> registration sites (file, line).
    sites: BTreeMap<String, Vec<(String, usize)>>,
}

impl MetricsIndex {
    /// Creates an empty index.
    pub fn new() -> MetricsIndex {
        MetricsIndex::default()
    }

    /// Emits duplicate-registration diagnostics after all files were scanned.
    pub fn finish(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (name, sites) in &self.sites {
            if sites.len() > 1 {
                let (first_file, first_line) = &sites[0];
                for (file, line) in &sites[1..] {
                    out.push(Diagnostic {
                        file: file.clone(),
                        line: *line,
                        rule: "metrics-hygiene".to_string(),
                        message: format!(
                            "metric \"{name}\" registered more than once (first at {first_file}:{first_line}); resolve handles once and share them"
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Lints one file under `policy`. `rel` is the path relative to the
/// crate root (used for `panic_files` and crate-root detection);
/// `display` is the path printed in diagnostics.
pub fn lint_file(
    source: &str,
    rel: &str,
    display: &str,
    policy: &CratePolicy,
    metrics: &mut MetricsIndex,
) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let allows = Allows::parse(&lexed);
    let cutoff = test_region_start(&lexed.tokens);
    let toks = &lexed.tokens;
    let mut raw: Vec<Diagnostic> = Vec::new();

    let diag = |line: usize, rule: &str, message: String| Diagnostic {
        file: display.to_string(),
        line,
        rule: rule.to_string(),
        message,
    };

    // --- no-wall-clock ---
    if policy.wall_clock {
        for w in windows4(toks) {
            let [a, b, c, d] = w;
            if a.kind == TokenKind::Ident
                && (a.text == "Instant" || a.text == "SystemTime")
                && is_path_sep(b, c)
                && d.text == "now"
            {
                raw.push(diag(
                    a.line,
                    "no-wall-clock",
                    format!(
                        "{}::now() in a sim-deterministic crate; take time from the sim clock (mystore-net::time / Ctx::now)",
                        a.text
                    ),
                ));
            }
        }
    }

    // --- no-unordered-iter ---
    if policy.unordered_iter {
        for t in toks {
            if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                let sub = if t.text == "HashMap" { "BTreeMap" } else { "BTreeSet" };
                raw.push(diag(
                    t.line,
                    "no-unordered-iter",
                    format!(
                        "{} has nondeterministic iteration order; use {} (or sort before fan-out)",
                        t.text, sub
                    ),
                ));
            }
        }
    }

    // --- no-panic-hot-path ---
    let hot = policy.panic_files.iter().any(|f| f == "*" || f == rel);
    if hot {
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokenKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                    let prev_dot = i > 0 && toks[i - 1].text == ".";
                    let next_paren = toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false);
                    if prev_dot && next_paren {
                        raw.push(diag(
                            t.line,
                            "no-panic-hot-path",
                            format!(
                                ".{}() can panic; return an error or handle the None/Err arm",
                                t.text
                            ),
                        ));
                    }
                }
                TokenKind::Ident
                    if PANIC_MACROS.contains(&t.text.as_str())
                        && toks.get(i + 1).map(|n| n.text == "!").unwrap_or(false) =>
                {
                    raw.push(diag(
                        t.line,
                        "no-panic-hot-path",
                        format!("{}! aborts the node; degrade gracefully instead", t.text),
                    ));
                }
                TokenKind::Punct if t.text == "[" && i > 0 => {
                    let prev = &toks[i - 1];
                    let indexes = match prev.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                        TokenKind::Punct => prev.text == ")" || prev.text == "]",
                        _ => false,
                    };
                    if indexes {
                        raw.push(diag(
                            t.line,
                            "no-panic-hot-path",
                            "index expression can panic on out-of-bounds; use .get()/.get_mut() or a checked slice".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    // --- atomics-ordering ---
    if policy.atomics_ordering {
        for w in windows4(toks) {
            let [a, b, c, d] = w;
            if a.kind == TokenKind::Ident
                && a.text == "Ordering"
                && is_path_sep(b, c)
                && d.kind == TokenKind::Ident
                && MEMORY_ORDERINGS.contains(&d.text.as_str())
            {
                let justified = [d.line, d.line.saturating_sub(1)]
                    .iter()
                    .any(|l| lexed.comment_on(*l).is_some_and(|t| t.contains("ordering:")));
                if !justified {
                    raw.push(diag(
                        d.line,
                        "atomics-ordering",
                        format!(
                            "Ordering::{} needs a `// ordering:` justification comment on this or the previous line",
                            d.text
                        ),
                    ));
                }
            }
        }
    }

    // --- metrics-hygiene (collection + prefix check) ---
    if let Some(prefixes) = &policy.metric_prefixes {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "counter" | "gauge" | "histogram")
                && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
            {
                if let Some(lit) = toks.get(i + 2).filter(|n| n.kind == TokenKind::StrLit) {
                    let name = lit.text.trim_matches('"').to_string();
                    // Registration sites inside test regions or under an
                    // allow are invisible to both checks.
                    if lit.line >= cutoff || allows.is_allowed("metrics-hygiene", lit.line) {
                        continue;
                    }
                    if !prefixes.iter().any(|p| name.starts_with(p.as_str())) {
                        raw.push(diag(
                            lit.line,
                            "metrics-hygiene",
                            format!(
                                "metric \"{}\" lacks an approved {} prefix ({})",
                                name,
                                policy.name,
                                prefixes.join(", ")
                            ),
                        ));
                    }
                    metrics.sites.entry(name).or_default().push((display.to_string(), lit.line));
                }
            }
        }
    }

    // --- max-file-lines ---
    if let Some(max) = policy.max_file_lines {
        let code_lines =
            if cutoff == usize::MAX { source.lines().count() } else { cutoff.saturating_sub(1) };
        if code_lines > max {
            raw.push(diag(
                max + 1,
                "max-file-lines",
                format!(
                    "file has {code_lines} non-test lines, over the {max}-line budget; split the module (or lint:allow-file with a reason)"
                ),
            ));
        }
    }

    // --- forbid-unsafe ---
    if policy.forbid_unsafe && (rel == "src/lib.rs" || rel == "src/main.rs") {
        let has = windows8(toks).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == "forbid"
                && w[4].text == "("
                && w[5].text == "unsafe_code"
                && w[6].text == ")"
                && w[7].text == "]"
        });
        if !has {
            raw.push(diag(
                1,
                "forbid-unsafe",
                "crate root is missing #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }

    // Filter: drop findings in the #[cfg(test)] region or covered by an
    // allow; then report malformed allow directives.
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| d.line < cutoff && !allows.is_allowed(&d.rule, d.line))
        .collect();

    for d in &allows.directives {
        if !RULES.iter().any(|r| r.name == d.rule) {
            out.push(Diagnostic {
                file: display.to_string(),
                line: d.start,
                rule: "lint-allow".to_string(),
                message: format!("unknown rule \"{}\" in lint:allow directive", d.rule),
            });
        } else if !d.justified {
            out.push(Diagnostic {
                file: display.to_string(),
                line: d.start,
                rule: "lint-allow".to_string(),
                message: format!(
                    "lint:allow({}) has no justification; write `lint:allow({}): why this is safe`",
                    d.rule, d.rule
                ),
            });
        }
    }

    out.sort();
    out
}

/// Returns the line of the first `#[cfg(test)]`-style attribute, or
/// `usize::MAX` when the file has no test region. The repo convention
/// keeps test modules at the bottom of the file, so everything from that
/// attribute onward is treated as test code.
fn test_region_start(toks: &[Token]) -> usize {
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
        {
            // Scan the attribute body for the `test` ident.
            let mut j = i + 4;
            let mut depth = 1usize;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" if toks[j].kind == TokenKind::Ident => {
                        return toks[i].line;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    usize::MAX
}

fn is_path_sep(b: &Token, c: &Token) -> bool {
    b.text == ":" && c.text == ":" && b.line == c.line
}

fn windows4(toks: &[Token]) -> impl Iterator<Item = [&Token; 4]> {
    toks.windows(4).map(|w| [&w[0], &w[1], &w[2], &w[3]])
}

fn windows8(toks: &[Token]) -> impl Iterator<Item = [&Token; 8]> {
    toks.windows(8).map(|w| [&w[0], &w[1], &w[2], &w[3], &w[4], &w[5], &w[6], &w[7]])
}

/// Walks `<crate root>/src` recursively and lints every `.rs` file.
/// Paths in diagnostics are made relative to `workspace_root`.
pub fn lint_crate(
    policy: &CratePolicy,
    workspace_root: &Path,
    metrics: &mut MetricsIndex,
) -> std::io::Result<Vec<Diagnostic>> {
    let src = policy.root.join("src");
    let mut files = Vec::new();
    collect_rs_files(&src, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let rel =
            path.strip_prefix(&policy.root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let display =
            path.strip_prefix(workspace_root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        out.extend(lint_file(&source, &rel, &display, policy, metrics));
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full workspace policy and returns all diagnostics, sorted.
pub fn run_workspace(workspace_root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut metrics = MetricsIndex::new();
    let mut out = Vec::new();
    for policy in crate::policy::workspace_policy(workspace_root) {
        out.extend(lint_crate(&policy, workspace_root, &mut metrics)?);
    }
    out.extend(metrics.finish());
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::strict_policy;

    fn strict(src: &str) -> Vec<Diagnostic> {
        let policy = strict_policy(std::path::PathBuf::from("."));
        let mut metrics = MetricsIndex::new();
        let mut out = lint_file(src, "src/x.rs", "src/x.rs", &policy, &mut metrics);
        out.extend(metrics.finish());
        out.sort();
        out
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn wall_clock_fires_on_both_clocks() {
        let d = strict("fn f() { let a = Instant::now(); let b = SystemTime::now(); }");
        assert_eq!(rules_of(&d), vec!["no-wall-clock", "no-wall-clock"]);
    }

    #[test]
    fn wall_clock_in_string_or_comment_is_ignored() {
        let d =
            strict("// Instant::now() would be wrong here\nfn f() { let s = \"Instant::now()\"; }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_on_same_line_with_justification() {
        let d = strict(
            "fn f() { let a = Instant::now(); } // lint:allow(no-wall-clock): real-time API surface\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_on_previous_line_scopes_to_next_line_only() {
        let d = strict(
            "// lint:allow(no-wall-clock): justified here\nfn f() { let a = Instant::now(); }\nfn g() { let b = Instant::now(); }",
        );
        assert_eq!(rules_of(&d), vec!["no-wall-clock"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn allow_without_justification_is_flagged() {
        let d = strict("fn f() { let a = Instant::now(); } // lint:allow(no-wall-clock)\n");
        assert_eq!(rules_of(&d), vec!["lint-allow"]);
    }

    #[test]
    fn allow_unknown_rule_is_flagged() {
        let d = strict("fn f() {} // lint:allow(no-such-rule): whatever\n");
        assert_eq!(rules_of(&d), vec!["lint-allow"]);
    }

    #[test]
    fn allow_file_covers_whole_file() {
        let d = strict(
            "// lint:allow-file(no-wall-clock): this module drives real OS time\nfn f() { Instant::now(); }\nfn g() { SystemTime::now(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unordered_iter_flags_hashmap_and_hashset() {
        let d = strict("use std::collections::HashMap;\nfn f(s: HashSet<u32>) {}");
        assert_eq!(rules_of(&d), vec!["no-unordered-iter", "no-unordered-iter"]);
    }

    #[test]
    fn panic_rules_fire_in_hot_files() {
        let d = strict("fn f(v: Vec<u8>) { v.get(0).unwrap(); x.expect(\"m\"); panic!(\"no\"); }");
        assert_eq!(
            rules_of(&d),
            vec!["no-panic-hot-path", "no-panic-hot-path", "no-panic-hot-path"]
        );
    }

    #[test]
    fn indexing_fires_but_patterns_do_not() {
        let d = strict(
            "fn f(v: Vec<u8>, m: [u8; 4]) { let x = v[0]; let [a, b] = t; let y: [u8; 2] = m2; }",
        );
        assert_eq!(rules_of(&d), vec!["no-panic-hot-path"]);
        assert!(d[0].message.contains("index"));
    }

    #[test]
    fn attribute_and_macro_brackets_do_not_fire() {
        let d = strict("#[derive(Debug)]\nfn f() { let v = vec![1, 2]; }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_region_is_skipped() {
        let d = strict(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); let i = Instant::now(); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn atomics_ordering_requires_comment() {
        let bad = strict("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }");
        assert_eq!(rules_of(&bad), vec!["atomics-ordering"]);
        let good = strict(
            "fn f(a: &AtomicU64) {\n    // ordering: independent counter, no cross-thread invariant\n    a.load(Ordering::Relaxed);\n}",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic() {
        let d = strict("fn f() -> Ordering { Ordering::Less }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn metric_prefix_is_enforced() {
        let d = strict("fn f(r: &Registry) { r.counter(\"wrong.name\"); }");
        assert_eq!(rules_of(&d), vec!["metrics-hygiene"]);
        let ok = strict("fn f(r: &Registry) { r.counter(\"app.good\"); }");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn duplicate_metric_registration_is_flagged() {
        let d = strict(
            "fn f(r: &Registry) { r.counter(\"app.x\"); }\nfn g(r: &Registry) { r.counter(\"app.x\"); }",
        );
        assert_eq!(rules_of(&d), vec!["metrics-hygiene"]);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("more than once"));
    }

    #[test]
    fn max_file_lines_counts_only_the_non_test_region() {
        // 70 code lines under the strict 40-line budget: fires at line 41.
        let big = "fn f() {}\n".repeat(70);
        let d = strict(&big);
        assert_eq!(rules_of(&d), vec!["max-file-lines"]);
        assert_eq!(d[0].line, 41);
        assert!(d[0].message.contains("70 non-test lines"), "{}", d[0].message);

        // The same 70 lines of *test* code are free: only the region
        // before #[cfg(test)] counts against the budget.
        let tests_only = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{big}}}\n");
        assert!(strict(&tests_only).is_empty());

        // Exactly at the budget is fine.
        let at_limit = "fn f() {}\n".repeat(40);
        assert!(strict(&at_limit).is_empty());
    }

    #[test]
    fn max_file_lines_honours_the_file_level_allow() {
        let big = format!(
            "// lint:allow-file(max-file-lines): cohesive state machine, split tracked in ROADMAP\n{}",
            "fn f() {}\n".repeat(70)
        );
        assert!(strict(&big).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let policy = strict_policy(std::path::PathBuf::from("."));
        let mut metrics = MetricsIndex::new();
        let missing = lint_file("fn f() {}", "src/lib.rs", "src/lib.rs", &policy, &mut metrics);
        assert_eq!(rules_of(&missing), vec!["forbid-unsafe"]);
        let present = lint_file(
            "#![forbid(unsafe_code)]\nfn f() {}",
            "src/lib.rs",
            "src/lib.rs",
            &policy,
            &mut metrics,
        );
        assert!(present.is_empty(), "{present:?}");
        let not_root =
            lint_file("fn f() {}", "src/other.rs", "src/other.rs", &policy, &mut metrics);
        assert!(not_root.is_empty(), "{not_root:?}");
    }
}
