//! CLI for `mystore-lint`.
//!
//! ```text
//! mystore-lint --workspace [--root DIR] [--json]   lint the whole workspace
//! mystore-lint --list-rules                        print the rule table
//! mystore-lint [--json] FILE...                    lint files with every rule on
//! ```
//!
//! Exits 1 when any unexempted diagnostic is found, 2 on usage/IO errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mystore_lint::{policy, rules, Diagnostic, MetricsIndex, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut list_rules = false;
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => list_rules = true,
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown flag {flag}"));
            }
            path => files.push(PathBuf::from(path)),
        }
    }

    if list_rules {
        print_rules();
        return ExitCode::SUCCESS;
    }
    if !workspace && files.is_empty() {
        return usage("nothing to do: pass --workspace, --list-rules, or file paths");
    }

    let diags = if workspace {
        match rules::run_workspace(&root) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("mystore-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        lint_paths(&files)
    };

    if json {
        println!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if !diags.is_empty() {
            eprintln!("mystore-lint: {} diagnostic(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lints explicit file paths with the strict everything-on policy.
fn lint_paths(files: &[PathBuf]) -> Vec<Diagnostic> {
    let policy = policy::strict_policy(PathBuf::from("."));
    let mut metrics = MetricsIndex::new();
    let mut out = Vec::new();
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(source) => {
                let display = path.to_string_lossy().replace('\\', "/");
                // Ad-hoc files are treated as crate roots only when they
                // are literally named lib.rs/main.rs under src/.
                let rel = if display.ends_with("src/lib.rs") {
                    "src/lib.rs"
                } else if display.ends_with("src/main.rs") {
                    "src/main.rs"
                } else {
                    "src/adhoc.rs"
                };
                out.extend(rules::lint_file(&source, rel, &display, &policy, &mut metrics));
            }
            Err(e) => out.push(Diagnostic {
                file: path.to_string_lossy().to_string(),
                line: 0,
                rule: "io".to_string(),
                message: e.to_string(),
            }),
        }
    }
    out.extend(metrics.finish());
    out.sort();
    out
}

fn print_rules() {
    println!("mystore-lint rules:\n");
    for r in RULES {
        println!("  {:<20} {}", r.name, r.what);
        println!("  {:<20}   scope: {}", "", r.scope);
    }
    println!(
        "\nescapes: `// lint:allow(rule): why` (same or previous line), `// lint:allow-file(rule): why`"
    );
}

fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&d.file),
            d.line,
            json_str(&d.rule),
            json_str(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mystore-lint: {msg}\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
usage: mystore-lint --workspace [--root DIR] [--json]
       mystore-lint --list-rules
       mystore-lint [--json] FILE...

Lints the mystore workspace for determinism, panic-freedom, atomics and
metric-name hygiene, unsafe-freedom and file size. Exit code 0 = clean,
1 = diagnostics found, 2 = usage/IO.
";
