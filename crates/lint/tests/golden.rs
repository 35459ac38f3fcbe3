//! Golden-file diagnostics test: lints the seeded violation fixture (one
//! deliberate violation per rule) and diffs the formatted output against
//! `fixtures/expected.txt`. This doubles as the CI guard that the rules
//! keep firing — if a rule rots, the diff fails.

use std::path::PathBuf;

use mystore_lint::{lint_file, policy::strict_policy, MetricsIndex};

#[test]
fn fixture_crate_produces_exactly_the_expected_diagnostics() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let fixture_src = fixtures.join("badcrate/src/lib.rs");
    let source = std::fs::read_to_string(&fixture_src).expect("read fixture");
    let expected = std::fs::read_to_string(fixtures.join("expected.txt")).expect("read expected");

    let policy = strict_policy(fixtures.join("badcrate"));
    let mut metrics = MetricsIndex::new();
    let mut diags = lint_file(&source, "src/lib.rs", "src/lib.rs", &policy, &mut metrics);
    diags.extend(metrics.finish());
    diags.sort();

    let got: String = diags.iter().map(|d| format!("{d}\n")).collect();
    assert_eq!(got, expected, "fixture diagnostics drifted from fixtures/expected.txt");

    // Every rule must be represented at least once in the fixture, so a
    // rule that silently stops firing cannot hide behind the diff.
    for rule in mystore_lint::RULES {
        assert!(
            diags.iter().any(|d| d.rule == rule.name),
            "rule {} has no seeded violation in the fixture",
            rule.name
        );
    }
}
