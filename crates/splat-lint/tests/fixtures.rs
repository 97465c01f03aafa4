//! End-to-end fixture tests: each rule fires on its fixture tree with the
//! exact `file:line` the violation sits on, waivers suppress exactly once,
//! and the CLI exits non-zero on a dirty tree (zero on a waived one).

use std::path::{Path, PathBuf};
use std::process::Command;

use splat_lint::check_workspace;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `(rule, file, line)` triples reported for a fixture root.
fn findings(name: &str) -> Vec<(String, String, u32)> {
    check_workspace(&fixture(name))
        .expect("fixture walks cleanly")
        .diagnostics
        .into_iter()
        .map(|d| (d.rule, d.file, d.line))
        .collect()
}

#[test]
fn every_rule_fires_on_the_dirty_fixture_at_the_right_location() {
    let found = findings("dirty");
    let expect = |rule: &str, file: &str, line: u32| {
        assert!(
            found
                .iter()
                .any(|(r, f, l)| r == rule && f == file && *l == line),
            "missing {rule} at {file}:{line} in {found:#?}"
        );
    };

    // lock-discipline: the nested queue lock under the registry guard,
    // and the heavy `prepare` call under a guard.
    expect("lock-discipline", "crates/splat-engine/src/lib.rs", 11);
    expect("lock-discipline", "crates/splat-engine/src/lib.rs", 17);
}

#[test]
fn waived_fixture_is_clean_and_stale_waivers_are_errors() {
    assert_eq!(findings("waived"), Vec::<(String, String, u32)>::new());

    let stale = findings("stale");
    assert!(
        stale
            .iter()
            .any(|(r, f, l)| r == "unused-waiver" && f == "crates/gstg/src/lib.rs" && *l == 1),
        "{stale:#?}"
    );
    assert!(
        stale
            .iter()
            .any(|(r, _, l)| r == "waiver-syntax" && *l == 3),
        "unknown rule name: {stale:#?}"
    );
    assert!(
        stale
            .iter()
            .any(|(r, _, l)| r == "waiver-syntax" && *l == 4),
        "missing reason: {stale:#?}"
    );
    // A waiver left behind by a deleted rule names an unknown rule.
    assert!(
        stale
            .iter()
            .any(|(r, _, l)| r == "waiver-syntax" && *l == 5),
        "waiver for a deleted rule: {stale:#?}"
    );
    // All meta-findings are errors: the CLI must fail on them.
    let report = check_workspace(&fixture("stale")).expect("fixture walks cleanly");
    assert!(report.has_errors());
}

#[test]
fn cli_exits_nonzero_on_dirty_trees_with_machine_readable_locations() {
    let bin = env!("CARGO_BIN_EXE_splat-lint");

    let dirty = Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(fixture("dirty"))
        .output()
        .expect("CLI runs");
    assert!(!dirty.status.success(), "dirty fixture must fail the check");
    let json = String::from_utf8(dirty.stdout).expect("UTF-8 JSON");
    for fragment in [
        "\"file\":\"crates/splat-engine/src/lib.rs\",\"line\":11",
        "\"rule\":\"lock-discipline\"",
    ] {
        assert!(json.contains(fragment), "missing {fragment} in {json}");
    }

    let waived = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("waived"))
        .output()
        .expect("CLI runs");
    assert!(
        waived.status.success(),
        "waived fixture must pass: {}",
        String::from_utf8_lossy(&waived.stdout)
    );
}

/// The scenario the deleted `counter-coverage` rule policed, on what
/// replaced it: a counter added to a `counters!` struct cannot miss the
/// JSON or `Display` surface (both are generated from the field list), and
/// one that no declared identity constrains is found from `FIELDS` and
/// `identities()` alone — the walk `tests/counter_reconciliation.rs` runs
/// over the three live structs.
#[test]
fn an_uncovered_scratch_counter_field_fails_the_check() {
    splat_types::counters! {
        /// Scratch counters.
        #[derive(Clone, Copy)]
        struct Scratch {
            /// Started.
            ops: u64,
            /// Finished.
            done: u64,
            /// Added without joining an identity.
            phantom_ops: u64,
        }
    }
    impl Scratch {
        fn identities(&self) -> [(&'static str, u64, u64); 1] {
            [("ops == done", self.ops, self.done)]
        }
    }

    let scratch = Scratch::from([2, 2, 7]);
    assert!(scratch.to_json().contains("\"phantom_ops\":7"));
    assert!(scratch.to_string().contains("7 phantom_ops"));
    let unconstrained: Vec<&str> = (0..Scratch::FIELDS.len())
        .filter(|&index| {
            let mut unit = [0; 3];
            unit[index] = 1;
            let identities = Scratch::from(unit).identities();
            identities.iter().all(|&(_, l, r)| (l, r) == (0, 0))
        })
        .map(|index| Scratch::FIELDS[index])
        .collect();
    assert_eq!(unconstrained, ["phantom_ops"]);
}
