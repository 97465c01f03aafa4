//! Every name this benchmark prints is well formed, and the printed sets
//! equal the sets `BENCHMARK.json` declares.

use gstg_benchmark::inputs::Workload;
use gstg_benchmark::layers::json_names;
use gstg_benchmark::spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
fn well_formed_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.len() <= 64
}

/// `[A-Za-z0-9_/%.-]+`, at most 16 characters.
fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn declared(array: &str, key: &str) -> Vec<String> {
    json_names(BENCHMARK_JSON, array, key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{array}` has no list of `{key}`"))
}

#[test]
fn every_printed_name_and_unit_is_well_formed_and_used_once() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    names.extend(END_TO_END.iter().map(|(name, _)| *name));
    names.extend(PER_LAYER.iter().map(|(name, _)| *name));
    for name in &names {
        assert!(well_formed_name(name), "`{name}`");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(well_formed_unit(unit), "unit `{unit}` of `{name}`");
    }
    assert!(!well_formed_name(""));
    assert!(!well_formed_name("-leading"));
    assert!(!well_formed_name("has space"));
}

#[test]
fn the_workloads_are_the_declared_ones() {
    let printed: Vec<&str> = Workload::ALL
        .iter()
        .map(|workload| workload.name())
        .collect();
    let described: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(printed, described);
    assert_eq!(declared("workloads", "name"), printed);
    for why in declared("workloads", "why") {
        assert!(why.len() <= 200 && !why.contains('\n'), "why: `{why}`");
    }
    let whys: Vec<&str> = WORKLOADS.iter().map(|(_, why)| *why).collect();
    assert_eq!(declared("workloads", "why"), whys);
}

#[test]
fn the_printed_metrics_are_the_declared_ones() {
    let (names, units): (Vec<&str>, Vec<&str>) = END_TO_END.iter().copied().unzip();
    assert_eq!(declared("end_to_end", "name"), names);
    assert_eq!(declared("end_to_end", "unit"), units);
    let (names, units): (Vec<&str>, Vec<&str>) = PER_LAYER.iter().copied().unzip();
    assert_eq!(declared("per_layer", "name"), names);
    assert_eq!(declared("per_layer", "unit"), units);
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn a_run_cannot_print_a_set_that_differs_from_the_declared_one() {
    let mut metrics = Metrics::new();
    for (name, _) in END_TO_END {
        metrics.set(name, 1.5);
    }
    let rows = metrics.declared(&END_TO_END).expect("the full set prints");
    assert_eq!(rows.len(), END_TO_END.len());
    assert!(rows
        .iter()
        .zip(END_TO_END)
        .all(|(row, metric)| row.0 == metric.0));

    let mut missing = Metrics::new();
    missing.set("setup_s", 1.0);
    assert!(missing.declared(&END_TO_END).is_err());

    metrics.set("not.declared", 1.0);
    assert!(metrics.declared(&END_TO_END).is_err());

    let mut not_finite = Metrics::new();
    for (name, _) in END_TO_END {
        not_finite.set(name, f64::NAN);
    }
    assert!(not_finite.declared(&END_TO_END).is_err());
}
