//! Tiny-scale runs of every workload (1 MB transfers, 20 clients),
//! untraced and traced, and the printed metric names checked against
//! `BENCHMARK.json`.

use failover_bench::report::{measure, Report, END_TO_END, PER_LAYER};
use failover_bench::workload::{Plan, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> Report {
    let plans = Plan::realizations(workload, Scale::Tiny, 7);
    let report = measure(&plans, 0, trace);
    assert!(report.correct, "{}: {:?}", workload.name(), report.problems);
    assert_eq!(report.failed, 0);
    // Untraced: a reference and a timed run per realization; traced:
    // every reference, plus a timed, a traced and a recorded run.
    let k = plans.len() as u64;
    let runs = if trace { k + 3 } else { 2 * k };
    assert_eq!(report.attempted, runs * plans[0].conns(), "{}", workload.name());
    report
}

fn names(report: &Report) -> Vec<(&str, &str)> {
    report.metrics.iter().map(|&(n, u, _)| (n, u)).collect()
}

#[test]
fn every_workload_completes_and_verifies_untraced() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_eq!(names(&report), END_TO_END);
        for &(name, _, value) in &report.metrics {
            assert!(value.is_finite() && value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn every_workload_traced_agrees_with_the_builders() {
    // `correct` includes the agreement check: the traced assembly
    // reproduced the builder-made run's events, client metrics,
    // takeover and completion exactly.
    for w in Workload::ALL {
        let report = tiny(w, true);
        assert_eq!(names(&report), PER_LAYER);
        let get = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(get("netsim.events") > 0.0 && get("wire.frames") > 0.0);
        assert!(get("sttcp.detect_ms") > 0.0, "{}: the backup detected the crash", w.name());
        for ratio in ["trace.overhead", "obs.recorder_overhead"] {
            assert!(get(ratio).is_finite() && get(ratio) > 0.0, "{}: {ratio}", w.name());
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
}
