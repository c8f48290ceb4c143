//! The benchmark's own checks. Run in release mode (the pin test executes the full
//! `fig10-swarm` scenario):
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use p2plab_core::ScenarioFile;
use p2plab_perfbench::reference;
use p2plab_perfbench::workloads::{
    execute, Mode, BASE_SEED, FIG10_PIN_EVENTS, SEED_SLOTS, WORKLOADS,
};
use p2plab_perfbench::{END_TO_END, PER_LAYER};

#[test]
fn fig10_file_reproduces_the_pin() {
    let fig10 = &WORKLOADS[0];
    assert_eq!(fig10.name, "fig10-swarm");
    let exec = execute(&fig10.scenario_text(BASE_SEED), Mode::Plain).expect("fig10 runs");
    assert_eq!(exec.report.events_executed, FIG10_PIN_EVENTS);
    assert_eq!(exec.done, exec.attempted, "every fig10 leecher finishes");
    exec.check(fig10, BASE_SEED)
        .expect("fig10 passes its checks");
}

#[test]
fn every_scenario_file_parses_validates_and_takes_the_seed() {
    for w in &WORKLOADS {
        let file = ScenarioFile::parse(&w.scenario_text(BASE_SEED + 3))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        file.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(file.spec.seed, BASE_SEED + 3, "{}", w.name);
    }
}

#[test]
fn every_seed_slot_has_a_reference() {
    for w in &WORKLOADS {
        for slot in 0..SEED_SLOTS {
            let dist = reference::load(w.reference, slot)
                .unwrap_or_else(|e| panic!("{} slot {slot}: {e}", w.name));
            assert!(dist.count > 0, "{} slot {slot} is empty", w.name);
            let text = reference::render(slot, BASE_SEED + slot, &dist);
            assert_eq!(reference::load(&text, slot).expect("round trip"), dist);
        }
    }
}

/// The tracing wrapper forwards every `Workload` method: a traced run of a small swarm
/// reproduces the untraced run's report, wall-clock fields aside.
#[test]
fn tracing_does_not_change_the_program() {
    let text = include_str!("../scenarios/fig10-swarm.toml")
        .replace("machines = 46", "machines = 4")
        .replace("leechers = 1439", "leechers = 60")
        .replace("file_bytes = 16_777_216", "file_bytes = 1_048_576");
    let plain = execute(&text, Mode::Plain).expect("plain run");
    let traced = execute(&text, Mode::Traced).expect("traced run");
    assert_eq!(plain.deterministic_digest(), traced.deterministic_digest());
    let spans = traced.spans.expect("traced runs record spans");
    assert!(spans.samples > 0 && spans.counts.firewall_packets > 0);
    assert!(spans.probe.is_some());
}

/// `BENCHMARK.json` names exactly the metrics the benchmark prints, with the same units.
#[test]
fn benchmark_json_lists_every_metric() {
    let json = include_str!("../../BENCHMARK.json");
    let entries = END_TO_END.iter().chain(PER_LAYER.iter());
    for (name, unit) in entries.clone() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        entries.count(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );
}
