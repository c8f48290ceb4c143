//! The four benchmark workloads, each a scenario file in `perfbench/scenarios/`, and the one
//! code path that runs them: `ScenarioFile::parse` + `validate`, then `run_reported`, with or
//! without the [`Traced`] wrapper.

use crate::trace::{Spans, Traced};
use p2plab_bittorrent::DEFAULT_BLOCK_SIZE;
use p2plab_core::{
    run_reported, DhtLookupResult, DhtLookupWorkload, GossipResult, GossipWorkload, RunReport,
    ScenarioFile, ScenarioSpec, SwarmResult, SwarmWorkload, Workload, WorkloadConfig,
};
use p2plab_net::RpcStats;
use p2plab_sim::{HistogramSnapshot, RunOutcome};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Events the `fig10-swarm` file executes at its own seed (the repository's standing pin).
pub const FIG10_PIN_EVENTS: u64 = 34_059_056;

/// The seed every scenario file carries; benchmark seed `n` runs the file at
/// `BASE_SEED + n % SEED_SLOTS`.
pub const BASE_SEED: u64 = 2006;

/// How many scenario seeds the benchmark rotates through (and keeps references for).
pub const SEED_SLOTS: u64 = 8;

/// Where a workload's per-participant completion-time distribution comes from in the report.
#[derive(Debug, Clone, Copy)]
pub enum Distribution {
    /// A histogram metric of completion times, in seconds.
    Histogram(&'static str),
    /// The `progress` series: participants done so far, sampled on the scenario grid.
    ProgressCurve,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct BenchWorkload {
    /// The name the benchmark's `--workload` flag takes.
    pub name: &'static str,
    /// The scenario file.
    pub scenario: &'static str,
    /// The reference distributions recorded for each seed slot.
    pub reference: &'static str,
    /// The share of operations that must finish for a run to count as correct.
    pub min_done_ratio: f64,
    /// Events the file executes at [`BASE_SEED`], where every operation must also finish.
    pub pin_events: Option<u64>,
    /// Where the completion-time distribution is read from.
    pub distribution: Distribution,
}

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [BenchWorkload; 4] = [
    BenchWorkload {
        name: "fig10-swarm",
        scenario: include_str!("../scenarios/fig10-swarm.toml"),
        reference: include_str!("../reference/fig10-swarm.txt"),
        // At other seeds one or two of the 1439 leechers can stay starved of unchoke slots
        // until the deadline: BitTorrent's tail, reported in `ops_done_ratio`. The floor is
        // the near-total completion the repository's scale sweep demands of its swarms.
        min_done_ratio: 0.995,
        pin_events: Some(FIG10_PIN_EVENTS),
        distribution: Distribution::Histogram("completion_time_secs"),
    },
    BenchWorkload {
        name: "gossip-50k",
        scenario: include_str!("../scenarios/gossip-50k.toml"),
        reference: include_str!("../reference/gossip-50k.txt"),
        min_done_ratio: 1.0,
        pin_events: None,
        distribution: Distribution::ProgressCurve,
    },
    BenchWorkload {
        name: "swarm-proto",
        scenario: include_str!("../scenarios/swarm-proto.toml"),
        reference: include_str!("../reference/swarm-proto.txt"),
        // Lossy: leechers that never finish are reported, not asserted away.
        min_done_ratio: 0.0,
        pin_events: None,
        distribution: Distribution::Histogram("completion_time_secs"),
    },
    BenchWorkload {
        name: "dht-lossy",
        scenario: include_str!("../scenarios/dht-lossy.toml"),
        reference: include_str!("../reference/dht-lossy.txt"),
        min_done_ratio: 1.0,
        pin_events: None,
        distribution: Distribution::Histogram("lookup_latency_secs"),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static BenchWorkload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })
}

impl BenchWorkload {
    /// The scenario file with its seed set to `seed`.
    pub fn scenario_text(&self, seed: u64) -> String {
        let base = format!("seed = {BASE_SEED}\n");
        assert!(
            self.scenario.contains(&base),
            "scenario file of {} must carry `{}`",
            self.name,
            base.trim()
        );
        self.scenario
            .replacen(&base, &format!("seed = {seed}\n"), 1)
    }
}

/// How to run one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The program exactly as a user runs it.
    Plain,
    /// Through the [`Traced`] wrapper.
    Traced,
    /// Through the [`Traced`] wrapper, stopped after the first event: measures set-up only.
    SetupOnly,
}

/// Workload-specific results the per-layer metrics need.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// RPC layer statistics (DHT only).
    pub rpc: RpcStats,
    /// Gossip rumors pushed and duplicate receipts among them.
    pub rumors: (u64, u64),
    /// DHT: mean hops per finished lookup and the share of finished lookups that found the
    /// exact closest node.
    pub dht_hops_mean: f64,
    /// See [`Extras::dht_hops_mean`].
    pub dht_exact_ratio: f64,
    /// Swarm: BitTorrent blocks received over all clients.
    pub blocks: u64,
    /// Swarm: the shared file's size.
    pub file_bytes: Option<u64>,
}

/// A workload's typed output, reduced to what the benchmark checks and reports.
pub trait Judged {
    /// Operations attempted and operations finished by the stop time.
    fn ops(&self) -> (u64, u64);
    /// Workload-specific layer results.
    fn extras(&self) -> Extras;
}

impl Judged for SwarmResult {
    fn ops(&self) -> (u64, u64) {
        (self.leechers as u64, self.completed as u64)
    }

    fn extras(&self) -> Extras {
        let bytes = self.total_downloaded.last().map_or(0.0, |(_, v)| v);
        Extras {
            blocks: (bytes / f64::from(DEFAULT_BLOCK_SIZE)) as u64,
            ..Extras::default()
        }
    }
}

impl Judged for GossipResult {
    fn ops(&self) -> (u64, u64) {
        (self.nodes as u64, self.informed as u64)
    }

    fn extras(&self) -> Extras {
        Extras {
            rumors: (self.rumors_sent, self.duplicate_receipts),
            ..Extras::default()
        }
    }
}

impl Judged for DhtLookupResult {
    fn ops(&self) -> (u64, u64) {
        (self.lookups as u64, self.completed as u64)
    }

    fn extras(&self) -> Extras {
        Extras {
            rpc: self.rpc_stats,
            dht_hops_mean: self.mean_hops(),
            dht_exact_ratio: ratio(self.found_closest as u64, self.completed as u64),
            ..Extras::default()
        }
    }
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One execution of a workload.
#[derive(Debug)]
pub struct Execution {
    /// Host seconds from parsing the scenario until `run_reported` returned.
    pub wall_s: f64,
    /// Host seconds from parsing the scenario until the first event could run (set-up and
    /// traced modes only; 0 otherwise).
    pub setup_s: f64,
    /// Host seconds spent parsing and validating the scenario file.
    pub parse_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations finished by the stop time.
    pub done: u64,
    /// Workload-specific layer results.
    pub extras: Extras,
    /// Spans, in the traced and set-up modes.
    pub spans: Option<Spans>,
}

impl Execution {
    /// A hash of the report's deterministic part: the report with its wall-clock fields
    /// zeroed. Two same-seed runs must agree on it.
    pub fn deterministic_digest(&self) -> u64 {
        let mut report = self.report.clone();
        report.wall_secs = 0.0;
        report.events_per_sec = 0.0;
        let mut h = DefaultHasher::new();
        report.to_json().hash(&mut h);
        h.finish()
    }

    /// The paper-level property of the workload, or why it failed.
    pub fn check(&self, workload: &BenchWorkload, seed: u64) -> Result<(), String> {
        if self.report.outcome == RunOutcome::EventBudgetExhausted {
            return Err("the run exhausted its event budget".into());
        }
        let unfinished = self.attempted - self.done;
        if ratio(self.done, self.attempted) < workload.min_done_ratio {
            return Err(format!(
                "{unfinished} of {} operations did not finish",
                self.attempted
            ));
        }
        if let (Some(pin), BASE_SEED) = (workload.pin_events, seed) {
            if self.report.events_executed != pin || unfinished > 0 {
                return Err(format!(
                    "at seed {BASE_SEED}: {} events (the pin is {pin}), {unfinished} operations \
                     unfinished (must be 0)",
                    self.report.events_executed
                ));
            }
        }
        Ok(())
    }

    /// The per-participant completion-time distribution, with participants that never
    /// finished counted at `f64::MAX`.
    pub fn distribution(&self, workload: &BenchWorkload) -> Result<HistogramSnapshot, String> {
        let censored = self.attempted - self.done;
        let mut buckets = match workload.distribution {
            Distribution::Histogram(name) => self
                .report
                .metrics
                .histogram(name)
                .ok_or_else(|| format!("the report has no {name:?} histogram"))?
                .buckets
                .clone(),
            Distribution::ProgressCurve => {
                let curve = self
                    .report
                    .metrics
                    .series("progress")
                    .ok_or("the report has no progress series")?;
                let mut done = 0u64;
                let mut buckets = Vec::new();
                for &(t, v) in curve.samples() {
                    let now = v.max(0.0) as u64;
                    if now > done {
                        buckets.push((t.as_secs_f64(), now - done));
                        done = now;
                    }
                }
                buckets
            }
        };
        if censored > 0 {
            buckets.push((f64::MAX, censored));
        }
        Ok(HistogramSnapshot {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            min: None,
            max: None,
            p50: None,
            p90: None,
            p99: None,
            buckets,
        })
    }
}

/// Runs `workload` under `spec` in `mode`. `origin` is when parsing began; parsing took
/// `parse_s`.
fn run<W>(
    spec: &ScenarioSpec,
    workload: W,
    mode: Mode,
    origin: Instant,
    parse_s: f64,
) -> Result<Execution, String>
where
    W: Workload + 'static,
    W::Output: Judged,
{
    let (output, report, spans) = match mode {
        Mode::Plain => {
            let (output, report) = run_reported(spec, workload).map_err(|e| e.to_string())?;
            (output, report, None)
        }
        Mode::Traced | Mode::SetupOnly => {
            let ((output, spans), report) =
                run_reported(spec, Traced::new(workload)).map_err(|e| e.to_string())?;
            (output, report, Some(spans))
        }
    };
    let wall_s = origin.elapsed().as_secs_f64();
    let (attempted, done) = output.ops();
    Ok(Execution {
        wall_s,
        setup_s: spans
            .as_ref()
            .map_or(0.0, |s: &Spans| parse_s + s.until_first_event_s),
        parse_s,
        report,
        attempted,
        done,
        extras: output.extras(),
        spans,
    })
}

/// Parses `text`, validates it and runs it once in `mode`.
pub fn execute(text: &str, mode: Mode) -> Result<Execution, String> {
    let origin = Instant::now(); // lint:allow(wall-clock) — benchmark: start of the timed run
    let mut file = ScenarioFile::parse(text).map_err(|e| e.to_string())?;
    file.validate().map_err(|e| e.to_string())?;
    if mode == Mode::SetupOnly {
        file.spec.event_budget = Some(1);
    }
    let parse_s = origin.elapsed().as_secs_f64();
    let spec = &file.spec;
    match &file.workload {
        WorkloadConfig::Swarm(cfg) => {
            let workload = SwarmWorkload::new(cfg.as_ref().clone());
            let mut exec = run(spec, workload, mode, origin, parse_s)?;
            exec.extras.file_bytes = Some(cfg.file_bytes);
            Ok(exec)
        }
        WorkloadConfig::Gossip(g) => {
            run(spec, GossipWorkload::new(g.clone()), mode, origin, parse_s)
        }
        WorkloadConfig::DhtLookup(d) => run(
            spec,
            DhtLookupWorkload::new(d.clone()),
            mode,
            origin,
            parse_s,
        ),
        other => Err(format!(
            "workload kind {:?} is not benchmarked",
            other.kind()
        )),
    }
}
