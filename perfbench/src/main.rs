//! The p2plab benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record --workload <name>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it sets the scenario up several times, then
//! runs it (at least twice) for `--seconds`, checks every run, and reports medians. Each full
//! run is a child process of its own (`--exec`, which prints one result line), so that peak
//! memory is that of a process that ran the workload once.
//! `--trace 1` runs the scenario once plainly and once through the tracing wrapper, checks
//! that both runs agree, times each layer's hot call with probes, and reports the per-layer
//! metrics. The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; a human-readable summary goes to standard error.
//! `--record` rewrites the workload's reference distributions for every seed slot.

use p2plab_core::histogram_ks_distance;
use p2plab_perfbench::workloads::{
    execute, find, ratio, BenchWorkload, Execution, Mode, BASE_SEED, SEED_SLOTS, WORKLOADS,
};
use p2plab_perfbench::{host, probes, reference, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up-only executions per `--trace 0` run: at least `MIN`, more while under the budget.
const SETUP_REPS_MIN: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;

/// Full executions per `--trace 0` run: at least two (the determinism check compares them),
/// more while the next one still fits in `--seconds`, never past `EXEC_CAP_S`.
const EXECS_MIN: usize = 2;
const EXEC_CAP_S: f64 = 120.0;

/// The file size the piece-selection probe uses when the workload shares no file.
const DEFAULT_PROBE_FILE_BYTES: u64 = 16 * 1024 * 1024;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
    exec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: false,
        exec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record" => {
                args.record = true;
                continue;
            }
            "--exec" => {
                args.exec = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One benchmark result: the contract's JSON object.
struct Outcome {
    attempted: u64,
    /// How many of the attempted executions failed a check.
    failed: u64,
    /// What failed; the result is correct when this is empty.
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; `reject_non_finite` already failed the result.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric that is not a finite number means the benchmark is broken: the whole result
    /// fails.
    fn reject_non_finite(&mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is {value}"));
                self.failed = self.attempted;
            }
        }
    }

    fn print_summary(&self, label: &str) {
        for (name, value, unit) in &self.metrics {
            eprintln!("[{label}] {name} = {value} {unit}");
        }
        for failure in &self.failures {
            eprintln!("[{label}] FAILED: {failure}");
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of `values` (0 for an empty slice).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99/p95/p90/p75/p50 with at least ten values beyond it (the maximum when
/// there are fewer than twenty values).
fn high_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(1.0)
}

/// The scenario seed benchmark seed `seed` runs at, and its reference slot.
fn scenario_seed(seed: u64) -> (u64, u64) {
    let slot = seed % SEED_SLOTS;
    (BASE_SEED + slot, slot)
}

/// 1 − the KS distance between the execution's completion-time distribution and the
/// reference recorded for its seed slot.
fn fidelity(w: &BenchWorkload, slot: u64, exec: &Execution) -> Result<f64, String> {
    let reference = reference::load(w.reference, slot)?;
    let dist = exec.distribution(w)?;
    Ok(1.0 - histogram_ks_distance(&dist, &reference))
}

/// One plain execution, measured in a process of its own (`--exec`), so that its peak memory
/// is that of a process that ran only this workload, once.
struct Measured {
    wall_s: f64,
    events: u64,
    digest: u64,
    attempted: u64,
    done: u64,
    fidelity: f64,
    peak_rss_mb: f64,
    check: Result<(), String>,
}

impl Measured {
    /// `--exec`: runs the execution in this process.
    fn run(w: &BenchWorkload, seed: u64) -> Result<Measured, String> {
        let (seed, slot) = scenario_seed(seed);
        let exec = execute(&w.scenario_text(seed), Mode::Plain)?;
        Ok(Measured {
            wall_s: exec.wall_s,
            events: exec.report.events_executed,
            digest: exec.deterministic_digest(),
            attempted: exec.attempted,
            done: exec.done,
            fidelity: fidelity(w, slot, &exec)?,
            peak_rss_mb: host::peak_rss_mb(),
            check: exec.check(w, seed),
        })
    }

    /// Runs the execution in a child process and reads its result line.
    fn spawn(w: &BenchWorkload, seed: u64) -> Result<Measured, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .args(["--exec", "--workload", w.name, "--seed", &seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting an execution of {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last() {
            Some(line) if out.status.success() => Measured::parse(line),
            _ => Err(format!(
                "an execution of {} failed ({})",
                w.name, out.status
            )),
        }
    }

    fn to_line(&self) -> String {
        format!(
            "exec wall_s={} events={} digest={} attempted={} done={} fidelity={} peak_rss_mb={} check={}",
            self.wall_s,
            self.events,
            self.digest,
            self.attempted,
            self.done,
            self.fidelity,
            self.peak_rss_mb,
            self.check.as_ref().err().map_or("ok", String::as_str)
        )
    }

    fn parse(line: &str) -> Result<Measured, String> {
        let bad = || format!("malformed execution result {line:?}");
        let (fields, check) = line.split_once(" check=").ok_or_else(bad)?;
        let field = |key: &str| -> Result<&str, String> {
            fields
                .split(' ')
                .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(bad)
        };
        let float = |key: &str| field(key)?.parse::<f64>().map_err(|_| bad());
        let int = |key: &str| field(key)?.parse::<u64>().map_err(|_| bad());
        Ok(Measured {
            wall_s: float("wall_s")?,
            events: int("events")?,
            digest: int("digest")?,
            attempted: int("attempted")?,
            done: int("done")?,
            fidelity: float("fidelity")?,
            peak_rss_mb: float("peak_rss_mb")?,
            check: if check == "ok" {
                Ok(())
            } else {
                Err(check.to_string())
            },
        })
    }
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(w: &BenchWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let text = w.scenario_text(scenario_seed(seed).0);
    let mut failures = Vec::new();

    let start = Instant::now(); // lint:allow(wall-clock) — benchmark: set-up budget
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPS_MIN || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        setups.push(execute(&text, Mode::SetupOnly)?.setup_s);
    }

    let start = Instant::now(); // lint:allow(wall-clock) — benchmark: run length
    let mut runs: Vec<Measured> = Vec::new();
    let mut failed = 0;
    loop {
        let run = Measured::spawn(w, seed)?;
        eprintln!(
            "[{}] run {}: {:.3} s, {} events, {} of {} operations finished, peak {:.1} MiB",
            w.name,
            runs.len() + 1,
            run.wall_s,
            run.events,
            run.done,
            run.attempted,
            run.peak_rss_mb
        );
        let failures_before = failures.len();
        if let Err(e) = &run.check {
            failures.push(format!("run {}: {e}", runs.len() + 1));
        }
        if runs.first().is_some_and(|first| first.digest != run.digest) {
            failures.push(format!(
                "run {} differs from run 1 with the same seed (wall-clock fields aside)",
                runs.len() + 1
            ));
        }
        if failures.len() > failures_before {
            failed += 1;
        }
        runs.push(run);
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let next = start.elapsed().as_secs_f64() + median(&walls);
        if runs.len() >= EXECS_MIN && (next > seconds as f64 || next > EXEC_CAP_S) {
            break;
        }
    }
    let of = |f: fn(&Measured) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let values = [
        of(|r| r.wall_s),
        median(&setups),
        of(|r| r.peak_rss_mb),
        of(|r| ratio(r.done, r.attempted)),
        of(|r| r.fidelity),
    ];
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect(),
    })
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(w: &BenchWorkload, bench_seed: u64) -> Result<Outcome, String> {
    let seed = scenario_seed(bench_seed).0;
    let text = w.scenario_text(seed);
    let mut failures = Vec::new();

    // The untraced execution runs in a process of its own, so that both it and the traced one
    // start from a fresh heap.
    let plain = Measured::spawn(w, bench_seed)?;
    let cpu_before = host::cpu_s();
    let traced = execute(&text, Mode::Traced)?;
    let cpu_s = host::cpu_s() - cpu_before;
    let mut failed = 0;
    if let Err(e) = &plain.check {
        failures.push(format!("untraced run: {e}"));
        failed += 1;
    }
    let mut traced_failures = Vec::new();
    if let Err(e) = traced.check(w, seed) {
        traced_failures.push(format!("traced run: {e}"));
    }
    if plain.digest != traced.deterministic_digest() {
        traced_failures.push(
            "the traced run's report differs from the untraced run's (the wrapper changed \
             the program)"
                .to_string(),
        );
    }
    failed += u64::from(!traced_failures.is_empty());
    failures.extend(traced_failures);
    let spans = traced
        .spans
        .clone()
        .ok_or("the traced run recorded no spans")?;
    let params = spans
        .probe
        .clone()
        .ok_or("the world has no second machine to probe a path to")?;
    let file = p2plab_core::ScenarioFile::parse(&text).map_err(|e| e.to_string())?;
    let participants = file.workload.participants();

    let hold_ns = probes::queue_hold_ns((participants * 8).max(1024));
    let window_ns = probes::shard_window_ns();
    let ping_ns = probes::ping_ns(&file.spec);
    let enqueue_ns = probes::pipe_enqueue_ns(&params);
    let classify_ns = probes::classify_ns(&params);
    let frag_ns = probes::frag_ns();
    let ack_ns = probes::ack_ns();
    let pick_ns = probes::pick_ns(traced.extras.file_bytes.unwrap_or(DEFAULT_PROBE_FILE_BYTES));

    let c = &spans.counts;
    let net = &c.net;
    let x = &traced.extras;
    let events = traced.report.events_executed as f64;
    let ns = 1e-9;
    let slice_q = high_quantile(spans.slice_ms.len());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let values: Vec<(&str, f64)> = vec![
        ("scenario.parse_s", traced.parse_s),
        ("scenario.pre_world_s", spans.pre_world_s),
        ("scenario.build_world_s", spans.build_world_s),
        ("scenario.schedule_s", spans.schedule_s),
        ("scenario.event_loop_s", spans.event_loop_s),
        ("scenario.sample_s", spans.sample_s),
        ("scenario.samples", spans.samples as f64),
        ("scenario.finalize_s", spans.finalize_s),
        ("scenario.slice_ms.p50", quantile(&spans.slice_ms, 0.5)),
        ("scenario.slice_ms.p_hi", quantile(&spans.slice_ms, slice_q)),
        ("scenario.slice_ms.p_hi_q", slice_q),
        ("mem.world_mb", spans.world_mb),
        ("proc.cpu_s", cpu_s),
        ("trace.overhead_s", traced.wall_s - plain.wall_s),
        ("ops.attempted", traced.attempted as f64),
        ("ops.unfinished", (traced.attempted - traced.done) as f64),
        ("sim.events", events),
        ("sim.events_per_s", events / spans.event_loop_s.max(1e-9)),
        ("sim.queue.hold_ns", hold_ns),
        ("sim.queue.est_s", events * hold_ns * ns),
        ("sim.shard.window_ns", window_ns),
        ("net.messages_sent", net.messages_sent as f64),
        ("net.messages_delivered", net.messages_delivered as f64),
        (
            "net.delivered_ratio",
            ratio(net.messages_delivered, net.messages_sent),
        ),
        ("net.bytes_delivered", net.bytes_delivered as f64),
        ("net.nic.forwarded", c.nic_forwarded as f64),
        ("net.path.ping_ns", ping_ns),
        (
            "net.path.est_s",
            net.messages_delivered as f64 * ping_ns / 2.0 * ns,
        ),
        ("net.pipe.forwarded", c.pipe_forwarded as f64),
        ("net.pipe.dropped", c.pipe_dropped as f64),
        (
            "net.pipe.drop_ratio",
            ratio(c.pipe_dropped, c.pipe_forwarded + c.pipe_dropped),
        ),
        ("net.pipe.enqueue_ns", enqueue_ns),
        (
            "net.pipe.est_s",
            (c.pipe_forwarded + c.pipe_dropped) as f64 * enqueue_ns * ns,
        ),
        ("net.firewall.packets", c.firewall_packets as f64),
        (
            "net.firewall.rules_per_packet",
            ratio(c.firewall_rules_examined, c.firewall_packets),
        ),
        ("net.firewall.classify_ns", classify_ns),
        (
            "net.firewall.est_s",
            c.firewall_packets as f64 * classify_ns * ns,
        ),
        ("net.proto.fragments", net.fragments_sent as f64),
        ("net.proto.acks", net.acks_sent as f64),
        (
            "net.proto.selective_retransmits",
            net.selective_retransmits as f64,
        ),
        (
            "net.proto.retransmit_ratio",
            ratio(net.selective_retransmits, net.fragments_sent),
        ),
        (
            "net.proto.reassembly_timeouts",
            net.reassembly_timeouts as f64,
        ),
        ("net.proto.frag_ns", frag_ns),
        ("net.proto.ack_ns", ack_ns),
        (
            "net.proto.est_s",
            net.fragments_sent as f64 * (frag_ns + ack_ns) * ns,
        ),
        ("net.rpc.calls", x.rpc.calls as f64),
        ("net.rpc.retries", x.rpc.retries as f64),
        ("net.rpc.timeouts", x.rpc.timeouts as f64),
        ("net.rpc.reply_ratio", ratio(x.rpc.replies, x.rpc.calls)),
        ("net.retransmissions", net.retransmissions as f64),
        ("bittorrent.pick_ns", pick_ns),
        ("bittorrent.est_s", x.blocks as f64 * pick_ns * ns),
        ("gossip.duplicate_ratio", ratio(x.rumors.1, x.rumors.0)),
        ("dht.hops_mean", x.dht_hops_mean),
        ("dht.exact_ratio", x.dht_exact_ratio),
        ("host.cores", cores as f64),
    ];
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
        metrics.push((name.to_string(), value, unit));
    }
    Ok(Outcome {
        attempted: 2,
        failed,
        failures,
        metrics,
    })
}

/// `--record`: runs every seed slot once and rewrites the workload's reference file.
fn record(w: &BenchWorkload) -> Result<(), String> {
    let slots: Vec<u64> = (0..SEED_SLOTS).collect();
    // Two slots at a time: recording takes no timings, so the host's two cores may share it.
    let blocks: Vec<Result<String, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks(slots.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&slot| {
                            let (seed, _) = scenario_seed(slot);
                            let exec = execute(&w.scenario_text(seed), Mode::Plain)?;
                            exec.check(w, seed)?;
                            eprintln!("[{}] recorded slot {slot} (seed {seed})", w.name);
                            Ok(reference::render(slot, seed, &exec.distribution(w)?))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a recording thread panicked"))
            .collect()
    });
    let mut out = format!(
        "# Reference completion-time distributions of the {} workload, one block per seed slot.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --record --workload {}\n",
        w.name, w.name
    );
    for block in blocks {
        out.push_str(&block?);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.txt", w.name));
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `--workload all`: runs every workload in its own process (so each reports its own peak
/// memory) and prints the end-to-end metrics side by side.
fn all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    let mut table = String::from("workload");
    for (name, unit) in END_TO_END {
        table.push_str(&format!("\t{name} ({unit})"));
    }
    for w in &WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || !last.starts_with('{') {
            return Err(format!("workload {} failed ({})", w.name, out.status));
        }
        if !last.starts_with("{\"correct\": true") {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("workload {} failed its checks", w.name));
        }
        outcome.attempted += 1;
        table.push('\n');
        table.push_str(w.name);
        let wanted: Vec<(&str, &str)> = if args.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        for (name, unit) in wanted {
            let key = format!("\"{name}\": {{\"value\": ");
            let value = last
                .split_once(&key)
                .and_then(|(_, rest)| rest.split_once(',')?.0.parse::<f64>().ok())
                .ok_or_else(|| format!("{} reported no {name}", w.name))?;
            if !args.trace {
                table.push_str(&format!("\t{value:.6}"));
            }
            outcome
                .metrics
                .push((format!("{}.{name}", w.name), value, unit));
        }
    }
    if !args.trace {
        eprintln!("\n{table}");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        all(&args).map(Some)
    } else {
        find(&args.workload).and_then(|w| {
            if args.record {
                record(w).map(|()| None)
            } else if args.exec {
                Measured::run(w, args.seed).map(|m| {
                    println!("{}", m.to_line());
                    None
                })
            } else if args.trace {
                per_layer(w, args.seed).map(Some)
            } else {
                end_to_end(w, args.seed, args.seconds).map(Some)
            }
        })
    };
    match result {
        Ok(Some(mut outcome)) => {
            outcome.reject_non_finite();
            outcome.print_summary(&args.workload);
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
