//! The traced run's instrument: a [`Workload`] wrapper that forwards every trait method to the
//! wrapped workload and records wall-clock spans at the boundaries the scenario runner crosses,
//! plus the layer counters and probe parameters it can read from the world through public
//! accessors. Nothing inside the emulator is instrumented; every number here is taken from
//! outside, around the calls the runner makes.

use crate::host;
use p2plab_core::adversary::{AdversaryRoster, InvariantReport};
use p2plab_core::scenario::ShardedOutcome;
use p2plab_core::{
    ArrivalSchedule, ArrivalSpec, Deployment, ScenarioError, ScenarioRun, ScenarioSpec,
    SessionProcess, Workload,
};
use p2plab_net::{Firewall, NetStats, Network, PipeConfig, VNodeId, VirtAddr};
use p2plab_sim::{Recorder, RunOutcome, SimTime, Simulation, TimeSeriesId};
use std::cell::Cell;
use std::time::Instant;

/// What the emulator's layers did in one run, read from the final world's public counters.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Global data-plane counters.
    pub net: NetStats,
    /// Packets forwarded by access-link pipes (both directions, every vnode).
    pub pipe_forwarded: u64,
    /// Packets dropped by access-link pipes (random loss, overflow and burst loss).
    pub pipe_dropped: u64,
    /// Packets forwarded by the machines' NIC pipes (transmit and receive).
    pub nic_forwarded: u64,
    /// Packets classified by the machines' firewalls.
    pub firewall_packets: u64,
    /// Rules examined by those classifications.
    pub firewall_rules_examined: u64,
}

impl LayerCounts {
    /// Sums the counters of every pipe and firewall of `net`.
    pub fn read(net: &Network) -> LayerCounts {
        let mut c = LayerCounts {
            net: net.stats(),
            ..LayerCounts::default()
        };
        for (_, v) in net.vnodes() {
            for pipe in [v.up_pipe, v.down_pipe] {
                let s = net.pipe(pipe).stats();
                c.pipe_forwarded += s.forwarded_packets;
                c.pipe_dropped += s.dropped_loss + s.dropped_overflow + s.dropped_burst;
            }
        }
        for m in 0..net.machine_count() {
            let machine = net.machine(p2plab_net::MachineId(m));
            for pipe in [machine.nic_tx, machine.nic_rx] {
                c.nic_forwarded += net.pipe(pipe).stats().forwarded_packets;
            }
            let fw = machine.firewall.stats();
            c.firewall_packets += fw.packets;
            c.firewall_rules_examined += fw.rules_examined;
        }
        c
    }
}

/// The built world's layer parameters the probes replay: one machine's firewall (its full rule
/// list), a packet path through it, and the access-link pipe configuration.
#[derive(Debug, Clone)]
pub struct ProbeParams {
    /// The firewall of the first machine, cloned with its rules.
    pub firewall: Firewall,
    /// Addresses of the vnodes that machine hosts (probe sources).
    pub local_addrs: Vec<VirtAddr>,
    /// Address of a vnode on another machine (probe destination).
    pub remote_addr: VirtAddr,
    /// Upload pipe configuration of the first vnode.
    pub up_pipe: PipeConfig,
}

impl ProbeParams {
    fn read(net: &Network) -> Option<ProbeParams> {
        let first = net.vnode(VNodeId(0));
        let machine = first.machine;
        let local_addrs = net
            .vnodes()
            .filter(|(_, v)| v.machine == machine)
            .map(|(_, v)| v.addr)
            .collect();
        let remote_addr = net
            .vnodes()
            .find(|(_, v)| v.machine != machine)
            .map(|(_, v)| v.addr)?;
        Some(ProbeParams {
            firewall: net.machine(machine).firewall.clone(),
            local_addrs,
            remote_addr,
            up_pipe: *net.pipe(first.up_pipe).config(),
        })
    }
}

/// Everything one traced run measured.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Validate + arrival schedule + deploy: from the `run_reported` call to `build_world`.
    pub pre_world_s: f64,
    /// Inside `build_world`.
    pub build_world_s: f64,
    /// Inside `on_deployed`, `schedule_arrivals` and `schedule_churn`.
    pub schedule_s: f64,
    /// From the last scheduling call to `finalize`, minus the sampler's time.
    pub event_loop_s: f64,
    /// Inside the sampler ticks (from `sample` to the `is_complete` that ends the tick).
    pub sample_s: f64,
    /// Inside `finalize`.
    pub finalize_s: f64,
    /// Sampler ticks.
    pub samples: u64,
    /// Host milliseconds between successive sampler ticks (one virtual sample interval each).
    pub slice_ms: Vec<f64>,
    /// Resident memory once the world was built, in MiB.
    pub world_mb: f64,
    /// Host seconds from the `run_reported` call until the first event could run.
    pub until_first_event_s: f64,
    /// Layer counters of the final world.
    pub counts: LayerCounts,
    /// Layer parameters for the probes, read from the built world.
    pub probe: Option<ProbeParams>,
}

/// Forwards every [`Workload`] method to `inner`, timing the runner's phase boundaries.
pub struct Traced<W> {
    inner: W,
    called: Instant,
    scheduled: Option<Instant>,
    // A sampler tick starts in `sample` and ends in the `is_complete` call that follows it,
    // which only gets `&self`.
    sample_started: Cell<Option<Instant>>,
    sample_s: Cell<f64>,
    last_tick: Option<Instant>,
    spans: Spans,
}

impl<W> Traced<W> {
    /// Wraps `inner`; call right before handing the wrapper to the runner.
    pub fn new(inner: W) -> Traced<W> {
        Traced {
            inner,
            called: Instant::now(), // lint:allow(wall-clock) — benchmark span: the runner call
            scheduled: None,
            sample_started: Cell::new(None),
            sample_s: Cell::new(0.0),
            last_tick: None,
            spans: Spans::default(),
        }
    }

    fn close_sample(&self, now: Instant) {
        if let Some(start) = self.sample_started.take() {
            self.sample_s
                .set(self.sample_s.get() + (now - start).as_secs_f64());
        }
    }

    fn mark_scheduled(&mut self, start: Instant) {
        let now = Instant::now(); // lint:allow(wall-clock) — benchmark span: scheduling phase
        self.spans.schedule_s += (now - start).as_secs_f64();
        self.scheduled = Some(now);
        self.spans.until_first_event_s = (now - self.called).as_secs_f64();
    }
}

impl<W: Workload> Workload for Traced<W> {
    type World = W::World;
    type Event = W::Event;
    type Output = (W::Output, Spans);

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn vnodes_required(&self) -> usize {
        self.inner.vnodes_required()
    }

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn adversary_population(&self) -> usize {
        self.inner.adversary_population()
    }

    fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
        self.inner.set_adversary(roster)
    }

    fn check_invariants(&self, world: &Self::World, outcome: RunOutcome) -> InvariantReport {
        self.inner.check_invariants(world, outcome)
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        self.inner.default_arrivals()
    }

    fn build_world(&mut self, deployment: Deployment) -> Self::World {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: world build
        self.spans.pre_world_s = (start - self.called).as_secs_f64();
        let world = self.inner.build_world(deployment);
        self.spans.build_world_s = start.elapsed().as_secs_f64();
        self.spans.world_mb = host::rss_mb();
        self.spans.probe = ProbeParams::read(W::network(&world));
        world
    }

    fn on_deployed(&mut self, sim: &mut Simulation<Self::World, Self::Event>) {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: scheduling phase
        self.inner.on_deployed(sim);
        self.mark_scheduled(start);
    }

    fn schedule_arrivals(
        &mut self,
        sim: &mut Simulation<Self::World, Self::Event>,
        arrivals: &ArrivalSchedule,
    ) {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: scheduling phase
        self.inner.schedule_arrivals(sim, arrivals);
        self.mark_scheduled(start);
    }

    fn schedule_churn(
        &mut self,
        sim: &mut Simulation<Self::World, Self::Event>,
        sessions: &SessionProcess,
        arrivals: &ArrivalSchedule,
    ) {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: scheduling phase
        self.inner.schedule_churn(sim, sessions, arrivals);
        self.mark_scheduled(start);
    }

    fn network(world: &Self::World) -> &Network {
        W::network(world)
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        self.inner.setup_metrics(rec)
    }

    fn sample(&mut self, now: SimTime, world: &Self::World, rec: &mut Recorder) -> f64 {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: sampler tick
        self.close_sample(start);
        if let Some(prev) = self.last_tick.replace(start) {
            self.spans.slice_ms.push((start - prev).as_secs_f64() * 1e3);
        }
        self.spans.samples += 1;
        self.sample_started.set(Some(start));
        self.inner.sample(now, world, rec)
    }

    fn is_complete(&self, world: &Self::World) -> bool {
        let complete = self.inner.is_complete(world);
        self.close_sample(Instant::now()); // lint:allow(wall-clock) — benchmark span: sampler tick
        complete
    }

    fn finalize(mut self, world: Self::World, run: ScenarioRun) -> Self::Output {
        let entered = Instant::now(); // lint:allow(wall-clock) — benchmark span: end of the loop
        self.close_sample(entered);
        self.spans.sample_s = self.sample_s.get();
        let loop_start = self.scheduled.unwrap_or(self.called);
        self.spans.event_loop_s = (entered - loop_start).as_secs_f64() - self.spans.sample_s;
        self.spans.counts = LayerCounts::read(W::network(&world));
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: finalize
        let output = self.inner.finalize(world, run);
        self.spans.finalize_s = start.elapsed().as_secs_f64();
        (output, self.spans)
    }

    fn run_sharded(
        &mut self,
        spec: &ScenarioSpec,
        arrivals: &ArrivalSchedule,
        rec: &mut Recorder,
        progress: TimeSeriesId,
    ) -> Option<Result<(Self::World, ShardedOutcome), ScenarioError>> {
        let start = Instant::now(); // lint:allow(wall-clock) — benchmark span: sharded execution
        let result = self.inner.run_sharded(spec, arrivals, rec, progress);
        if result.is_some() {
            // The shard runtime builds, schedules and runs in one call; the whole call is
            // charged to the event loop and the phases before it to `pre_world_s`.
            self.spans.pre_world_s = (start - self.called).as_secs_f64();
            self.scheduled = Some(start);
            self.spans.until_first_event_s = self.spans.pre_world_s;
        }
        result
    }
}
