//! Probes: each times one layer's hot public call, in isolation, at the parameters the traced
//! workload actually uses (its queue population, firewall rule list, access-link pipe, link
//! class and file size). A probe reports host nanoseconds per operation as the median of
//! several timed rounds.

use crate::trace::ProbeParams;
use p2plab_bittorrent::{Bitfield, PieceManager, Torrent};
use p2plab_core::{deploy, DeploymentSpec, ScenarioSpec};
use p2plab_net::proto::{fragment_count, AckTracker, Reassembler, SentWindow};
use p2plab_net::{ping_series, Direction, PingWorld, Pipe, TopologySpec};
use p2plab_sim::{
    run_sharded, EventQueue, ShardConfig, ShardSim, ShardWorld, SimDuration, SimRng, SimTime,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed rounds per probe; the median round is reported.
const ROUNDS: usize = 5;

/// Runs `round` (which returns the operations it performed) `ROUNDS` times and returns the
/// median nanoseconds per operation.
fn median_ns(mut round: impl FnMut() -> u64) -> f64 {
    let mut per_op: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now(); // lint:allow(wall-clock) — benchmark probe timing
            let ops = round().max(1);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[ROUNDS / 2]
}

/// A tiny deterministic generator for probe inputs (xorshift64).
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Nanoseconds per hold operation (pop the earliest event, push one later) on an
/// [`EventQueue`] kept at a standing population of `population` events.
pub fn queue_hold_ns(population: usize) -> f64 {
    const OPS: u64 = 400_000;
    let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
    let mut queue: EventQueue<u64> = EventQueue::new();
    queue.reserve(population);
    for i in 0..population as u64 {
        queue.push(SimTime::from_micros(rng.next() % 10_000_000), i);
    }
    median_ns(|| {
        for _ in 0..OPS {
            let (at, _, ev) = queue.pop().expect("the population never drains");
            let delay = SimDuration::from_micros(1 + rng.next() % 10_000_000);
            queue.push(at + delay, black_box(ev));
        }
        OPS
    })
}

/// A two-shard world in which each shard bounces one message to the other every window.
struct Bounce;

impl ShardWorld for Bounce {
    type Msg = ();
    type Local = ();

    fn on_message(sim: &mut ShardSim<Self>, src: u64, _msg: ()) {
        let host = sim.world();
        let other = (host.shard() + 1) % host.shards();
        let lookahead = host.lookahead();
        sim.send_message(src, other, lookahead, ());
    }

    fn on_local(sim: &mut ShardSim<Self>, _ev: ()) {
        let host = sim.world();
        let (shard, other) = (host.shard(), (host.shard() + 1) % host.shards());
        let lookahead = host.lookahead();
        sim.send_message(shard as u64, other, lookahead, ());
    }
}

/// Nanoseconds per synchronization window of [`run_sharded`] at two shards with a minimal
/// world: the barrier and envelope exchange, with almost no work inside the window.
pub fn shard_window_ns() -> f64 {
    const WINDOWS: u64 = 5_000;
    let lookahead = SimDuration::from_millis(1);
    median_ns(|| {
        let mut cfg = ShardConfig::new(2, lookahead, 1);
        cfg.deadline = SimTime::ZERO + lookahead * WINDOWS;
        let run = run_sharded(
            &cfg,
            |_| Bounce,
            |sim| sim.schedule_local_in(SimDuration::from_micros(1), ()),
        );
        run.windows
    })
}

/// Nanoseconds per echo round trip between two vnodes on different machines, on the
/// workload's access-link class and network configuration (`ping_series`, including its
/// simulation set-up, amortized over the series).
pub fn ping_ns(spec: &ScenarioSpec) -> f64 {
    const PINGS: usize = 2_000;
    let link = spec.topology.groups[0].link;
    let topology = TopologySpec::uniform("probe", 2, link);
    median_ns(|| {
        let deployment = deploy(&topology, DeploymentSpec::new(2), spec.network)
            .expect("a two-node deployment is valid");
        let (from, to) = (deployment.vnodes[0], deployment.vnodes[1]);
        let world = PingWorld::new(deployment.net, 56);
        let (_, rtts) = ping_series(world, from, to, PINGS, SimDuration::from_millis(10), 7);
        black_box(rtts);
        PINGS as u64
    })
}

/// Nanoseconds per `Pipe::enqueue` of a 1500-byte packet on the workload's access-link upload
/// pipe, offered at the pipe's line rate so its queue stays short.
pub fn pipe_enqueue_ns(params: &ProbeParams) -> f64 {
    const OPS: u64 = 400_000;
    const SIZE: u64 = 1500;
    let step = params
        .up_pipe
        .bandwidth_bps
        .map_or(SimDuration::from_micros(1), |bps| {
            SimDuration::transmission(SIZE, bps)
        });
    let mut pipe = Pipe::new(params.up_pipe);
    let mut rng = SimRng::new(3);
    let mut now = SimTime::ZERO;
    median_ns(|| {
        for _ in 0..OPS {
            black_box(pipe.enqueue(now, SIZE, &mut rng));
            now += step;
        }
        OPS
    })
}

/// Nanoseconds per `Firewall::classify` of an outgoing packet on the workload's first
/// machine, with that machine's full rule list.
pub fn classify_ns(params: &ProbeParams) -> f64 {
    const OPS: u64 = 200_000;
    let mut firewall = params.firewall.clone();
    let sources = &params.local_addrs;
    median_ns(|| {
        for i in 0..OPS as usize {
            let src = sources[i % sources.len()];
            black_box(firewall.classify(src, params.remote_addr, Direction::Out));
        }
        OPS
    })
}

/// Nanoseconds per `Reassembler::accept`, reassembling 16 KiB blocks fragmented at MTU 1500.
pub fn frag_ns() -> f64 {
    const MESSAGES: u64 = 20_000;
    let count = fragment_count(16 * 1024, 1500);
    let mut reassembler = Reassembler::default();
    let mut msg: u16 = 0;
    median_ns(|| {
        for _ in 0..MESSAGES {
            for index in 0..count {
                black_box(reassembler.accept(msg, index, count));
            }
            msg = msg.wrapping_add(1);
        }
        MESSAGES * u64::from(count)
    })
}

/// Nanoseconds per fragment of the ack path: `SentWindow::on_sent`, `AckTracker::record`, and
/// `SentWindow::on_ack` with the tracker's bitfield.
pub fn ack_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut tracker = AckTracker::default();
    let mut window = SentWindow::default();
    let mut seq: u16 = 0;
    median_ns(|| {
        for i in 0..OPS {
            let now = SimTime::from_micros(i);
            window.on_sent(seq, 1500, now);
            tracker.record(seq);
            let field = tracker.bitfield();
            window.on_ack(&field, |bytes, sent| {
                black_box((bytes, sent));
            });
            seq = seq.wrapping_add(1);
        }
        OPS
    })
}

/// Nanoseconds per block of BitTorrent piece selection: `PieceManager::pick_blocks` from a
/// seeder's bitfield, then `block_received` for each picked block, over a file of
/// `file_bytes`.
pub fn pick_ns(file_bytes: u64) -> f64 {
    const BLOCKS: u64 = 100_000;
    let torrent = Torrent::new("probe", file_bytes);
    let seeder = Bitfield::full(torrent.num_pieces());
    let fresh = || {
        let mut pieces = PieceManager::new(torrent.clone(), false);
        pieces.add_peer_bitfield(&seeder);
        pieces
    };
    let mut pieces = fresh();
    let mut rng = SimRng::new(5);
    median_ns(|| {
        let mut picked = 0;
        while picked < BLOCKS {
            if pieces.is_complete() {
                pieces = fresh();
            }
            let blocks = pieces.pick_blocks(&seeder, 5, SimTime::ZERO, &mut rng);
            for &(piece, block) in &blocks {
                black_box(pieces.block_received(piece, block));
            }
            picked += blocks.len().max(1) as u64;
        }
        picked
    })
}
