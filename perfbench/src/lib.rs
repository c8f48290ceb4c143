//! The p2plab benchmark's library half: the workloads and the code that runs them, the
//! tracing wrapper, the layer probes and the reference distributions. The `p2plab-perfbench`
//! binary drives them; see its documentation for the command line.

pub mod host;
pub mod probes;
pub mod reference;
pub mod trace;
pub mod workloads;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_done_ratio", "ratio"),
    ("result_fidelity", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("scenario.parse_s", "s"),
    ("scenario.pre_world_s", "s"),
    ("scenario.build_world_s", "s"),
    ("scenario.schedule_s", "s"),
    ("scenario.event_loop_s", "s"),
    ("scenario.sample_s", "s"),
    ("scenario.samples", "count"),
    ("scenario.finalize_s", "s"),
    ("scenario.slice_ms.p50", "ms"),
    ("scenario.slice_ms.p_hi", "ms"),
    ("scenario.slice_ms.p_hi_q", "quantile"),
    ("mem.world_mb", "MiB"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("ops.attempted", "count"),
    ("ops.unfinished", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue.hold_ns", "ns"),
    ("sim.queue.est_s", "s"),
    ("sim.shard.window_ns", "ns"),
    ("net.messages_sent", "count"),
    ("net.messages_delivered", "count"),
    ("net.delivered_ratio", "ratio"),
    ("net.bytes_delivered", "bytes"),
    ("net.nic.forwarded", "count"),
    ("net.path.ping_ns", "ns"),
    ("net.path.est_s", "s"),
    ("net.pipe.forwarded", "count"),
    ("net.pipe.dropped", "count"),
    ("net.pipe.drop_ratio", "ratio"),
    ("net.pipe.enqueue_ns", "ns"),
    ("net.pipe.est_s", "s"),
    ("net.firewall.packets", "count"),
    ("net.firewall.rules_per_packet", "count"),
    ("net.firewall.classify_ns", "ns"),
    ("net.firewall.est_s", "s"),
    ("net.proto.fragments", "count"),
    ("net.proto.acks", "count"),
    ("net.proto.selective_retransmits", "count"),
    ("net.proto.retransmit_ratio", "ratio"),
    ("net.proto.reassembly_timeouts", "count"),
    ("net.proto.frag_ns", "ns"),
    ("net.proto.ack_ns", "ns"),
    ("net.proto.est_s", "s"),
    ("net.rpc.calls", "count"),
    ("net.rpc.retries", "count"),
    ("net.rpc.timeouts", "count"),
    ("net.rpc.reply_ratio", "ratio"),
    ("net.retransmissions", "count"),
    ("bittorrent.pick_ns", "ns"),
    ("bittorrent.est_s", "s"),
    ("gossip.duplicate_ratio", "ratio"),
    ("dht.hops_mean", "count"),
    ("dht.exact_ratio", "ratio"),
    ("host.cores", "count"),
];
