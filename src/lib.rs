//! # p2plab — lightweight emulation to study peer-to-peer systems
//!
//! A Rust reproduction of *"Lightweight emulation to study peer-to-peer systems"*
//! (Nussbaum & Richard): the P2PLab framework, rebuilt on a deterministic discrete-event
//! engine so that the paper's full evaluation — scheduler suitability, emulation accuracy and
//! the BitTorrent case study — runs on a laptop in seconds and is exactly reproducible.
//!
//! This facade crate simply re-exports the workspace crates:
//!
//! * [`sim`] — discrete-event engine, deterministic RNG, measurement types;
//! * [`os`] — physical-node substrate (CPU schedulers, memory/swap, syscall costs);
//! * [`net`] — network emulation (dummynet pipes, IPFW rules, topologies, the session/lane/RPC
//!   node-facing transport API, BINDIP shim);
//! * [`bittorrent`] — the studied application (tracker, peer wire protocol, choking, swarms);
//! * [`core`] — the P2PLab framework: the workload-agnostic scenario API
//!   (`Workload` + `ScenarioBuilder` + `run_scenario`), the arrival/session process library
//!   (Poisson, ramp, flash-crowd, trace arrivals; exponential, Pareto, trace churn),
//!   deployment/folding, the shipped workloads (BitTorrent swarm, ping mesh, gossip, DHT
//!   lookups), analysis and reports.
//!
//! ## Quickstart
//!
//! Experiments are *scenarios*: an application implementing
//! [`Workload`](p2plab_core::scenario::Workload), composed with topology, folding, network
//! config, churn, deadline and seed by a [`ScenarioBuilder`](p2plab_core::ScenarioBuilder), and
//! driven by the generic [`run_scenario`](p2plab_core::run_scenario) loop:
//!
//! ```
//! use p2plab::core::{run_scenario, ScenarioBuilder, SwarmExperiment, SwarmWorkload};
//! use p2plab::net::TopologySpec;
//!
//! // A small BitTorrent swarm on emulated access links, folded onto 4 physical machines.
//! let mut cfg = SwarmExperiment::quick();
//! cfg.leechers = 6;
//! let spec = ScenarioBuilder::new(
//!     &cfg.name,
//!     TopologySpec::uniform(&cfg.name, cfg.total_vnodes(), cfg.link),
//! )
//! .machines(cfg.machines)
//! .deadline(cfg.deadline)
//! .sample_interval(cfg.sample_interval)
//! .seed(cfg.seed)
//! .build()
//! .unwrap();
//! let result = run_scenario(&spec, SwarmWorkload::new(cfg)).unwrap();
//! assert!(result.finished);
//! println!("{}", result.summary());
//! ```
//!
//! The legacy one-liner `run_swarm_experiment(&cfg)` still works and delegates to exactly the
//! composition above. The same loop runs every other workload — e.g.
//! [`PingMeshWorkload`](p2plab_core::PingMeshWorkload) (see `examples/ping_mesh.rs`).

#![warn(missing_docs)]

pub use p2plab_bittorrent as bittorrent;
pub use p2plab_core as core;
pub use p2plab_net as net;
pub use p2plab_os as os;
pub use p2plab_sim as sim;

/// The most commonly used items, for glob-importing in examples and experiments.
pub mod prelude {
    pub use p2plab_bittorrent::{ClientConfig, SwarmWorld, Torrent};
    pub use p2plab_core::{
        compare_folding, deploy, run_scenario, run_swarm_experiment, ArrivalSpec, DeploymentSpec,
        DhtLookupSpec, DhtLookupWorkload, GossipSpec, GossipWorkload, PingMeshSpec,
        PingMeshWorkload, ScenarioBuilder, SessionProcess, SwarmExperiment, SwarmResult,
        SwarmWorkload, Workload,
    };
    pub use p2plab_net::{
        AccessLinkClass, Endpoint, LaneKind, Network, NetworkConfig, TopologySpec, TransportEvent,
    };
    pub use p2plab_os::{Machine, MachineSpec, OsKind, SchedulerKind};
    pub use p2plab_sim::{SimDuration, SimTime, Simulation};
}
