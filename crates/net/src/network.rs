//! The emulated network: machines, virtual nodes, pipes, firewalls and counters.
//!
//! A [`Network`] is the passive state of the emulation data plane. It owns
//!
//! * one [`Firewall`] + NIC pipes per *physical machine* (the decentralized model of the paper:
//!   every physical node shapes the traffic of the virtual nodes it hosts),
//! * one pair of access-link pipes per *virtual node* (upload and download, as two IPFW rules),
//! * one delay pipe per (hosted source group, destination group) pair with configured latency,
//! * the connection/listener tables of the transport layer.
//!
//! The active part — walking a packet through those components with discrete events — lives in
//! [`crate::transport`].

use crate::addr::{Subnet, VirtAddr};
use crate::firewall::{Classification, Direction, Firewall, PathKeyHasher, PipeList, Rule};
use crate::iface::Interface;
use crate::intercept::InterceptConfig;
use crate::pipe::{Pipe, PipeConfig, PipeId};
use crate::proto::{CongestionController, ProtoConn, TransportConfig};
use crate::tamper::{TamperSpec, TamperState};
use crate::topology::{GroupId, GroupSpec, TopologySpec};
use p2plab_os::SyscallCostModel;
use p2plab_sim::{FxHashMap, FxHashSet, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::hash::BuildHasherDefault;

/// Index of a physical machine in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MachineId(pub usize);

/// Index of a virtual node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VNodeId(pub usize);

/// Identifier of a transport connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConnId(pub u64);

/// Tunables of the emulation data plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Latency added per firewall rule examined (IPFW's linear evaluation, Figure 6).
    pub per_rule_cost: SimDuration,
    /// Bandwidth of each physical machine's NIC (GridExplorer: Gigabit Ethernet).
    pub nic_bps: u64,
    /// Per-hop latency of the NIC and switch fabric.
    pub switch_latency: SimDuration,
    /// Largest message the transport accepts in one send (larger transfers must be chunked by
    /// the application, as BitTorrent does with its 16 KiB blocks).
    pub max_message_bytes: u64,
    /// Base retransmission timeout of the reliable transport.
    pub rto: SimDuration,
    /// Maximum number of transmission attempts before a reliable message is abandoned.
    pub max_attempts: u32,
    /// System-call cost model charged on connection establishment.
    pub syscalls: SyscallCostModel,
    /// libc-interception configuration (BINDIP shim).
    pub intercept: InterceptConfig,
    /// Protocol-depth configuration: MTU fragmentation, ack-bitfield reliability and the
    /// congestion controller (see [`crate::proto`]). The default is entirely inert.
    pub transport: TransportConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            per_rule_cost: SimDuration::from_nanos(50),
            nic_bps: 1_000_000_000,
            switch_latency: SimDuration::from_micros(50),
            max_message_bytes: 64 * 1024,
            rto: SimDuration::from_millis(500),
            max_attempts: 16,
            syscalls: SyscallCostModel::freebsd_opteron(),
            intercept: InterceptConfig::enabled(),
            transport: TransportConfig::default(),
        }
    }
}

/// Transport-level state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnState {
    /// SYN sent, waiting for the handshake to complete.
    Connecting,
    /// Handshake completed; data can flow.
    Established,
    /// Closed by either side.
    Closed,
    /// Refused by the remote node (no listener).
    Refused,
}

/// A transport connection between two virtual nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Connection {
    /// Connection id.
    pub id: ConnId,
    /// Initiating endpoint (node, port).
    pub client: (VNodeId, u16),
    /// Accepting endpoint (node, port).
    pub server: (VNodeId, u16),
    /// Current state.
    pub state: ConnState,
    /// Bytes sent by the client endpoint.
    pub bytes_from_client: u64,
    /// Bytes sent by the server endpoint.
    pub bytes_from_server: u64,
    /// Time the connection became established, if it did.
    pub established_at: Option<SimTime>,
}

impl Connection {
    /// The node at the other end of the connection from `node`.
    pub fn peer_of(&self, node: VNodeId) -> VNodeId {
        if self.client.0 == node {
            self.server.0
        } else {
            self.client.0
        }
    }

    /// The local port used by `node` on this connection.
    pub fn port_of(&self, node: VNodeId) -> u16 {
        if self.client.0 == node {
            self.client.1
        } else {
            self.server.1
        }
    }
}

/// One precomputed path classification (see [`PathMemo`]).
#[derive(Debug, Clone)]
struct CachedPath {
    pipes: PipeList,
    accepted: bool,
    rules_examined: usize,
}

/// Per-machine memo of firewall classifications at `(host address, peer group)` granularity —
/// the precomputation the paper's per-packet IPFW walk invites: in a deployed topology every
/// rule is either a hosted node's own `/32` access-link rule or a group-subnet latency rule, so
/// the outgoing classification depends only on the concrete source host and the *group* of the
/// destination (and symmetrically for incoming traffic). That makes the memo a few dozen
/// entries per machine (hosted nodes × groups) — small enough to stay cache-resident, unlike a
/// full `(src, dst)` pair memo.
///
/// Soundness is checked, not assumed: the memo is rebuilt whenever the firewall's rule-set
/// version changes, and if any rule's subnet cuts *through* a group (so two peers in one group
/// could classify differently) the memo disables itself and every packet falls back to the
/// plain linear walk. Statistics are charged per packet either way, so `FirewallStats` is
/// byte-identical with and without the memo.
/// A path memo table keyed by a packed `(host address, group)` pair.
#[expect(
    clippy::disallowed_types,
    reason = "pins `BuildHasherDefault<PathKeyHasher>`, a fixed deterministic hasher"
)]
type PathMap = std::collections::HashMap<u64, CachedPath, BuildHasherDefault<PathKeyHasher>>;

#[derive(Debug, Clone, Default)]
struct PathMemo {
    /// Firewall rule-set version the memo matches; 0 = never built.
    version: u64,
    /// Whether `(src host, dst group)` granularity is sound for outgoing classification.
    out_usable: bool,
    /// Whether `(src group, dst host)` granularity is sound for incoming classification.
    in_usable: bool,
    /// Outgoing paths: key packs `(src host address, dst group)`.
    out: PathMap,
    /// Incoming paths: key packs `(dst host address, src group)`.
    inbound: PathMap,
}

/// True when `subnet` never cuts through a group: for every group it either covers the whole
/// group subnet or is disjoint from it. Prefix subnets are nested-or-disjoint, so the only bad
/// case is `subnet` strictly inside a group's subnet.
fn group_uniform(subnet: Subnet, groups: &[GroupSpec]) -> bool {
    groups
        .iter()
        .all(|g| !(subnet.prefix > g.subnet.prefix && g.subnet.contains(subnet.base)))
}

fn path_key(host: VirtAddr, group: GroupId) -> u64 {
    ((host.0 as u64) << 32) | group.0 as u64
}

/// A physical machine's networking state.
#[derive(Debug, Clone)]
pub struct MachineNet {
    /// Machine name (for reports).
    pub name: String,
    /// The machine's interface with its administration address and virtual-node aliases.
    pub iface: Interface,
    /// The machine's firewall (dummynet/IPFW rules for its hosted virtual nodes).
    pub firewall: Firewall,
    /// NIC transmit pipe.
    pub nic_tx: PipeId,
    /// NIC receive pipe.
    pub nic_rx: PipeId,
    /// Groups that already have their inter-group rules installed on this machine.
    group_rules_installed: FxHashSet<GroupId>,
    /// Memoized per-path classifications (lazily rebuilt per firewall version).
    path_memo: PathMemo,
}

impl MachineNet {
    /// Rebuilds the path memo against the firewall's current rule set.
    fn refresh_path_memo(&mut self, groups: &[GroupSpec]) {
        let memo = &mut self.path_memo;
        memo.out.clear();
        memo.inbound.clear();
        let rules = self.firewall.rules();
        memo.out_usable = rules
            .iter()
            .filter(|r| r.direction != Some(Direction::In))
            .all(|r| group_uniform(r.dst, groups));
        memo.in_usable = rules
            .iter()
            .filter(|r| r.direction != Some(Direction::Out))
            .all(|r| group_uniform(r.src, groups));
        memo.version = self.firewall.version();
    }

    /// Classifies through the memo (`key` in the map picked by `direction`), walking and
    /// memoizing on first use. Firewall statistics are charged exactly as `classify` would.
    fn classify_memoized(
        &mut self,
        key: u64,
        src_addr: VirtAddr,
        dst_addr: VirtAddr,
        direction: Direction,
    ) -> Classification {
        let map = match direction {
            Direction::Out => &mut self.path_memo.out,
            Direction::In => &mut self.path_memo.inbound,
        };
        let (pipes, accepted, rules_examined) = match map.get(&key) {
            Some(c) => (c.pipes.clone(), c.accepted, c.rules_examined),
            None => {
                let (pipes, accepted, rules_examined) =
                    self.firewall.walk(src_addr, dst_addr, direction);
                map.insert(
                    key,
                    CachedPath {
                        pipes: pipes.clone(),
                        accepted,
                        rules_examined,
                    },
                );
                (pipes, accepted, rules_examined)
            }
        };
        self.firewall.count_packet(rules_examined, !accepted);
        Classification {
            pipes,
            accepted,
            rules_examined,
            evaluation_cost: self.firewall.per_rule_cost() * rules_examined as u64,
        }
    }
}

/// A virtual node's networking state.
#[derive(Debug, Clone)]
pub struct VNodeNet {
    /// The node's emulated IP address (an interface alias on its machine).
    pub addr: VirtAddr,
    /// The group the node belongs to.
    pub group: GroupId,
    /// The machine hosting the node.
    pub machine: MachineId,
    /// Access-link upload pipe.
    pub up_pipe: PipeId,
    /// Access-link download pipe.
    pub down_pipe: PipeId,
    /// Bytes sent by this node's applications.
    pub bytes_sent: u64,
    /// Bytes delivered to this node's applications.
    pub bytes_received: u64,
}

/// Global data-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to the transport.
    pub messages_sent: u64,
    /// Messages delivered to applications.
    pub messages_delivered: u64,
    /// Messages dropped (after exhausting retransmissions, or unreliable drops).
    pub messages_dropped: u64,
    /// Unreliable frames (datagrams and unreliable-lane messages) dropped by a pipe — the
    /// subset of `messages_dropped` that no retransmission ever covered.
    pub datagrams_dropped: u64,
    /// Retransmissions performed by the reliable lanes.
    pub retransmissions: u64,
    /// RPC calls that exhausted their attempts without an answer (see [`crate::rpc`]).
    pub rpc_timeouts: u64,
    /// Application bytes delivered.
    pub bytes_delivered: u64,
    /// Fragments released to the wire by the protocol layer (see [`crate::proto`]).
    pub fragments_sent: u64,
    /// Incomplete reassemblies discarded after the reassembly timeout.
    pub reassembly_timeouts: u64,
    /// Individual lost fragments retransmitted by the protocol layer (only the missing
    /// fragments are resent, never the whole message).
    pub selective_retransmits: u64,
    /// Acknowledgement frames sent by receivers on reliable lanes.
    pub acks_sent: u64,
    /// Fresh frames silently swallowed by a sender-side tamper point (see [`crate::tamper`]).
    pub tampered_drops: u64,
    /// Extra copies injected by a sender-side tamper point.
    pub tampered_duplicates: u64,
    /// Fresh frames held back by a tamper point's reply delay.
    pub tampered_delays: u64,
    /// Fresh frames transmitted by nodes marked byzantine (adversary accounting).
    pub byzantine_msgs_sent: u64,
}

/// Errors from network construction or transport calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The address is already assigned to a virtual node.
    AddressInUse(VirtAddr),
    /// The group id does not exist in the topology.
    UnknownGroup(GroupId),
    /// The machine id does not exist.
    UnknownMachine(MachineId),
    /// The virtual node id does not exist.
    UnknownVNode(VNodeId),
    /// No virtual node owns this address.
    NoRouteToHost(VirtAddr),
    /// A listener is already bound to this port.
    PortInUse(VNodeId, u16),
    /// The connection id is unknown.
    UnknownConnection(ConnId),
    /// The connection is not in a state that allows the operation.
    NotEstablished(ConnId),
    /// The message exceeds the configured maximum message size.
    MessageTooLarge(u64),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::AddressInUse(a) => write!(f, "address {a} already in use"),
            NetError::UnknownGroup(g) => write!(f, "unknown group {}", g.0),
            NetError::UnknownMachine(m) => write!(f, "unknown machine {}", m.0),
            NetError::UnknownVNode(v) => write!(f, "unknown virtual node {}", v.0),
            NetError::NoRouteToHost(a) => write!(f, "no virtual node owns {a}"),
            NetError::PortInUse(v, p) => write!(f, "port {p} already bound on vnode {}", v.0),
            NetError::UnknownConnection(c) => write!(f, "unknown connection {}", c.0),
            NetError::NotEstablished(c) => write!(f, "connection {} is not established", c.0),
            NetError::MessageTooLarge(s) => write!(f, "message of {s} bytes exceeds the maximum"),
        }
    }
}

impl std::error::Error for NetError {}

/// The emulated network state.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    topology: TopologySpec,
    pipes: Vec<Pipe>,
    machines: Vec<MachineNet>,
    vnodes: Vec<VNodeNet>,
    addr_map: FxHashMap<VirtAddr, VNodeId>,
    pub(crate) listeners: FxHashSet<(VNodeId, u16)>,
    /// Connection arena: `ConnId`s are allocated sequentially, so the id doubles as the index
    /// (connections are never removed, matching real conntrack tables kept until reboot).
    pub(crate) conns: Vec<Connection>,
    next_ephemeral: u16,
    pub(crate) stats: NetStats,
    /// Protocol-layer state per connection, keyed by id. A side table (rather than fields on
    /// [`Connection`], which is `Copy` and widely passed by value) populated lazily on first
    /// protocol activity.
    pub(crate) proto: FxHashMap<ConnId, ProtoConn>,
    /// Sender-side wire-tamper state per virtual node (see [`crate::tamper`]). Empty — and
    /// therefore completely inert, drawing no randomness — unless an adversary installed it.
    pub(crate) tamper: FxHashMap<VNodeId, TamperState>,
    /// Virtual nodes marked byzantine, for `byzantine_msgs_sent` accounting.
    pub(crate) byzantine: FxHashSet<VNodeId>,
}

impl Network {
    /// Creates a network for the given topology.
    pub fn new(config: NetworkConfig, topology: TopologySpec) -> Network {
        Network {
            config,
            topology,
            pipes: Vec::new(),
            machines: Vec::new(),
            vnodes: Vec::new(),
            addr_map: FxHashMap::default(),
            listeners: FxHashSet::default(),
            conns: Vec::new(),
            next_ephemeral: 49152,
            stats: NetStats::default(),
            proto: FxHashMap::default(),
            tamper: FxHashMap::default(),
            byzantine: FxHashSet::default(),
        }
    }

    /// The data-plane configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The topology this network was built for.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Global counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Pre-sizes the per-entity collections for a deployment of `machines` physical machines
    /// hosting `vnodes` virtual nodes, so large deployments build without rehash/regrow churn.
    pub fn reserve(&mut self, machines: usize, vnodes: usize) {
        self.machines.reserve(machines);
        self.vnodes.reserve(vnodes);
        // Two access-link pipes per vnode, two NIC pipes per machine, plus a bounded number of
        // inter-group delay pipes.
        let groups = self.topology.groups.len();
        self.pipes
            .reserve(2 * vnodes + 2 * machines + groups * groups);
        self.addr_map.reserve(vnodes);
    }

    /// Adds a physical machine with the given administration address.
    pub fn add_machine(&mut self, name: impl Into<String>, admin_addr: VirtAddr) -> MachineId {
        let nic_tx = self.add_pipe(
            PipeConfig::shaped(self.config.nic_bps, self.config.switch_latency)
                .with_queue_limit(None),
        );
        let nic_rx = self.add_pipe(
            PipeConfig::shaped(self.config.nic_bps, SimDuration::ZERO).with_queue_limit(None),
        );
        self.machines.push(MachineNet {
            name: name.into(),
            iface: Interface::new(admin_addr),
            firewall: Firewall::new(self.config.per_rule_cost),
            nic_tx,
            nic_rx,
            group_rules_installed: FxHashSet::default(),
            path_memo: PathMemo::default(),
        });
        MachineId(self.machines.len() - 1)
    }

    /// Classifies an outgoing packet on `machine`'s firewall, through the per-machine path
    /// memo when its `(src host, dst group)` granularity is sound (see [`PathMemo`]); falls
    /// back to the plain linear walk otherwise — results and statistics are identical either
    /// way. `src` / `dst` are the transmitting and destination virtual nodes; `src_addr` may
    /// differ from `src`'s address when interception is disabled (traffic attributed to the
    /// machine's administration address), which also forces the fallback.
    pub(crate) fn classify_out(
        &mut self,
        machine: MachineId,
        src: VNodeId,
        src_addr: VirtAddr,
        dst: VNodeId,
    ) -> Classification {
        let src_is_vnode = self.vnodes[src.0].addr == src_addr;
        let dst_group = self.vnodes[dst.0].group;
        let dst_addr = self.vnodes[dst.0].addr;
        let groups = &self.topology.groups;
        let m = &mut self.machines[machine.0];
        if m.path_memo.version != m.firewall.version() {
            m.refresh_path_memo(groups);
        }
        if !src_is_vnode || !m.path_memo.out_usable {
            return m.firewall.classify(src_addr, dst_addr, Direction::Out);
        }
        m.classify_memoized(
            path_key(src_addr, dst_group),
            src_addr,
            dst_addr,
            Direction::Out,
        )
    }

    /// Incoming twin of [`classify_out`](Network::classify_out): memo key is
    /// `(dst host, src group)`.
    pub(crate) fn classify_in(
        &mut self,
        machine: MachineId,
        src: VNodeId,
        src_addr: VirtAddr,
        dst: VNodeId,
    ) -> Classification {
        let src_is_vnode = self.vnodes[src.0].addr == src_addr;
        let src_group = self.vnodes[src.0].group;
        let dst_addr = self.vnodes[dst.0].addr;
        let groups = &self.topology.groups;
        let m = &mut self.machines[machine.0];
        if m.path_memo.version != m.firewall.version() {
            m.refresh_path_memo(groups);
        }
        if !src_is_vnode || !m.path_memo.in_usable {
            return m.firewall.classify(src_addr, dst_addr, Direction::In);
        }
        m.classify_memoized(
            path_key(dst_addr, src_group),
            src_addr,
            dst_addr,
            Direction::In,
        )
    }

    /// Adds a virtual node of `group` on `machine` with address `addr`.
    ///
    /// This performs what the P2PLab deployment scripts do on each physical node: configure an
    /// interface alias for the node, create its two dummynet pipes (upload and download, from
    /// the group's access-link class), add the two corresponding IPFW rules, and — the first
    /// time a group appears on the machine — the inter-group latency rules.
    pub fn add_vnode(
        &mut self,
        machine: MachineId,
        addr: VirtAddr,
        group: GroupId,
    ) -> Result<VNodeId, NetError> {
        if group.0 >= self.topology.groups.len() {
            return Err(NetError::UnknownGroup(group));
        }
        if machine.0 >= self.machines.len() {
            return Err(NetError::UnknownMachine(machine));
        }
        if self.addr_map.contains_key(&addr) {
            return Err(NetError::AddressInUse(addr));
        }
        let link = self.topology.groups[group.0].link;
        let up_pipe = self.add_pipe(
            PipeConfig::shaped(link.up_bps, link.latency)
                .with_loss(link.loss_rate)
                .with_queue_limit(None)
                .with_condition(link.effective_condition_up()),
        );
        let down_pipe = self.add_pipe(
            PipeConfig::shaped(link.down_bps, link.latency)
                .with_loss(link.loss_rate)
                .with_queue_limit(None)
                .with_condition(link.effective_condition_down()),
        );
        let id = VNodeId(self.vnodes.len());
        {
            let m = &mut self.machines[machine.0];
            m.iface
                .add_alias(addr)
                .map_err(|_| NetError::AddressInUse(addr))?;
            m.firewall.add_rule(Rule::pipe(
                Subnet::host(addr),
                Subnet::any(),
                Direction::Out,
                up_pipe,
            ));
            m.firewall.add_rule(Rule::pipe(
                Subnet::any(),
                Subnet::host(addr),
                Direction::In,
                down_pipe,
            ));
        }
        self.install_group_rules(machine, group);
        self.vnodes.push(VNodeNet {
            addr,
            group,
            machine,
            up_pipe,
            down_pipe,
            bytes_sent: 0,
            bytes_received: 0,
        });
        self.addr_map.insert(addr, id);
        Ok(id)
    }

    /// Installs the inter-group latency rules for traffic of `group` leaving `machine`, if they
    /// are not already present.
    fn install_group_rules(&mut self, machine: MachineId, group: GroupId) {
        if self.machines[machine.0]
            .group_rules_installed
            .contains(&group)
        {
            return;
        }
        let src_subnet = self.topology.groups[group.0].subnet;
        let mut new_rules = Vec::new();
        for (other_idx, other) in self.topology.groups.iter().enumerate() {
            let other_id = GroupId(other_idx);
            if other_id == group {
                continue;
            }
            let latency = self.topology.group_latency(group, other_id);
            if latency.is_zero() {
                continue;
            }
            new_rules.push((src_subnet, other.subnet, latency));
        }
        for (src, dst, latency) in new_rules {
            let pipe = self.add_pipe(PipeConfig::delay_only(latency));
            self.machines[machine.0]
                .firewall
                .add_rule(Rule::pipe(src, dst, Direction::Out, pipe));
        }
        self.machines[machine.0].group_rules_installed.insert(group);
    }

    fn add_pipe(&mut self, config: PipeConfig) -> PipeId {
        self.pipes.push(Pipe::new(config));
        PipeId(self.pipes.len() - 1)
    }

    /// Access to a pipe.
    pub fn pipe(&self, id: PipeId) -> &Pipe {
        &self.pipes[id.0]
    }

    /// Mutable access to a pipe.
    pub fn pipe_mut(&mut self, id: PipeId) -> &mut Pipe {
        &mut self.pipes[id.0]
    }

    /// Access to a machine.
    pub fn machine(&self, id: MachineId) -> &MachineNet {
        &self.machines[id.0]
    }

    /// Mutable access to a machine.
    pub fn machine_mut(&mut self, id: MachineId) -> &mut MachineNet {
        &mut self.machines[id.0]
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Access to a virtual node.
    pub fn vnode(&self, id: VNodeId) -> &VNodeNet {
        &self.vnodes[id.0]
    }

    /// Mutable access to a virtual node.
    pub(crate) fn vnode_mut(&mut self, id: VNodeId) -> &mut VNodeNet {
        &mut self.vnodes[id.0]
    }

    /// Number of virtual nodes.
    pub fn vnode_count(&self) -> usize {
        self.vnodes.len()
    }

    /// Iterates over all virtual nodes.
    pub fn vnodes(&self) -> impl Iterator<Item = (VNodeId, &VNodeNet)> {
        self.vnodes.iter().enumerate().map(|(i, v)| (VNodeId(i), v))
    }

    /// Resolves an address to a virtual node.
    pub fn resolve(&self, addr: VirtAddr) -> Option<VNodeId> {
        self.addr_map.get(&addr).copied()
    }

    /// The address of a virtual node.
    pub fn addr_of(&self, id: VNodeId) -> VirtAddr {
        self.vnodes[id.0].addr
    }

    /// Looks up a connection.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.conns.get(id.0 as usize)
    }

    /// Mutable connection lookup.
    pub(crate) fn connection_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        self.conns.get_mut(id.0 as usize)
    }

    /// Whether the protocol layer (fragmentation, acks, congestion control) is switched on.
    pub fn transport_active(&self) -> bool {
        self.config.transport.active()
    }

    /// The protocol-layer state of a connection, created on first access with the configured
    /// congestion controller.
    pub(crate) fn proto_mut(&mut self, id: ConnId) -> &mut ProtoConn {
        let kind = self.config.transport.congestion;
        self.proto.entry(id).or_insert_with(|| ProtoConn::new(kind))
    }

    /// Mean congestion window over every direction of every connection with protocol state,
    /// in bytes (`None` when no protocol state exists — e.g. the legacy path). The metric
    /// behind the recorder's `cwnd_mean_bytes` time series.
    pub fn cwnd_mean_bytes(&self) -> Option<u64> {
        let mut sum = 0u128;
        let mut n = 0u128;
        for conn in self.proto.values() {
            for half in &conn.halves {
                sum += u128::from(half.cc.cwnd_bytes());
                n += 1;
            }
        }
        (n > 0).then(|| u64::try_from(sum / n).unwrap_or(u64::MAX))
    }

    /// Installs a sender-side wire-tamper point on `node` (see [`crate::tamper`]): every fresh
    /// frame the node transmits is run through `spec` using `rng` (a stream split off the
    /// adversary's seed, never the simulation's global stream). Inert specs are ignored, so an
    /// adversary-free network keeps an empty tamper map and the data plane stays byte-frozen.
    pub fn set_tamper(&mut self, node: VNodeId, spec: TamperSpec, rng: SimRng) {
        if !spec.is_noop() {
            self.tamper.insert(node, TamperState { spec, rng });
        }
    }

    /// Marks `node` as byzantine for the `byzantine_msgs_sent` counter. Accounting only — the
    /// node's actual misbehavior comes from its tamper point and its application behavior.
    pub fn mark_byzantine(&mut self, node: VNodeId) {
        self.byzantine.insert(node);
    }

    /// Whether `node` was marked byzantine.
    pub fn is_byzantine(&self, node: VNodeId) -> bool {
        self.byzantine.contains(&node)
    }

    /// True if any node carries a tamper point or byzantine mark.
    pub fn adversary_active(&self) -> bool {
        !self.tamper.is_empty() || !self.byzantine.is_empty()
    }

    /// Number of connections ever created.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// True if a listener is bound on `(node, port)`.
    pub fn is_listening(&self, node: VNodeId, port: u16) -> bool {
        self.listeners.contains(&(node, port))
    }

    /// The ports currently bound on `node`, in arbitrary order (an endpoint inspection helper;
    /// O(total listeners), not for hot paths).
    pub fn bound_ports(&self, node: VNodeId) -> impl Iterator<Item = u16> + '_ {
        self.listeners
            .iter()
            .filter(move |(n, _)| *n == node)
            .map(|&(_, p)| p)
    }

    /// The connections `node` participates in, in allocation order (an endpoint inspection
    /// helper; O(total connections), not for hot paths).
    pub fn connections_of(&self, node: VNodeId) -> impl Iterator<Item = &Connection> + '_ {
        self.conns
            .iter()
            .filter(move |c| c.client.0 == node || c.server.0 == node)
    }

    /// Total application bytes received over all virtual nodes (the metric of Figure 9).
    pub fn total_bytes_received(&self) -> u64 {
        self.vnodes.iter().map(|v| v.bytes_received).sum()
    }

    /// Total rules configured over all machines (the scalability driver of Figure 6).
    pub fn total_rule_count(&self) -> usize {
        self.machines.iter().map(|m| m.firewall.rule_count()).sum()
    }

    pub(crate) fn allocate_conn(
        &mut self,
        client: (VNodeId, u16),
        server: (VNodeId, u16),
    ) -> ConnId {
        let id = ConnId(self.conns.len() as u64);
        self.conns.push(Connection {
            id,
            client,
            server,
            state: ConnState::Connecting,
            bytes_from_client: 0,
            bytes_from_server: 0,
            established_at: None,
        });
        id
    }

    pub(crate) fn allocate_ephemeral_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if self.next_ephemeral == u16::MAX {
            49152
        } else {
            self.next_ephemeral + 1
        };
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AccessLinkClass;

    fn dsl_network(n_machines: usize, vnodes_per_machine: usize) -> Network {
        let topo = TopologySpec::uniform(
            "dsl",
            n_machines * vnodes_per_machine,
            AccessLinkClass::bittorrent_dsl(),
        );
        let mut net = Network::new(NetworkConfig::default(), topo);
        let mut next = 0u32;
        for m in 0..n_machines {
            let mid = net.add_machine(format!("node{m}"), VirtAddr::new(192, 168, 38, m as u8 + 1));
            for _ in 0..vnodes_per_machine {
                next += 1;
                let addr = VirtAddr::new(10, 0, 0, 0).offset(next);
                net.add_vnode(mid, addr, GroupId(0)).unwrap();
            }
        }
        net
    }

    #[test]
    fn vnode_registration_creates_rules_and_aliases() {
        let net = dsl_network(2, 10);
        assert_eq!(net.vnode_count(), 20);
        assert_eq!(net.machine_count(), 2);
        // Two rules per hosted vnode, no group rules in a single-group topology.
        assert_eq!(net.machine(MachineId(0)).firewall.rule_count(), 20);
        assert_eq!(net.machine(MachineId(0)).iface.alias_count(), 10);
        assert_eq!(net.total_rule_count(), 40);
        // Addresses resolve to their vnodes.
        let addr = net.addr_of(VNodeId(5));
        assert_eq!(net.resolve(addr), Some(VNodeId(5)));
        assert_eq!(net.resolve(VirtAddr::new(10, 200, 0, 1)), None);
    }

    #[test]
    fn duplicate_address_rejected() {
        let topo = TopologySpec::uniform("dsl", 10, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        let addr = VirtAddr::new(10, 0, 0, 1);
        net.add_vnode(m, addr, GroupId(0)).unwrap();
        assert_eq!(
            net.add_vnode(m, addr, GroupId(0)),
            Err(NetError::AddressInUse(addr))
        );
    }

    #[test]
    fn unknown_group_and_machine_rejected() {
        let topo = TopologySpec::uniform("dsl", 10, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        assert_eq!(
            net.add_vnode(m, VirtAddr::new(10, 0, 0, 1), GroupId(7)),
            Err(NetError::UnknownGroup(GroupId(7)))
        );
        assert_eq!(
            net.add_vnode(MachineId(9), VirtAddr::new(10, 0, 0, 1), GroupId(0)),
            Err(NetError::UnknownMachine(MachineId(9)))
        );
    }

    #[test]
    fn group_rules_installed_once_per_group_per_machine() {
        let topo = TopologySpec::paper_figure7();
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        // Host two vnodes of the 10.1.3.0/24 group (group 2 in paper_figure7 construction).
        let g = net
            .topology()
            .group_of("10.1.3.1".parse().unwrap())
            .unwrap();
        net.add_vnode(m, "10.1.3.1".parse().unwrap(), g).unwrap();
        net.add_vnode(m, "10.1.3.2".parse().unwrap(), g).unwrap();
        // 2 vnodes x 2 rules + 4 group rules (to 10.1.1, 10.1.2, 10.2, 10.3) = 8.
        assert_eq!(net.machine(m).firewall.rule_count(), 8);
    }

    #[test]
    fn figure7_rule_count_for_mixed_machine() {
        // A machine hosting vnodes from two groups gets both groups' latency rules.
        let topo = TopologySpec::paper_figure7();
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        let g1 = net
            .topology()
            .group_of("10.1.3.1".parse().unwrap())
            .unwrap();
        let g2 = net
            .topology()
            .group_of("10.2.0.1".parse().unwrap())
            .unwrap();
        net.add_vnode(m, "10.1.3.1".parse().unwrap(), g1).unwrap();
        net.add_vnode(m, "10.2.0.1".parse().unwrap(), g2).unwrap();
        // 4 vnode rules + 4 group rules for 10.1.3 + 4 group rules for 10.2 = 12.
        assert_eq!(net.machine(m).firewall.rule_count(), 12);
    }

    #[test]
    fn ephemeral_ports_wrap() {
        let topo = TopologySpec::uniform("dsl", 1, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let first = net.allocate_ephemeral_port();
        assert_eq!(first, 49152);
        net.next_ephemeral = u16::MAX;
        assert_eq!(net.allocate_ephemeral_port(), u16::MAX);
        assert_eq!(net.allocate_ephemeral_port(), 49152);
    }

    #[test]
    fn connection_peer_lookup() {
        let c = Connection {
            id: ConnId(1),
            client: (VNodeId(3), 50000),
            server: (VNodeId(7), 6881),
            state: ConnState::Established,
            bytes_from_client: 0,
            bytes_from_server: 0,
            established_at: None,
        };
        assert_eq!(c.peer_of(VNodeId(3)), VNodeId(7));
        assert_eq!(c.peer_of(VNodeId(7)), VNodeId(3));
        assert_eq!(c.port_of(VNodeId(3)), 50000);
        assert_eq!(c.port_of(VNodeId(7)), 6881);
    }
}
