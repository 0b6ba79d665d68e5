//! Cluster-scale scenario builder: one primary, N chained backups,
//! and a seeded client fleet behind a port-mirroring switch.
//!
//! Extends [`crate::fleet`] from the fixed pair to a
//! [`super::Topology`] chain. The client plans (workload mix, stagger,
//! ISNs, addresses) are *exactly* the two-node fleet's — the same
//! seed drives the same bytes — so results compare across backup
//! counts.
//!
//! # Wiring
//!
//! Server `i` sits on switch port `i` (the primary optionally behind
//! the inline packet logger); clients follow. Every server port is
//! mirrored to every *backup* port: whoever currently sources the VIP,
//! all shadows keep seeing both directions of the client conversation
//! — that is what lets a cascade (kill the primary, then kill its
//! successor mid-takeover) keep converging without re-wiring.
//!
//! Clients keep a static `VIP → initial primary MAC` ARP entry
//! (clients are unmodified, §2); after any number of failovers their
//! frames still flow to port 0, and the mirrors carry them to the
//! survivors.

use super::{ClusterEngine, Topology};
use crate::config::SttcpConfig;
use crate::fleet::{
    add_fleet_services, FleetSpec, BULK_FILE, BULK_PORT, ECHO_PORT, INTERACTIVE_PORT,
    INTERACTIVE_REPLY, UPLOAD_FILE, UPLOAD_PORT,
};
use crate::node::{ClientNode, ServerNode, LAN};
use crate::scenario::addrs;
use apps::{EchoServer, Workload, WorkloadClient};
use netsim::logger::PacketLogger;
use netsim::node::{NodeId, PortId};
use netsim::{LinkProfile, LinkSpec, SimDuration, SimTime, Simulator, Switch};
use obs::{Actor, FlightRecorder, ObsSink, SharedRecorder};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tcpstack::{CongestionAlgo, StackConfig, TcpConfig};
use wire::MacAddr;

/// The address of cluster server `rank`: `10.0.0.2 + rank` (the
/// two-node constants [`addrs::PRIMARY`]/[`addrs::BACKUP`] are ranks
/// 0 and 1 of this plan).
pub fn server_ip(rank: usize) -> Ipv4Addr {
    assert!(rank < 90, "cluster address plan holds 90 servers");
    Ipv4Addr::new(10, 0, 0, 2 + rank as u8)
}

/// The MAC of cluster server `rank` (matches the two-node fleet's
/// primary/backup MACs for ranks 0 and 1).
pub fn server_mac(rank: usize) -> MacAddr {
    MacAddr::local(2 + rank as u32)
}

/// Everything needed to build one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterFleetSpec {
    /// Number of workload clients.
    pub clients: usize,
    /// Number of backups (chain length N; 1 reproduces the paper's
    /// pair).
    pub backups: usize,
    /// Master seed: workload mix, request counts, stagger jitter, ISNs.
    pub seed: u64,
    /// Per-hop link characteristics.
    pub link: LinkSpec,
    /// ST-TCP protocol configuration (heartbeats, thresholds).
    pub st_tcp: SttcpConfig,
    /// TCP tuning template (role flags applied automatically).
    pub tcp: TcpConfig,
    /// Window over which client connects are staggered.
    pub connect_spread: SimDuration,
    /// Give every client this workload instead of the seeded mix
    /// (single-scenario demos like `examples/double_failure_logger`).
    pub workload: Option<Workload>,
    /// Crash schedule: `(server rank, instant)` pairs — rank 0 is the
    /// initial primary, rank 1 its first successor, and so on.
    pub crashes: Vec<(usize, SimTime)>,
    /// Planned migration: `drain_and_handover()` to the rank-`r`
    /// backup starting at the instant.
    pub migrate: Option<(SimTime, u8)>,
    /// Insert the in-network packet logger inline on the primary's
    /// uplink (and enable logger catch-up in the engines).
    pub use_logger: bool,
    /// Record protocol counters into a shared [`ObsSink`].
    pub record_obs: bool,
    /// Flight-recorder ring capacity, when tracing.
    pub trace_capacity: Option<usize>,
}

impl ClusterFleetSpec {
    /// A fleet of `clients` against a primary + `backups` chain.
    pub fn new(clients: usize, backups: usize) -> Self {
        assert!(backups >= 1, "a chain needs at least one backup");
        ClusterFleetSpec {
            clients,
            backups,
            seed: 0xF1EE7,
            link: LinkSpec::lan(),
            st_tcp: SttcpConfig::new(addrs::VIP, ECHO_PORT),
            tcp: TcpConfig::default(),
            connect_spread: SimDuration::from_millis(200),
            workload: None,
            crashes: Vec::new(),
            migrate: None,
            use_logger: false,
            record_obs: false,
            trace_capacity: None,
        }
    }

    /// Sets the master seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the seeded workload mix with one uniform workload
    /// (builder style). Its size must be the one the fleet's service
    /// for it serves; see [`build_cluster`].
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Schedules a server crash (builder style; repeatable).
    #[must_use]
    pub fn crash(mut self, rank: usize, at: SimTime) -> Self {
        self.crashes.push((rank, at));
        self
    }

    /// Schedules a planned migration (builder style).
    #[must_use]
    pub fn migrate_at(mut self, at: SimTime, successor_rank: u8) -> Self {
        self.migrate = Some((at, successor_rank));
        self
    }

    /// Inserts the in-network packet logger (builder style).
    #[must_use]
    pub fn with_logger(mut self) -> Self {
        self.use_logger = true;
        self
    }

    /// Records protocol counters (builder style).
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_obs = true;
        self
    }

    /// Records structured trace events (builder style).
    #[must_use]
    pub fn tracing(mut self) -> Self {
        self.trace_capacity = Some(obs::DEFAULT_TRACE_CAPACITY);
        self
    }

    /// Applies a canned [`LinkProfile`] to every hop (builder style).
    #[must_use]
    pub fn link_profile(mut self, profile: LinkProfile) -> Self {
        self.link = profile.spec();
        self
    }

    /// Selects the congestion-control algorithm on every host (builder
    /// style).
    #[must_use]
    pub fn congestion(mut self, algo: CongestionAlgo) -> Self {
        self.tcp.congestion = algo;
        self
    }

    /// Negotiates RFC 2018 SACK on every host (builder style).
    #[must_use]
    pub fn with_sack(mut self) -> Self {
        self.tcp.sack = true;
        self
    }

    /// The initial topology this spec builds.
    pub fn topology(&self) -> Topology {
        Topology::new((0..=self.backups).map(server_ip).collect())
    }

    /// The two-node fleet spec that shares this spec's client plans.
    fn plan_spec(&self) -> FleetSpec {
        let mut spec = FleetSpec::new(self.clients).seed(self.seed);
        spec.link = self.link;
        spec.st_tcp = self.st_tcp.clone();
        spec.tcp = self.tcp.clone();
        spec.connect_spread = self.connect_spread;
        spec
    }
}

/// The fleet service port that serves `workload`.
///
/// The fleet's services have fixed sizes (one server app per port), so
/// a workload of any other size would be served the wrong transfer.
fn service_port(workload: Workload) -> u16 {
    match workload {
        Workload::Echo { .. } => ECHO_PORT,
        Workload::Interactive { reply_size, .. } => {
            assert_eq!(
                reply_size, INTERACTIVE_REPLY,
                "the fleet's interactive service replies INTERACTIVE_REPLY bytes"
            );
            INTERACTIVE_PORT
        }
        Workload::Bulk { file_size } => {
            assert_eq!(file_size, BULK_FILE, "the fleet's bulk service serves BULK_FILE bytes");
            BULK_PORT
        }
        Workload::Upload { file_size } => {
            assert_eq!(
                file_size, UPLOAD_FILE,
                "the fleet's upload service expects UPLOAD_FILE bytes"
            );
            UPLOAD_PORT
        }
    }
}

/// A built cluster fleet.
pub struct ClusterFleet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Workload clients, in index order.
    pub clients: Vec<NodeId>,
    /// Servers in rank order (index 0 = initial primary).
    pub servers: Vec<NodeId>,
    /// The mirroring switch.
    pub fabric: NodeId,
    /// The inline packet logger, when requested.
    pub logger: Option<NodeId>,
    /// Shared counter sink, when `record_obs` was set.
    pub obs: Option<Arc<ObsSink>>,
    /// Flight-recorder ring, when tracing was on.
    pub flight: Option<Arc<FlightRecorder>>,
}

/// Builds the simulator for `spec`. See the module docs for the
/// wiring.
///
/// # Panics
///
/// Panics if `spec.workload` has a size other than the one the fleet's
/// service for it serves ([`INTERACTIVE_REPLY`], [`BULK_FILE`],
/// [`UPLOAD_FILE`]); any echo request count is accepted.
pub fn build_cluster(spec: &ClusterFleetSpec) -> ClusterFleet {
    let n = spec.clients;
    let servers_total = 1 + spec.backups;
    let mut sim = Simulator::with_seed(spec.seed);
    let obs = spec.record_obs.then(|| Arc::new(ObsSink::new()));
    let flight = spec.trace_capacity.map(|cap| Arc::new(FlightRecorder::new(cap)));
    let recorder_for = |actor: Actor| -> Option<SharedRecorder> {
        let metrics: SharedRecorder = match &obs {
            Some(sink) => sink.clone(),
            None => obs::nop(),
        };
        match &flight {
            Some(ring) => Some(obs::for_actor(actor, metrics, ring.clone())),
            None => obs.as_ref().map(|sink| sink.clone() as SharedRecorder),
        }
    };
    if let Some(rec) = recorder_for(Actor::Net) {
        sim.set_recorder(rec);
    }

    let mut st_tcp = spec.st_tcp.clone();
    if spec.use_logger {
        st_tcp = st_tcp.with_logger();
    }
    let topology = spec.topology();

    // --- servers ----------------------------------------------------
    let mut servers = Vec::with_capacity(servers_total);
    for rank in 0..servers_total {
        let mut tcp = spec.tcp.clone();
        // Every member retains ("double the space", §4.2): the primary
        // to serve its backups, each backup to serve the *deeper*
        // ranks after a promotion.
        tcp.retention_buf = tcp.recv_buf;
        if rank > 0 {
            tcp.shadow = true;
        }
        let mut cfg = StackConfig::host(server_mac(rank), server_ip(rank));
        cfg.extra_ips = vec![addrs::VIP];
        cfg.learn_from_ip = true;
        cfg.netmask_bits = 8;
        cfg.isn_seed = spec.seed ^ (0x2222u64.wrapping_add(rank as u64 * 0x1111));
        if rank > 0 {
            cfg.promiscuous = true; // taps the mirror copies
            cfg.suppressed_ips = vec![addrs::VIP];
        }
        // Full-mesh static ARP among the servers: the side channel is
        // unicast UDP and must not depend on broadcast resolution.
        for other in 0..servers_total {
            if other != rank {
                cfg.static_arp.push((server_ip(other), server_mac(other)));
            }
        }
        cfg.tcp = tcp;
        let mut node = ServerNode::cluster(
            cfg,
            st_tcp.clone(),
            topology.clone(),
            Box::new(|| Box::new(EchoServer::new())),
        );
        add_fleet_services(&mut node);
        let actor = if rank == 0 { Actor::Primary } else { Actor::Backup };
        if let Some(rec) = recorder_for(actor) {
            node.set_recorder(rec);
        }
        let name = if rank == 0 { "primary".to_string() } else { format!("backup{rank}") };
        servers.push(sim.add_node(name, node));
    }

    // --- fabric -----------------------------------------------------
    let mut sw = Switch::new(servers_total + n);
    // Every server port mirrors to every backup port: the shadows tap
    // whichever member currently sources the VIP.
    for from in 0..servers_total {
        for to in 1..servers_total {
            if from != to {
                sw.add_mirror(PortId(from), PortId(to));
            }
        }
    }
    let fabric = sim.add_node("switch", sw);
    let mut logger = None;
    for (rank, &server) in servers.iter().enumerate() {
        if rank == 0 && spec.use_logger {
            // Inline on the primary's uplink, splitting the hop latency
            // so the end-to-end RTT is unchanged (§3.2). Replayed
            // frames re-enter the switch on port 0 and ride the same
            // mirrors as live traffic.
            let half = spec.link.with_latency(spec.link.latency / 2);
            let lg = sim.add_node("logger", PacketLogger::with_defaults());
            sim.connect(server, LAN, lg, PortId(0), half);
            sim.connect(lg, PortId(1), fabric, PortId(rank), half);
            logger = Some(lg);
        } else {
            sim.connect(server, LAN, fabric, PortId(rank), spec.link);
        }
    }

    // --- clients ----------------------------------------------------
    let plan_spec = spec.plan_spec();
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let mut plan = plan_spec.client_plan(i);
        if let Some(workload) = spec.workload {
            plan.workload = workload;
            plan.port = service_port(workload);
        }
        let mut c_cfg = StackConfig::host(MacAddr::local(100 + i as u32), plan.ip);
        c_cfg.netmask_bits = 8;
        c_cfg.isn_seed = plan.isn_seed;
        // Static VIP→initial-primary entry: unmodified clients keep
        // addressing the original MAC across every failover; the
        // mirrors carry their frames to whoever serves.
        c_cfg.static_arp.push((addrs::VIP, server_mac(0)));
        c_cfg.tcp = spec.tcp.clone();
        let node = ClientNode::new(
            c_cfg,
            (addrs::VIP, plan.port),
            plan.connect_at,
            WorkloadClient::new(plan.workload).closing(),
        );
        let id = sim.add_node(format!("client{i}"), node);
        sim.connect(id, LAN, fabric, PortId(servers_total + i), spec.link);
        clients.push(id);
    }

    // --- faults and migrations --------------------------------------
    for &(rank, at) in &spec.crashes {
        sim.schedule_crash(servers[rank], at);
    }
    if let Some((at, successor_rank)) = spec.migrate {
        sim.node_mut::<ServerNode>(servers[0])
            .cluster_engine_mut()
            .expect("rank 0 runs the cluster engine")
            .schedule_drain(at, successor_rank);
    }

    ClusterFleet { sim, clients, servers, fabric, logger, obs, flight }
}

impl ClusterFleet {
    /// The workload driver of client `index`.
    pub fn client_app(&self, index: usize) -> &WorkloadClient {
        self.sim
            .node_ref::<ClientNode>(self.clients[index])
            .app::<WorkloadClient>()
            .expect("cluster fleet clients run WorkloadClient")
    }

    /// The cluster engine of server `rank`.
    pub fn engine(&self, rank: usize) -> &ClusterEngine {
        self.sim
            .node_ref::<ServerNode>(self.servers[rank])
            .cluster_engine()
            .expect("cluster fleet servers run the cluster engine")
    }

    /// How many clients have finished their workload.
    pub fn done_count(&self) -> usize {
        (0..self.clients.len()).filter(|&i| self.client_app(i).is_done()).count()
    }

    /// True when every client has finished.
    pub fn all_done(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client_app(i).is_done())
    }

    /// True when every client's byte stream verified clean so far.
    pub fn verified_clean(&self) -> bool {
        (0..self.clients.len()).all(|i| self.client_app(i).metrics.verified_clean())
    }

    /// Aggregate progress: response bytes received / expected.
    pub fn progress(&self) -> (u64, u64) {
        (0..self.clients.len())
            .map(|i| self.client_app(i).progress())
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    }

    /// Drives the fleet until every client finishes or `limit` virtual
    /// time passes; returns whether all finished.
    pub fn run_until_done(&mut self, limit: SimDuration) -> bool {
        let deadline = self.sim.now() + limit;
        while self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(50));
            if self.all_done() {
                return true;
            }
            if self.sim.pending_events() == 0 {
                return false;
            }
        }
        self.all_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_plans_match_the_two_node_fleet() {
        let spec = ClusterFleetSpec::new(20, 3).seed(77);
        let pair = FleetSpec::new(20).seed(77);
        for i in 0..20 {
            assert_eq!(
                spec.plan_spec().client_plan(i),
                pair.client_plan(i),
                "same seed, same client plans, regardless of backup count"
            );
        }
    }

    #[test]
    fn uniform_fleet_workloads_match_their_services() {
        for workload in
            [Workload::Bulk { file_size: BULK_FILE }, Workload::Upload { file_size: UPLOAD_FILE }]
        {
            let mut fleet = build_cluster(&ClusterFleetSpec::new(4, 1).workload(workload));
            assert!(fleet.run_until_done(SimDuration::from_secs(30)), "{workload:?}");
            assert!(fleet.verified_clean(), "{workload:?}");
        }
    }

    #[test]
    #[should_panic(expected = "UPLOAD_FILE")]
    fn sized_upload_is_refused() {
        let _ = build_cluster(&ClusterFleetSpec::new(4, 1).workload(Workload::upload_mb(1)));
    }

    #[test]
    #[should_panic(expected = "BULK_FILE")]
    fn sized_bulk_is_refused() {
        let _ = build_cluster(&ClusterFleetSpec::new(4, 1).workload(Workload::bulk_mb(1)));
    }

    #[test]
    #[should_panic(expected = "INTERACTIVE_REPLY")]
    fn sized_interactive_is_refused() {
        let _ = build_cluster(&ClusterFleetSpec::new(4, 1).workload(Workload::interactive()));
    }

    #[test]
    fn fault_free_chain_completes_clean() {
        let mut fleet = build_cluster(&ClusterFleetSpec::new(8, 2));
        assert!(
            fleet.run_until_done(SimDuration::from_secs(30)),
            "8-client, 2-backup fleet must finish"
        );
        assert!(fleet.verified_clean());
        let (got, want) = fleet.progress();
        assert_eq!(got, want);
        // The chain stayed intact: nobody promoted.
        for rank in 0..3 {
            assert!(!fleet.engine(rank).has_taken_over(), "rank {rank} must not take over");
        }
    }

    #[test]
    fn crash_failover_promotes_rank1_and_finishes() {
        // Crash mid-connect-spread, while the workloads are in flight
        // (the default echo mix drains within a few hundred ms).
        let spec =
            ClusterFleetSpec::new(8, 2).crash(0, SimTime::ZERO + SimDuration::from_millis(150));
        let mut fleet = build_cluster(&spec);
        assert!(
            fleet.run_until_done(SimDuration::from_secs(60)),
            "fleet must finish across the failover"
        );
        assert!(fleet.verified_clean(), "no client-visible stream corruption");
        assert!(fleet.engine(1).has_taken_over(), "rank 1 takes over");
        assert!(!fleet.engine(2).has_taken_over(), "rank 2 stays a backup");
        assert_eq!(fleet.engine(1).topology().epoch(), 1);
    }

    #[test]
    fn chain_breakdown_reads_the_promoted_engines_detection() {
        // Rank 2 keeps hearing the promoted rank 1 after the takeover;
        // that must not overwrite the last-heard instant the breakdown
        // measures detection from.
        let spec = ClusterFleetSpec::new(8, 2)
            .crash(0, SimTime::ZERO + SimDuration::from_millis(150))
            .recording();
        let mut fleet = build_cluster(&spec);
        assert!(fleet.run_until_done(SimDuration::from_secs(60)));
        let promoted = fleet.engine(1);
        assert!(promoted.has_taken_over());
        let own = promoted.suspected_at().expect("rank 1 suspected the primary")
            - promoted.last_primary_heard().expect("rank 1 heard the primary");
        let snap = fleet.obs.as_ref().expect("recording fleet").snapshot();
        let breakdown = obs::TakeoverBreakdown::from_snapshot(&snap).expect("took over");
        assert_eq!(breakdown.detection_ns(), own.as_nanos());
        assert!(breakdown.detection_ns() > 0, "detection cannot be instantaneous");
    }
}
