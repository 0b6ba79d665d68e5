//! The replication-topology subsystem: primary + N-backup chains,
//! deterministic promotion, and planned migration.
//!
//! This layer generalizes the two-node engines ([`crate::primary`],
//! [`crate::backup`]) to a rank-ordered chain of shadows:
//!
//! * [`Topology`] — the epoch + member list every
//!   [`crate::messages::SideMsg::ClusterHb`] carries, with the
//!   epoch-by-rank promotion rule that makes cascades converge without
//!   elections ([`topology`]).
//! * [`promotion`] — rank-staggered failure detection: rank 1 uses the
//!   paper's window, each deeper rank waits two extra heartbeats, so
//!   at most one member unsuppresses the VIP per reign.
//! * [`catchup`] — per-connection lag accounting; a backup is
//!   promotion-eligible only at lag zero, and closes lag via
//!   missing-segment replays (from the primary, or the in-network
//!   logger once the primary is gone).
//! * [`migration`] — `drain_and_handover()`: a healthy primary fences
//!   itself only after the successor proves shadow-consistency.
//! * [`ClusterEngine`] — one engine for every role; a node starts as
//!   rank-0 primary or rank-k backup and moves through
//!   promotion/retirement as the topology evolves.
//!
//! # Side-channel economy
//!
//! Rank 1 speaks the classic per-connection
//! [`crate::messages::SideMsg::BackupAck`] dialect (it is the two-node
//! protocol, unchanged). Ranks ≥ 2 accumulate their acks and flush a
//! single [`crate::messages::SideMsg::AckBatch`] per sync tick — the
//! side channel grows by one datagram per extra backup per tick, not
//! by another per-connection stream (`bench` records the ratio as
//! `side_channel_overhead_{1,2,3}backups`).
//!
//! # Retention in a chain
//!
//! The primary releases retained bytes at the *minimum* acknowledged
//! point over all live backups. Each backup also keeps its own
//! retention buffer and self-releases one ack window behind its own
//! progress: after a promotion it can serve the deeper ranks' missing
//! segments from that window without ever having been asked to.

pub mod catchup;
pub mod fleet;
pub mod migration;
pub mod promotion;
pub mod topology;

pub use fleet::{build_cluster, ClusterFleet, ClusterFleetSpec};
pub use migration::DrainPhase;
pub use topology::Topology;

use crate::config::{Fencing, SttcpConfig};
use crate::messages::{ConnKey, SideMsg};
use bytes::Bytes;
use catchup::{CatchupTracker, MissingOut};
use migration::{DrainCoordinator, DrainFollower};
use netsim::logger::ReplayQuery;
use netsim::SimTime;
use obs::{Counter, Gauge, Mark, MigrationPhase, SharedRecorder, TraceEvent};
use promotion::PromotionTimer;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use tcpstack::{NetStack, SeqNum, TcpState};

/// Side-channel datagrams are kept under this payload size (same cap
/// as the two-node engines).
const SIDE_CHUNK: usize = crate::primary::SIDE_CHUNK;

/// What a cluster member currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRole {
    /// Rank 0: serves the VIP, retains bytes, answers replays.
    Primary,
    /// Rank ≥ 1: shadows, acks, waits its staggered turn.
    Backup,
    /// Out of the promotion chain (superseded or handed over); still
    /// answers missing-segment requests from its retained bytes.
    Retired,
}

/// Cluster-engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Topology heartbeats sent (one per backup per tick as primary).
    pub hbs_sent: u64,
    /// Topology heartbeats received.
    pub hbs_received: u64,
    /// Topologies adopted from a higher epoch.
    pub adoptions: u64,
    /// Times this node promoted itself to primary.
    pub promotions: u64,
    /// Planned migrations completed (as the retiring primary).
    pub migrations: u64,
    /// Per-connection acks sent (rank-1 dialect).
    pub acks_sent: u64,
    /// Multiplexed ack batches sent (rank ≥ 2 dialect).
    pub ack_batches_sent: u64,
    /// Entries across all sent ack batches.
    pub ack_batch_entries: u64,
    /// Peer acks applied to retention (as primary, entries included).
    pub acks_applied: u64,
    /// Missing-segment requests sent.
    pub missing_reqs: u64,
    /// Missing-segment replies served (as primary/retired).
    pub missing_served: u64,
    /// Missing-segment requests refused.
    pub missing_nacked: u64,
    /// Bytes recovered into this node's shadows via replays.
    pub missing_bytes_recovered: u64,
    /// Catch-up replay rounds applied (MissingData datagrams).
    pub catchup_replays: u64,
    /// Logger replay-window queries issued.
    pub logger_queries: u64,
    /// Full-history bootstrap queries issued.
    pub bootstrap_queries: u64,
    /// Backups that returned from the dead (as primary).
    pub reintegrations: u64,
}

#[derive(Debug, Clone, Copy)]
struct PeerState {
    last_heard: SimTime,
    alive: bool,
}

/// See the module docs.
pub struct ClusterEngine {
    cfg: SttcpConfig,
    self_ip: Ipv4Addr,
    topo: Topology,
    role: ClusterRole,
    x_threshold: usize,
    timer: PromotionTimer,
    catchup: CatchupTracker,
    drain: DrainCoordinator,
    follower: DrainFollower,
    ready_traced: bool,
    hb_seq: u64,
    /// Backup liveness, as primary.
    peers: HashMap<Ipv4Addr, PeerState>,
    /// Per-connection, per-backup acknowledged points (primary side);
    /// retention releases at the minimum over live backups.
    peer_acks: HashMap<ConnKey, HashMap<Ipv4Addr, SeqNum>>,
    /// Last congestion snapshot mirrored per connection (primary side,
    /// [`SttcpConfig::cong_sync`]); suppresses no-change rebroadcasts.
    cong_sent: HashMap<ConnKey, (u32, u32)>,
    retention_on: bool,
    takeover_at: Option<SimTime>,
    outbox: Vec<(Ipv4Addr, SideMsg)>,
    fence_request: Option<u32>,
    logger_queries: Vec<ReplayQuery>,
    last_logger_query: Option<SimTime>,
    bootstrap_attempts: HashMap<ConnKey, SimTime>,
    ack_scratch: Vec<catchup::AckOut>,
    req_scratch: Vec<MissingOut>,
    gap_scratch: Vec<catchup::Gap>,
    recorder: SharedRecorder,
    /// Counters.
    pub stats: ClusterStats,
}

impl ClusterEngine {
    /// Creates the engine for the member `self_ip` of `topology`.
    /// Rank 0 starts as primary, everyone else as a backup.
    pub fn new(
        cfg: SttcpConfig,
        self_ip: Ipv4Addr,
        topology: Topology,
        x_threshold: usize,
        now: SimTime,
    ) -> Self {
        let rank = topology
            .rank_of(self_ip)
            .unwrap_or_else(|| panic!("{self_ip} is not a member of the topology"));
        let role = if rank == 0 { ClusterRole::Primary } else { ClusterRole::Backup };
        let peers = if rank == 0 {
            topology
                .backups()
                .iter()
                .map(|&ip| (ip, PeerState { last_heard: now, alive: true }))
                .collect()
        } else {
            HashMap::new()
        };
        let recorder = obs::nop();
        let engine = ClusterEngine {
            cfg,
            self_ip,
            topo: topology,
            role,
            x_threshold,
            timer: PromotionTimer::new(now),
            catchup: CatchupTracker::new(),
            drain: DrainCoordinator::new(),
            follower: DrainFollower::new(),
            ready_traced: false,
            hb_seq: 0,
            peers,
            peer_acks: HashMap::new(),
            cong_sent: HashMap::new(),
            retention_on: true,
            takeover_at: None,
            outbox: Vec::new(),
            fence_request: None,
            logger_queries: Vec::new(),
            last_logger_query: None,
            bootstrap_attempts: HashMap::new(),
            ack_scratch: Vec::new(),
            req_scratch: Vec::new(),
            gap_scratch: Vec::new(),
            recorder,
            stats: ClusterStats::default(),
        };
        engine.recorder.gauge_max(Gauge::PromotionRank, u64::from(rank) + 1);
        engine
    }

    /// Installs an observability recorder (no-op by default).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
        let rank = self.topo.rank_of(self.self_ip).unwrap_or(0);
        self.recorder.gauge_max(Gauge::PromotionRank, u64::from(rank) + 1);
    }

    /// Current role.
    pub fn role(&self) -> ClusterRole {
        self.role
    }

    /// Current topology view.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// This node's rank in its current topology view.
    pub fn rank(&self) -> Option<u8> {
        self.topo.rank_of(self.self_ip)
    }

    /// Whether this node currently serves the VIP.
    pub fn is_primary_now(&self) -> bool {
        self.role == ClusterRole::Primary
    }

    /// Whether this node promoted itself at some point.
    pub fn has_taken_over(&self) -> bool {
        self.takeover_at.is_some()
    }

    /// When this node promoted itself.
    pub fn takeover_at(&self) -> Option<SimTime> {
        self.takeover_at
    }

    /// When this node first suspected its current primary.
    pub fn suspected_at(&self) -> Option<SimTime> {
        self.timer.suspected_at()
    }

    /// When this node last heard its current primary (frozen at the
    /// old primary's last message once this node promotes itself).
    pub fn last_primary_heard(&self) -> Option<SimTime> {
        self.timer.last_heard()
    }

    /// Shadow lag in bytes (promotion-eligible at zero).
    pub fn catchup_lag(&self, stack: &NetStack) -> u64 {
        self.catchup.lag(stack)
    }

    /// Primary-side drain phase.
    pub fn drain_phase(&self) -> DrainPhase {
        self.drain.phase()
    }

    /// Schedules `drain_and_handover()` to the rank-`successor_rank`
    /// backup at `at` (call on the serving primary).
    pub fn schedule_drain(&mut self, at: SimTime, successor_rank: u8) {
        self.drain.schedule(at, successor_rank);
    }

    /// Registers a newly shadowed connection (backup role).
    pub fn register_conn(&mut self, key: ConnKey, initial_next: SeqNum) {
        self.catchup.register(key, initial_next);
    }

    /// Notes receive progress on `key`'s shadow (queues an ack check).
    pub fn note_activity(&mut self, key: ConnKey) {
        self.catchup.note_activity(key);
    }

    /// Handles one side-channel datagram from `from`.
    pub fn on_side_msg(
        &mut self,
        now: SimTime,
        from: Ipv4Addr,
        msg: SideMsg,
        stack: &mut NetStack,
    ) {
        // Topology adoption first: the liveness check below must judge
        // `from` against the *new* reign when this very message
        // announces one.
        if let SideMsg::ClusterHb { epoch, members, .. } = &msg {
            self.stats.hbs_received += 1;
            self.recorder.count(Counter::HeartbeatsReceived, 1);
            if *epoch > self.topo.epoch() {
                let members = members.clone();
                self.adopt(now, *epoch, members, stack);
            }
        }
        if from == self.topo.primary() && self.role != ClusterRole::Primary {
            self.timer.note_heard(now);
        }
        if self.role == ClusterRole::Primary {
            self.note_peer(now, from);
        }
        match msg {
            SideMsg::ClusterHb { .. } => {} // handled above
            SideMsg::Heartbeat { .. } => {}
            SideMsg::BackupAck { conn, acked_next } => {
                self.apply_peer_ack(from, conn, SeqNum(acked_next), stack);
            }
            SideMsg::AckBatch { rank: _, entries } => {
                for (conn, acked_next) in entries {
                    self.apply_peer_ack(from, conn, SeqNum(acked_next), stack);
                }
            }
            SideMsg::MissingReq { conn, from: seq_from, len } => {
                if matches!(self.role, ClusterRole::Primary | ClusterRole::Retired) {
                    self.serve_missing(from, conn, SeqNum(seq_from), len as usize, stack);
                }
            }
            SideMsg::MissingData { conn, seq, data } => {
                if self.role == ClusterRole::Backup {
                    self.apply_missing_data(now, conn, SeqNum(seq), &data, stack);
                }
            }
            SideMsg::CongSync { conn, cwnd, ssthresh } => {
                if self.role == ClusterRole::Backup {
                    if let Some(sock) = stack.sock_by_quad(conn.server_quad()) {
                        if let Some(tcb) = stack.tcb_mut(sock) {
                            tcb.import_congestion(tcpstack::CongSnapshot { cwnd, ssthresh });
                        }
                    }
                }
            }
            SideMsg::MissingNack { conn, .. } => {
                self.catchup.clear_outstanding(conn);
                if self.role == ClusterRole::Backup && self.cfg.use_logger {
                    // The primary no longer holds those bytes; only the
                    // in-network logger can heal the gap now.
                    self.queue_logger_queries(now, stack);
                }
            }
            SideMsg::Drain { epoch, successor_rank } => {
                if self.role == ClusterRole::Backup {
                    if let Some(rank) = self.topo.rank_of(self.self_ip) {
                        if self.follower.on_drain(rank, self.topo.epoch(), epoch, successor_rank) {
                            self.ready_traced = false;
                        }
                    }
                }
            }
            SideMsg::DrainReady { rank, epoch } => {
                if self.role == ClusterRole::Primary && self.drain.on_drain_ready(rank, epoch) {
                    if let Some(&succ) = self.topo.members().get(usize::from(rank)) {
                        self.outbox.push((succ, SideMsg::Handover { epoch }));
                    }
                    // Fence ourselves: the successor owns the VIP the
                    // instant it reads the Handover. Retention stays on —
                    // the residual retained bytes are served from here.
                    stack.suppress(now, self.cfg.vip);
                    self.role = ClusterRole::Retired;
                    self.stats.migrations += 1;
                    self.recorder.count(Counter::PlannedMigrations, 1);
                    self.recorder.trace(
                        now.as_nanos(),
                        &TraceEvent::PlannedMigration { phase: MigrationPhase::HandedOver, epoch },
                    );
                }
            }
            SideMsg::Handover { epoch } => {
                if self.role == ClusterRole::Backup {
                    if let Some(epoch) = self.follower.on_handover(epoch) {
                        // The handover is the (benign) death certificate
                        // of the old reign; the takeover marks keep their
                        // crash-case meaning so TakeoverBreakdown reads
                        // the same either way.
                        self.mark_suspicion(now);
                        self.promote(now, stack, Some(epoch));
                    }
                }
            }
        }
    }

    /// Inspects a tapped primary→client TCP segment (backup role; the
    /// node adapter feeds every mirrored VIP-sourced ACK here).
    pub fn on_tapped_primary_segment(
        &mut self,
        now: SimTime,
        key: ConnKey,
        primary_seq: SeqNum,
        primary_ack: SeqNum,
        is_syn: bool,
        stack: &mut NetStack,
    ) {
        if self.role != ClusterRole::Backup {
            return;
        }
        if is_syn {
            match stack.sock_by_quad(key.server_quad()) {
                Some(sock) => {
                    if let Some(tcb) = stack.tcb_mut(sock) {
                        tcb.shadow_resync_iss(now, primary_seq);
                    }
                }
                None => self.maybe_bootstrap(now, key, primary_ack),
            }
            return; // a SYN/ACK's ack field is the handshake, not data
        }
        if stack.sock_by_quad(key.server_quad()).is_none() {
            self.maybe_bootstrap(now, key, primary_ack);
            return;
        }
        if self.catchup.on_primary_ack(key, primary_ack) {
            self.request_missing_now(now, key, stack);
        }
    }

    /// The backup ack strategy (§4.3, chained): rank 1 checks the
    /// X threshold on every pump, ranks ≥ 2 only flush on the forced
    /// sync tick (one multiplexed batch per tick).
    pub fn maybe_send_acks(&mut self, stack: &mut NetStack, force: bool) {
        if self.role != ClusterRole::Backup {
            return;
        }
        let Some(rank) = self.topo.rank_of(self.self_ip) else {
            return;
        };
        if rank >= 2 && !force {
            return;
        }
        let mut acks = std::mem::take(&mut self.ack_scratch);
        acks.clear();
        self.catchup.collect_acks(stack, self.x_threshold, force, &mut acks);
        // Self-release: keep exactly one ack window of retained history
        // to serve deeper backups after a promotion; release the rest
        // so the shadow's advertised window never collapses under
        // retention spill.
        for &(key, _, prev) in &acks {
            if let Some(sock) = stack.sock_by_quad(key.server_quad()) {
                if let Some(tcb) = stack.tcb_mut(sock) {
                    tcb.set_backup_acked(prev);
                }
            }
        }
        let primary = self.topo.primary();
        if rank == 1 {
            for &(key, next, _) in &acks {
                self.stats.acks_sent += 1;
                self.recorder.count(Counter::BackupAcksSent, 1);
                self.outbox
                    .push((primary, SideMsg::BackupAck { conn: key, acked_next: next.raw() }));
            }
        } else if !acks.is_empty() {
            let entries: Vec<(ConnKey, u32)> =
                acks.iter().map(|&(key, next, _)| (key, next.raw())).collect();
            self.stats.ack_batches_sent += 1;
            self.stats.ack_batch_entries += entries.len() as u64;
            self.recorder.count(Counter::AckBatchesSent, 1);
            self.recorder.count(Counter::AckBatchEntries, entries.len() as u64);
            self.outbox.push((primary, SideMsg::AckBatch { rank, entries }));
        }
        acks.clear();
        self.ack_scratch = acks;
    }

    /// Periodic tick, role-dispatched.
    pub fn on_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        match self.role {
            ClusterRole::Primary => self.primary_tick(now, stack),
            ClusterRole::Backup => self.backup_tick(now, stack),
            ClusterRole::Retired => {}
        }
    }

    /// Drains queued `(destination, message)` pairs into `out`.
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(Ipv4Addr, SideMsg)>) {
        out.append(&mut self.outbox);
    }

    /// Takes the pending fence request (power-switch outlet), if any.
    pub fn take_fence_request(&mut self) -> Option<u32> {
        self.fence_request.take()
    }

    /// Takes the pending logger replay queries.
    pub fn take_logger_queries(&mut self) -> Vec<ReplayQuery> {
        std::mem::take(&mut self.logger_queries)
    }

    // --- internals --------------------------------------------------

    fn adopt(&mut self, now: SimTime, epoch: u32, members: Vec<Ipv4Addr>, stack: &mut NetStack) {
        self.topo = Topology::with_epoch(epoch, members);
        self.stats.adoptions += 1;
        match self.topo.rank_of(self.self_ip) {
            Some(0) => {
                // Only reachable if another node proclaimed us primary
                // (a handover we missed); honour it.
                if self.role != ClusterRole::Primary {
                    self.become_primary(now, stack);
                }
            }
            Some(rank) => {
                if self.role == ClusterRole::Primary {
                    // Superseded: a higher reign exists. Yield the VIP
                    // immediately — at-most-one-server is the invariant
                    // everything else exists to protect.
                    stack.suppress(now, self.cfg.vip);
                }
                self.role = ClusterRole::Backup;
                self.timer.reset(now);
                self.recorder.gauge_max(Gauge::PromotionRank, u64::from(rank) + 1);
            }
            None => {
                if self.role == ClusterRole::Primary {
                    stack.suppress(now, self.cfg.vip);
                }
                self.role = ClusterRole::Retired;
            }
        }
    }

    fn note_peer(&mut self, now: SimTime, from: Ipv4Addr) {
        if from == self.self_ip || self.topo.rank_of(from).is_none() {
            return;
        }
        let entry = self.peers.entry(from).or_insert(PeerState { last_heard: now, alive: true });
        if !entry.alive {
            entry.alive = true;
            self.stats.reintegrations += 1;
        }
        entry.last_heard = now;
    }

    fn apply_peer_ack(
        &mut self,
        from: Ipv4Addr,
        key: ConnKey,
        acked: SeqNum,
        stack: &mut NetStack,
    ) {
        if self.role != ClusterRole::Primary || !self.retention_on {
            return;
        }
        self.stats.acks_applied += 1;
        self.recorder.count(Counter::BackupAcksReceived, 1);
        let entry = self.peer_acks.entry(key).or_default();
        let slot = entry.entry(from).or_insert(acked);
        *slot = (*slot).max(acked);
        self.release_conn(key, stack);
    }

    /// Releases `key`'s retention at the minimum acknowledged point
    /// over live backups — but only once *every* live backup has acked
    /// the connection at least once (until then its floor is unknown
    /// and everything is held; the per-tick forced ack bounds that
    /// wait to one sync interval).
    fn release_conn(&mut self, key: ConnKey, stack: &mut NetStack) {
        let Some(entry) = self.peer_acks.get(&key) else {
            return;
        };
        let mut floor: Option<SeqNum> = None;
        for (ip, peer) in &self.peers {
            if !peer.alive {
                continue;
            }
            match entry.get(ip) {
                Some(&acked) => {
                    floor = Some(match floor {
                        Some(f) => f.min(acked),
                        None => acked,
                    });
                }
                None => return,
            }
        }
        let Some(floor) = floor else {
            return;
        };
        if let Some(sock) = stack.sock_by_quad(key.server_quad()) {
            if let Some(tcb) = stack.tcb_mut(sock) {
                tcb.set_backup_acked(floor);
            }
        }
    }

    fn serve_missing(
        &mut self,
        to: Ipv4Addr,
        conn: ConnKey,
        from: SeqNum,
        len: usize,
        stack: &mut NetStack,
    ) {
        let tcb = stack.sock_by_quad(conn.server_quad()).and_then(|s| stack.tcb(s));
        let Some(tcb) = tcb else {
            self.nack(to, conn, from);
            return;
        };
        let rcv_nxt = tcb.rcv_nxt();
        let want_end = from.add(len as u32).min(rcv_nxt);
        let avail = want_end.distance(from);
        if avail <= 0 {
            self.nack(to, conn, from);
            return;
        }
        match tcb.fetch_rx(from, avail as usize) {
            Some(bytes) => {
                self.stats.missing_served += 1;
                self.recorder.count(Counter::MissingRepliesServed, 1);
                for (i, chunk) in bytes.chunks(SIDE_CHUNK).enumerate() {
                    let seq = from.add((i * SIDE_CHUNK) as u32);
                    self.outbox.push((
                        to,
                        SideMsg::MissingData {
                            conn,
                            seq: seq.raw(),
                            data: Bytes::copy_from_slice(chunk),
                        },
                    ));
                }
            }
            None => self.nack(to, conn, from),
        }
    }

    fn nack(&mut self, to: Ipv4Addr, conn: ConnKey, from: SeqNum) {
        self.stats.missing_nacked += 1;
        self.recorder.count(Counter::MissingNacks, 1);
        self.outbox.push((to, SideMsg::MissingNack { conn, from: from.raw() }));
    }

    fn apply_missing_data(
        &mut self,
        now: SimTime,
        conn: ConnKey,
        seq: SeqNum,
        data: &[u8],
        stack: &mut NetStack,
    ) {
        if let Some(sock) = stack.sock_by_quad(conn.server_quad()) {
            if let Some(tcb) = stack.tcb_mut(sock) {
                tcb.inject_rx(now, seq, data);
                self.stats.missing_bytes_recovered += data.len() as u64;
            }
        }
        self.stats.catchup_replays += 1;
        self.recorder.count(Counter::CatchupReplays, 1);
        self.catchup.clear_outstanding(conn);
        self.catchup.note_activity(conn);
        // Chase the remaining gap, if any.
        self.request_missing_now(now, conn, stack);
    }

    fn maybe_bootstrap(&mut self, now: SimTime, key: ConnKey, primary_ack: SeqNum) {
        if !self.cfg.use_logger {
            return; // without a logger the history is unrecoverable
        }
        let retry = self.cfg.effective_sync_time().saturating_mul(2);
        if let Some(&last) = self.bootstrap_attempts.get(&key) {
            let due = now.checked_duration_since(last).map(|d| d >= retry).unwrap_or(false);
            if !due {
                return;
            }
        }
        self.bootstrap_attempts.insert(key, now);
        self.stats.bootstrap_queries += 1;
        self.recorder.count(Counter::BootstrapQueries, 1);
        self.logger_queries.push(ReplayQuery {
            src_ip: key.client_ip,
            dst_ip: key.server_ip,
            src_port: key.client_port,
            dst_port: key.server_port,
            seq_from: primary_ack.sub(1 << 30).raw(),
            seq_to: primary_ack.add(1 << 20).raw(),
        });
    }

    fn request_missing_now(&mut self, now: SimTime, key: ConnKey, stack: &NetStack) {
        let mut reqs = std::mem::take(&mut self.req_scratch);
        reqs.clear();
        self.catchup.request_missing(now, key, self.cfg.missing_req_chunk, stack, &mut reqs);
        self.push_missing_reqs(&mut reqs);
        self.req_scratch = reqs;
    }

    fn push_missing_reqs(&mut self, reqs: &mut Vec<MissingOut>) {
        let primary = self.topo.primary();
        for (key, from, len) in reqs.drain(..) {
            self.stats.missing_reqs += 1;
            self.recorder.count(Counter::MissingReqsSent, 1);
            self.outbox.push((primary, SideMsg::MissingReq { conn: key, from: from.raw(), len }));
        }
    }

    fn broadcast_topology(&mut self) {
        self.hb_seq += 1;
        for &backup in self.topo.backups() {
            self.outbox.push((
                backup,
                SideMsg::ClusterHb {
                    seq: self.hb_seq,
                    epoch: self.topo.epoch(),
                    sender_rank: 0,
                    members: self.topo.members().to_vec(),
                },
            ));
            self.stats.hbs_sent += 1;
            self.recorder.count(Counter::HeartbeatsSent, 1);
        }
    }

    fn primary_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        self.broadcast_topology();
        if self.cfg.cong_sync {
            self.mirror_congestion(stack);
        }
        // Planned migration: announce the drain while it is active.
        let (announce, started) = self.drain.on_tick(now, self.topo.epoch());
        if started {
            self.recorder.trace(
                now.as_nanos(),
                &TraceEvent::PlannedMigration {
                    phase: MigrationPhase::DrainStarted,
                    epoch: self.drain.handover_epoch(),
                },
            );
        }
        if let Some(rank) = announce {
            if let Some(&succ) = self.topo.members().get(usize::from(rank)) {
                self.outbox.push((
                    succ,
                    SideMsg::Drain { epoch: self.drain.handover_epoch(), successor_rank: rank },
                ));
            }
        }
        // Backup liveness (§4.4, N-ary): a silent backup stops gating
        // retention release; when the *last* one goes silent the node
        // transitions to non-fault-tolerant mode exactly like the
        // two-node primary.
        let deadline = self.cfg.hb_interval.saturating_mul(u64::from(self.cfg.missed_hb_threshold));
        let mut any_died = false;
        let mut max_silence = 0u64;
        for peer in self.peers.values_mut() {
            if !peer.alive {
                continue;
            }
            let silence = now.checked_duration_since(peer.last_heard);
            if silence.map(|d| d > deadline).unwrap_or(false) {
                peer.alive = false;
                any_died = true;
                max_silence = max_silence.max(silence.map(|d| d.as_nanos()).unwrap_or(0));
            }
        }
        if any_died {
            if self.peers.values().any(|p| p.alive) {
                // The dead peer no longer gates releases: re-derive
                // every connection's floor from the survivors.
                let keys: Vec<ConnKey> = self.peer_acks.keys().copied().collect();
                for key in keys {
                    self.release_conn(key, stack);
                }
            } else if self.retention_on {
                self.retention_on = false;
                self.recorder
                    .trace(now.as_nanos(), &TraceEvent::BackupDead { silent_ns: max_silence });
                let socks: Vec<_> = stack.socks().collect();
                for sock in socks {
                    if let Some(tcb) = stack.tcb_mut(sock) {
                        tcb.disable_retention();
                    }
                }
            }
        }
        // A freshly promoted primary may still have gaps of its own;
        // keep asking the logger while they last.
        if self.takeover_at.is_some() && self.cfg.use_logger && self.logger_query_due(now) {
            self.queue_logger_queries(now, stack);
        }
    }

    /// Mirrors each established connection's congestion snapshot to
    /// every live backup when it changed since the last tick
    /// ([`SttcpConfig::cong_sync`]).
    fn mirror_congestion(&mut self, stack: &mut NetStack) {
        let dests: Vec<Ipv4Addr> =
            self.peers.iter().filter(|(_, p)| p.alive).map(|(&ip, _)| ip).collect();
        if dests.is_empty() {
            return;
        }
        let socks: Vec<_> = stack.socks().collect();
        for sock in socks {
            let Some(tcb) = stack.tcb(sock) else { continue };
            if tcb.state() != TcpState::Established {
                continue;
            }
            let conn = ConnKey::from_server_quad(tcb.quad());
            let snap = tcb.export_congestion();
            let pair = (snap.cwnd, snap.ssthresh);
            if self.cong_sent.insert(conn, pair) != Some(pair) {
                for &dest in &dests {
                    self.recorder.count(Counter::CongSyncsSent, 1);
                    self.outbox.push((
                        dest,
                        SideMsg::CongSync { conn, cwnd: snap.cwnd, ssthresh: snap.ssthresh },
                    ));
                }
            }
        }
    }

    fn backup_tick(&mut self, now: SimTime, stack: &mut NetStack) {
        self.maybe_send_acks(stack, true);
        // Liveness towards the primary (the classic heartbeat tag —
        // payload-free, and the primary treats any datagram as life).
        self.hb_seq += 1;
        self.outbox.push((self.topo.primary(), SideMsg::Heartbeat { seq: self.hb_seq }));
        // Retry stale missing-segment requests.
        let window = self.cfg.effective_sync_time().saturating_mul(2);
        let mut reqs = std::mem::take(&mut self.req_scratch);
        reqs.clear();
        self.catchup.retry_stale(now, window, self.cfg.missing_req_chunk, stack, &mut reqs);
        self.push_missing_reqs(&mut reqs);
        self.req_scratch = reqs;
        let lag = self.catchup.lag(stack);
        self.recorder.gauge_max(Gauge::CatchupLagBytes, lag);
        // Failure detection, staggered by rank.
        let Some(rank) = self.topo.rank_of(self.self_ip) else {
            return;
        };
        let deadline = promotion::detection_deadline(&self.cfg, rank);
        if let Some(silence) = self.timer.check(now, deadline) {
            self.mark_suspicion(now);
            self.recorder
                .trace(now.as_nanos(), &TraceEvent::Suspected { silent_ns: silence.as_nanos() });
            if let Fencing::PowerSwitch { outlet } = self.cfg.fencing {
                self.fence_request = Some(outlet);
                self.recorder.mark_first(Mark::FenceRequested, now.as_nanos());
                self.recorder.trace(now.as_nanos(), &TraceEvent::Fence { outlet });
            }
            if self.cfg.use_logger && lag > 0 {
                self.queue_logger_queries(now, stack);
            }
        }
        if self.timer.is_suspected() {
            if lag == 0 {
                // Shadow-consistent: promote. The staggered deadline
                // already ordered us behind every shallower rank.
                self.promote(now, stack, None);
                return;
            }
            // Ineligible: keep healing. The primary is suspected dead,
            // so only the logger can close the gap.
            if self.cfg.use_logger && self.logger_query_due(now) {
                self.queue_logger_queries(now, stack);
            }
        }
        // Planned migration: while a drain names us and we are
        // shadow-consistent, tell the primary we are ready.
        if let Some((epoch, drain_rank)) = self.follower.pending() {
            if lag == 0 {
                if !self.ready_traced {
                    self.ready_traced = true;
                    self.recorder.trace(
                        now.as_nanos(),
                        &TraceEvent::PlannedMigration {
                            phase: MigrationPhase::SuccessorReady,
                            epoch,
                        },
                    );
                }
                self.outbox
                    .push((self.topo.primary(), SideMsg::DrainReady { rank: drain_rank, epoch }));
            }
        }
    }

    /// Records this engine's own last-heard and suspicion instants as
    /// one first-wins pair. Every chain member shares one sink, so a
    /// continuously refreshed last-heard mark would be overwritten by
    /// the deeper ranks hearing the promoted successor.
    fn mark_suspicion(&self, now: SimTime) {
        let heard = self.timer.last_heard().unwrap_or(now);
        self.recorder.mark_first(Mark::LastPrimaryHeard, heard.as_nanos());
        self.recorder.mark_first(Mark::SuspectedPrimaryDead, now.as_nanos());
    }

    fn logger_query_due(&self, now: SimTime) -> bool {
        self.last_logger_query
            .map(|t| {
                now.checked_duration_since(t)
                    .map(|d| d >= self.cfg.effective_sync_time().saturating_mul(2))
                    .unwrap_or(false)
            })
            .unwrap_or(true)
    }

    fn queue_logger_queries(&mut self, now: SimTime, stack: &NetStack) {
        self.last_logger_query = Some(now);
        let mut gaps = std::mem::take(&mut self.gap_scratch);
        gaps.clear();
        self.catchup.gaps(stack, &mut gaps);
        for &(key, from, to) in &gaps {
            self.logger_queries.push(ReplayQuery {
                src_ip: key.client_ip,
                dst_ip: key.server_ip,
                src_port: key.client_port,
                dst_port: key.server_port,
                seq_from: from.raw(),
                seq_to: to.raw(),
            });
            self.stats.logger_queries += 1;
            self.recorder.count(Counter::LoggerQueries, 1);
        }
        gaps.clear();
        self.gap_scratch = gaps;
    }

    fn become_primary(&mut self, now: SimTime, stack: &mut NetStack) {
        stack.unsuppress(now, self.cfg.vip);
        self.role = ClusterRole::Primary;
        self.takeover_at = Some(now);
        self.recorder.mark_first(Mark::TakeoverUnsuppressed, now.as_nanos());
        self.recorder.trace(now.as_nanos(), &TraceEvent::Promoted);
        self.stats.promotions += 1;
        self.recorder.gauge_max(Gauge::PromotionRank, 1);
        self.peers = self
            .topo
            .backups()
            .iter()
            .map(|&ip| (ip, PeerState { last_heard: now, alive: true }))
            .collect();
        self.peer_acks.clear();
    }

    fn promote(&mut self, now: SimTime, stack: &mut NetStack, epoch_override: Option<u32>) {
        let rank = self.topo.rank_of(self.self_ip).expect("only members promote");
        let new_topo = self.topo.promoted(rank);
        if let Some(epoch) = epoch_override {
            debug_assert_eq!(
                epoch,
                new_topo.epoch(),
                "handover epoch must match the epoch-by-rank rule"
            );
        }
        self.topo = new_topo;
        self.become_primary(now, stack);
        // Announce the new reign immediately — deeper ranks re-anchor
        // their detection clocks on us instead of promoting in parallel.
        self.broadcast_topology();
        if self.cfg.use_logger {
            self.queue_logger_queries(now, stack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;
    use tcpstack::StackConfig;
    use wire::MacAddr;

    const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn cfg() -> SttcpConfig {
        SttcpConfig::new(VIP, 80)
    }

    fn topo() -> Topology {
        Topology::new(vec![ip(2), ip(3), ip(4)])
    }

    fn stack_for(last: u8, suppressed: bool) -> NetStack {
        let mut c = StackConfig::host(MacAddr::local(u32::from(last)), ip(last));
        c.extra_ips = vec![VIP];
        if suppressed {
            c.suppressed_ips = vec![VIP];
        }
        NetStack::new(c)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn primary_broadcasts_the_topology_to_every_backup() {
        let mut e = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(2, false);
        e.on_tick(t(50), &mut s);
        let mut out = Vec::new();
        e.drain_outbox_into(&mut out);
        let hbs: Vec<_> =
            out.iter().filter(|(_, m)| matches!(m, SideMsg::ClusterHb { .. })).collect();
        assert_eq!(hbs.len(), 2, "one targeted heartbeat per backup");
        assert_eq!(hbs[0].0, ip(3));
        assert_eq!(hbs[1].0, ip(4));
        for (_, m) in &hbs {
            let SideMsg::ClusterHb { epoch, sender_rank, members, .. } = m else { unreachable!() };
            assert_eq!(*epoch, 0);
            assert_eq!(*sender_rank, 0);
            assert_eq!(members, topo().members());
        }
    }

    #[test]
    fn rank1_promotes_at_its_deadline_and_announces_the_new_reign() {
        let mut e = ClusterEngine::new(cfg(), ip(3), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(3, true);
        assert!(s.is_suppressed(VIP));
        // hb 50 ms × threshold 3 → deadline 150 ms for rank 1.
        e.on_tick(t(150), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup, "not past the deadline yet");
        e.on_tick(t(200), &mut s);
        assert_eq!(e.role(), ClusterRole::Primary);
        assert!(!s.is_suppressed(VIP), "takeover lifts the suppression");
        assert_eq!(e.topology().epoch(), 1);
        assert_eq!(e.topology().members(), &[ip(3), ip(4)]);
        let mut out = Vec::new();
        e.drain_outbox_into(&mut out);
        assert!(
            out.iter()
                .any(|(to, m)| *to == ip(4) && matches!(m, SideMsg::ClusterHb { epoch: 1, .. })),
            "the new primary announces its reign to the survivors at once"
        );
    }

    #[test]
    fn rank2_waits_out_its_stagger_and_re_anchors_on_the_new_primary() {
        let mut e = ClusterEngine::new(cfg(), ip(4), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(4, true);
        // Rank 2's deadline is 150 + 100 = 250 ms; at 200 ms it still
        // waits even though rank 1 would have promoted already.
        e.on_tick(t(200), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup);
        assert!(s.is_suppressed(VIP));
        // The new primary's heartbeat arrives: adopt, reset the clock.
        e.on_side_msg(
            t(205),
            ip(3),
            SideMsg::ClusterHb { seq: 1, epoch: 1, sender_rank: 0, members: vec![ip(3), ip(4)] },
            &mut s,
        );
        assert_eq!(e.topology().epoch(), 1);
        assert_eq!(e.rank(), Some(1), "rank 2 became rank 1 under the new reign");
        // Old deadline instant passes harmlessly — the clock restarted.
        e.on_tick(t(260), &mut s);
        assert_eq!(e.role(), ClusterRole::Backup);
        // But the new primary's silence is detected on the rank-1
        // deadline measured from the adoption.
        e.on_tick(t(400), &mut s);
        assert_eq!(e.role(), ClusterRole::Primary, "cascade: promoted over the new reign");
        assert_eq!(e.topology().epoch(), 2, "epoch-by-rank: both paths converge on 2");
        assert_eq!(e.topology().members(), &[ip(4)]);
    }

    #[test]
    fn superseded_primary_yields_the_vip() {
        let mut e = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(2, false);
        assert!(!s.is_suppressed(VIP));
        // A higher reign that still lists us (e.g. we were wrongly
        // suspected): we yield and fall in line as a backup.
        e.on_side_msg(
            t(300),
            ip(3),
            SideMsg::ClusterHb { seq: 9, epoch: 3, sender_rank: 0, members: vec![ip(3), ip(2)] },
            &mut s,
        );
        assert_eq!(e.role(), ClusterRole::Backup);
        assert!(s.is_suppressed(VIP), "at most one server sources the VIP");
        // And a reign that drops us entirely retires us.
        e.on_side_msg(
            t(400),
            ip(4),
            SideMsg::ClusterHb { seq: 1, epoch: 5, sender_rank: 0, members: vec![ip(4)] },
            &mut s,
        );
        assert_eq!(e.role(), ClusterRole::Retired);
    }

    #[test]
    fn planned_migration_hands_over_with_matching_epochs() {
        let mut p = ClusterEngine::new(cfg(), ip(2), topo(), 1024, SimTime::ZERO);
        let mut b = ClusterEngine::new(cfg(), ip(3), topo(), 1024, SimTime::ZERO);
        let mut ps = stack_for(2, false);
        let mut bs = stack_for(3, true);
        p.schedule_drain(t(100), 1);
        // Tick the primary past the schedule: it announces the drain.
        p.on_tick(t(100), &mut ps);
        assert_eq!(p.drain_phase(), DrainPhase::Draining);
        let mut out = Vec::new();
        p.drain_outbox_into(&mut out);
        let drain = out
            .iter()
            .find(|(to, m)| *to == ip(3) && matches!(m, SideMsg::Drain { .. }))
            .expect("drain announced to the successor")
            .1
            .clone();
        // The successor (no lag: no connections) accepts and reports
        // ready on its next tick.
        b.on_side_msg(t(101), ip(2), drain, &mut bs);
        b.on_tick(t(150), &mut bs);
        out.clear();
        b.drain_outbox_into(&mut out);
        let ready = out
            .iter()
            .find(|(to, m)| *to == ip(2) && matches!(m, SideMsg::DrainReady { .. }))
            .expect("successor reports ready")
            .1
            .clone();
        // The primary hands over and fences itself.
        p.on_side_msg(t(151), ip(3), ready, &mut ps);
        assert_eq!(p.role(), ClusterRole::Retired);
        assert!(ps.is_suppressed(VIP), "the retiring primary fences its VIP");
        assert_eq!(p.stats.migrations, 1);
        out.clear();
        p.drain_outbox_into(&mut out);
        let handover = out
            .iter()
            .find(|(to, m)| *to == ip(3) && matches!(m, SideMsg::Handover { .. }))
            .expect("handover sent")
            .1
            .clone();
        // The successor promotes under the agreed epoch.
        b.on_side_msg(t(152), ip(2), handover, &mut bs);
        assert_eq!(b.role(), ClusterRole::Primary);
        assert!(!bs.is_suppressed(VIP));
        assert_eq!(b.topology().epoch(), 1);
        assert_eq!(b.topology().members(), &[ip(3), ip(4)]);
        // The retired primary adopts the new reign without reclaiming.
        out.clear();
        b.drain_outbox_into(&mut out);
        let hb = out
            .iter()
            .find(|(_, m)| matches!(m, SideMsg::ClusterHb { .. }))
            .expect("new reign announced")
            .1
            .clone();
        p.on_side_msg(t(153), ip(3), hb, &mut ps);
        assert_eq!(p.role(), ClusterRole::Retired);
        assert!(ps.is_suppressed(VIP));
    }

    #[test]
    fn deep_ranks_only_flush_on_the_sync_tick() {
        let mut e = ClusterEngine::new(cfg(), ip(4), topo(), 1024, SimTime::ZERO);
        let mut s = stack_for(4, true);
        // No connections: the point here is purely the gating — a
        // non-forced scan must be a no-op for rank ≥ 2 regardless.
        e.maybe_send_acks(&mut s, false);
        let mut out = Vec::new();
        e.drain_outbox_into(&mut out);
        assert!(out.is_empty());
    }
}
