//! The three failover workloads, built through the public builders, and
//! the correctness gate every run passes through.
//!
//! Why these three (see `README.md` for the full rationale):
//!
//! * `bulk_failover` — one 100 MB download: the per-frame path at MTU
//!   size (codecs, three `netsim` hops per frame, the backup tapping and
//!   suppressing every segment); connection-scale code idles.
//! * `upload_lossy_failover` — the same layers in the write direction
//!   with 1 % tap loss and the in-network logger, so §4.2 retention,
//!   backup acks, §4.3 missing-segment requests and logger replay carry
//!   volume before the crash and ordinary TCP retransmission after it.
//! * `fleet_chain_failover` — 3,000 small connections on a primary +
//!   2-backup chain: demux, timer wheel, per-connection memory, and a
//!   mass promotion that exercises both side-channel ack dialects.

use crate::alloc::{self, AllocCounters};
use crate::traced::Timed;
use apps::{RunMetrics, UploadServer, WorkloadClient};
use bytes::Bytes;
use netsim::node::NodeId;
use netsim::{DropRule, Node, SimDuration, SimTime, Simulator, SplitMix64};
use obs::{FlightRecorder, ObsSink};
use std::sync::Arc;
use std::time::Instant;
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, Scenario, ScenarioSpec};
use sttcp::{build_cluster, ClientNode, ClusterFleet, ClusterFleetSpec, ServerNode, SttcpConfig};

/// Heartbeat interval of the two-node workloads (the paper's fastest).
pub const HB: SimDuration = SimDuration::from_millis(50);

/// Virtual-time budget for one run; the slowest workload needs ~320 s.
pub const RUN_LIMIT: SimDuration = SimDuration::from_secs(900);

/// Backups in the fleet's replication chain.
pub const CHAIN_BACKUPS: usize = 2;

/// Share of the client's TCP frames into the backup that the upload
/// workload drops.
pub const TAP_LOSS: f64 = 0.01;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100 MB download through a primary crash at 3 s.
    BulkFailover,
    /// 100 MB upload, 1 % tap loss, logger on, primary crash at 30 s.
    UploadLossyFailover,
    /// 3,000 mixed clients on a 2-backup chain, primary crash at 150 ms.
    FleetChainFailover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::BulkFailover, Workload::UploadLossyFailover, Workload::FleetChainFailover];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkFailover => "bulk_failover",
            Workload::UploadLossyFailover => "upload_lossy_failover",
            Workload::FleetChainFailover => "fleet_chain_failover",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload size: the benchmark's, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 MB transfers, 3,000 clients.
    Full,
    /// 1 MB transfers, 20 clients.
    Tiny,
}

/// Loss realizations the upload averages over in one invocation: its
/// side-channel volume depends on which frames the 1 % draw drops, and
/// one draw per invocation spreads it by about 14 % across seeds (IQR
/// over median).
pub const UPLOAD_REALIZATIONS: u64 = 6;

/// The fleet's client plan: `ClusterFleetSpec`'s default seed. Across
/// plan seeds the fleet's takeover is bimodal (150 or 300 ms after the
/// crash; see README), so a seeded plan would swamp every bound.
pub const FLEET_PLAN_SEED: u64 = 0xF1EE7;

/// One concrete run: a workload at a scale, with everything the seed
/// decides resolved.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed handed to the builder: sim RNG, ISNs, loss draws, and for
    /// the fleet its client plan.
    pub seed: u64,
    /// Transfer size of the two-node workloads.
    pub transfer: u64,
    /// Fleet size.
    pub clients: usize,
    /// When the primary crashes.
    pub crash_at: SimTime,
}

impl Plan {
    /// Resolves `workload` at `scale` for `seed`.
    ///
    /// The crash lands a seeded sub-millisecond offset after its nominal
    /// instant. The offset samples the crash phase against the packet
    /// flow, and it keeps the crash off the heartbeat grid, where event
    /// order at equal instants would decide whether the last heartbeat
    /// left.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let tiny = scale == Scale::Tiny;
        let nominal_ms = match (workload, tiny) {
            (Workload::BulkFailover, false) => 3_000,
            (Workload::UploadLossyFailover, false) => 30_000,
            (Workload::BulkFailover | Workload::UploadLossyFailover, true) => 300,
            (Workload::FleetChainFailover, _) => 150,
        };
        let phase = SplitMix64::new(seed ^ 0xC4A5_4000).next_below(1_000_000);
        Plan {
            workload,
            seed: if workload == Workload::FleetChainFailover { FLEET_PLAN_SEED } else { seed },
            transfer: if tiny { 1 << 20 } else { 100 << 20 },
            clients: if tiny { 20 } else { 3_000 },
            crash_at: SimTime::ZERO
                + SimDuration::from_millis(nominal_ms)
                + SimDuration::from_nanos(phase),
        }
    }

    /// The plans one invocation with `seed` runs: the upload's loss
    /// realizations, each with a seed derived from `seed`, or the one
    /// plan of the other workloads.
    pub fn realizations(workload: Workload, scale: Scale, seed: u64) -> Vec<Plan> {
        if workload != Workload::UploadLossyFailover {
            return vec![Plan::new(workload, scale, seed)];
        }
        let mut seeds = SplitMix64::new(seed);
        (0..UPLOAD_REALIZATIONS).map(|_| Plan::new(workload, scale, seeds.next_u64())).collect()
    }

    /// Whether this is the two-node (primary + 1 backup on a hub) setup.
    pub fn is_pair(&self) -> bool {
        self.workload != Workload::FleetChainFailover
    }

    /// Connections the run opens.
    pub fn conns(&self) -> u64 {
        if self.is_pair() {
            1
        } else {
            self.clients as u64
        }
    }

    /// The two-node scenario spec (bulk and upload workloads).
    pub fn pair_spec(&self) -> ScenarioSpec {
        let upload = self.workload == Workload::UploadLossyFailover;
        let workload = if upload {
            apps::Workload::Upload { file_size: self.transfer }
        } else {
            apps::Workload::Bulk { file_size: self.transfer }
        };
        let mut st = SttcpConfig::new(addrs::VIP, 80).with_hb_interval(HB);
        if upload {
            // Both halves are needed: the logger on the path *and* the
            // engines allowed to query it (see README, findings).
            st = st.with_logger();
        }
        let mut spec = ScenarioSpec::new(workload)
            .st_tcp(st)
            .faults(FaultSpec::crash_primary_at(self.crash_at));
        if upload {
            spec = spec.with_logger();
        }
        spec.seed = self.seed;
        spec
    }

    /// The cluster fleet spec (fleet workload).
    pub fn fleet_spec(&self) -> ClusterFleetSpec {
        ClusterFleetSpec::new(self.clients, CHAIN_BACKUPS).seed(self.seed).crash(0, self.crash_at)
    }

    /// Installs the workload's loss on a built simulator: the upload
    /// drops a seeded 1 % of the client's TCP frames arriving at the
    /// backup, before and after the crash.
    ///
    /// The primary's frames are spared: with them on the lossy tap, about
    /// 1 in 250 runs stalls for good after takeover (see README,
    /// findings), and the benchmark needs a workload on which no run
    /// fails.
    pub fn add_loss(&self, sim: &mut Simulator, backup: NodeId) {
        if self.workload == Workload::UploadLossyFailover {
            sim.add_ingress_drop(backup, DropRule::rate(TAP_LOSS, is_tcp_to_vip));
        }
    }
}

/// True for an Ethernet/IPv4 frame carrying TCP to the service address.
fn is_tcp_to_vip(frame: &Bytes) -> bool {
    // Ethernet type at 12..14, IPv4 protocol at 23, destination address
    // at 30..34; the stack never sends IP options, so the offsets are
    // fixed.
    frame.len() > 33
        && frame[12..14] == [0x08, 0x00]
        && frame[23] == 6
        && frame[30..34] == addrs::VIP.octets()
}

/// Node ids of one built system, servers in rank order.
#[derive(Debug, Clone)]
pub struct Ids {
    /// Workload clients.
    pub clients: Vec<NodeId>,
    /// Servers; index 0 is the initial primary.
    pub servers: Vec<NodeId>,
}

/// A system built by the public builders.
pub enum Built {
    /// `sttcp::scenario::build`.
    Pair(Scenario),
    /// `sttcp::build_cluster`.
    Fleet(ClusterFleet),
}

impl Built {
    /// Builds `plan`; `recording` turns on the obs metrics sink and the
    /// flight recorder.
    pub fn new(plan: &Plan, recording: bool) -> Built {
        if plan.is_pair() {
            let mut spec = plan.pair_spec();
            if recording {
                spec = spec.recording().tracing();
            }
            let mut s = build(&spec);
            let backup = s.backup.expect("ST-TCP deployment has a backup");
            plan.add_loss(&mut s.sim, backup);
            Built::Pair(s)
        } else {
            let mut spec = plan.fleet_spec();
            if recording {
                spec = spec.recording().tracing();
            }
            Built::Fleet(build_cluster(&spec))
        }
    }

    /// The simulator.
    pub fn sim(&self) -> &Simulator {
        match self {
            Built::Pair(s) => &s.sim,
            Built::Fleet(f) => &f.sim,
        }
    }

    /// The simulator, mutably (to install a probe).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        match self {
            Built::Pair(s) => &mut s.sim,
            Built::Fleet(f) => &mut f.sim,
        }
    }

    /// Node ids.
    pub fn ids(&self) -> Ids {
        match self {
            Built::Pair(s) => Ids {
                clients: vec![s.client],
                servers: vec![s.primary, s.backup.expect("ST-TCP deployment has a backup")],
            },
            Built::Fleet(f) => Ids { clients: f.clients.clone(), servers: f.servers.clone() },
        }
    }

    /// Runs to completion with the builder's own driver.
    pub fn run(&mut self) {
        match self {
            Built::Pair(s) => {
                s.run(RunLimits::time(RUN_LIMIT));
            }
            Built::Fleet(f) => {
                f.run_until_done(RUN_LIMIT);
            }
        }
    }

    /// The obs sink and flight recorder, when built with recording.
    pub fn recorders(&self) -> Option<(&Arc<ObsSink>, &Arc<FlightRecorder>)> {
        let (obs, flight) = match self {
            Built::Pair(s) => (&s.obs, &s.flight),
            Built::Fleet(f) => (&f.obs, &f.flight),
        };
        Some((obs.as_ref()?, flight.as_ref()?))
    }
}

/// Everything a run produced that the seed alone decides. Two runs of
/// one plan — builder-made, traced, or recorded — must agree on all of
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulator events processed.
    pub events: u64,
    /// Virtual instant the last client finished, in ns.
    pub completion_ns: u64,
    /// Virtual ns from the crash to the promoted server's takeover.
    pub takeover_ns: u64,
    /// The part of it until the promoted server suspected the primary.
    pub detect_ns: u64,
    /// Median request latency over every request of every client, ns.
    pub req_p50_ns: u64,
    /// 99th-percentile request latency, ns.
    pub req_p99_ns: u64,
    /// Application bytes delivered, both directions.
    pub goodput_bytes: u64,
    /// Connections attempted.
    pub conns: u64,
    /// Connections that did not complete or did not verify.
    pub conns_failed: u64,
    /// FNV-1a digest of every client's `RunMetrics`.
    pub digest: u64,
    /// Correctness violations beyond failed connections.
    pub violations: Vec<String>,
}

/// A node of type `T`, either bare or inside the traced run's adapter.
fn node<T: Node + crate::traced::Finish>(sim: &Simulator, id: NodeId, wrapped: bool) -> &T {
    if wrapped {
        &sim.node_ref::<Timed<T>>(id).inner
    } else {
        sim.node_ref::<T>(id)
    }
}

/// When `server` promoted itself, if it did, and when it first
/// suspected the primary.
fn takeover(server: &ServerNode) -> Option<(SimTime, SimTime)> {
    let (suspected, took) = match (server.backup_engine(), server.cluster_engine()) {
        (Some(e), _) => (e.suspected_at(), e.takeover_at()),
        (None, Some(e)) => (e.suspected_at(), e.takeover_at()),
        (None, None) => (None, None),
    };
    Some((suspected.unwrap_or(took?), took?))
}

/// Application bytes a finished client sent to its server.
fn request_bytes(w: apps::Workload) -> u64 {
    let req = apps::REQUEST_SIZE as u64;
    match w {
        apps::Workload::Echo { requests } | apps::Workload::Interactive { requests, .. } => {
            requests as u64 * req
        }
        apps::Workload::Bulk { .. } => req,
        apps::Workload::Upload { file_size } => file_size,
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_metrics(h: &mut u64, m: &RunMetrics) {
    let t = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_nanos());
    fnv(h, t(m.started));
    fnv(h, t(m.finished));
    fnv(h, m.latencies.len() as u64);
    for l in &m.latencies {
        fnv(h, l.as_nanos());
    }
    fnv(h, m.bytes_received);
    fnv(h, m.content_errors);
    fnv(h, m.first_error_pos.unwrap_or(u64::MAX));
}

/// Nearest-rank percentile of `sorted` (`q` in `(0, 1]`); zero when
/// empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Outcome {
    /// Reads and checks the result of a finished run. `wrapped` says
    /// whether the nodes sit inside the traced run's adapters.
    pub fn read(plan: &Plan, sim: &Simulator, ids: &Ids, wrapped: bool) -> Outcome {
        let mut digest = 0xCBF2_9CE4_8422_2325;
        let mut latencies = Vec::new();
        let (mut completion_ns, mut goodput_bytes, mut conns_failed) = (0, 0, 0);
        for &id in &ids.clients {
            let client = node::<ClientNode>(sim, id, wrapped)
                .app::<WorkloadClient>()
                .expect("benchmark clients run WorkloadClient");
            let m = &client.metrics;
            digest_metrics(&mut digest, m);
            let (got, want) = client.progress();
            if !client.is_done() || !m.verified_clean() || got != want {
                conns_failed += 1;
                continue;
            }
            completion_ns = completion_ns.max(m.finished.map_or(0, |t| t.as_nanos()));
            goodput_bytes += got + request_bytes(client.workload());
            latencies.extend(m.latencies.iter().map(|l| l.as_nanos()));
        }
        latencies.sort_unstable();

        let mut violations = Vec::new();
        let servers: Vec<&ServerNode> =
            ids.servers.iter().map(|&id| node::<ServerNode>(sim, id, wrapped)).collect();
        let takers: Vec<usize> =
            (0..servers.len()).filter(|&r| takeover(servers[r]).is_some()).collect();
        let (mut takeover_ns, mut detect_ns) = (0, 0);
        if takers == [1] {
            let (suspected, took) = takeover(servers[1]).expect("rank 1 took over");
            let since_crash = |t: SimTime| t.as_nanos().saturating_sub(plan.crash_at.as_nanos());
            takeover_ns = since_crash(took);
            detect_ns = since_crash(suspected);
        } else {
            violations.push(format!("expected exactly rank 1 to take over, got ranks {takers:?}"));
        }
        if plan.workload == Workload::UploadLossyFailover {
            let promoted = servers[1];
            let consumed = promoted
                .accepted
                .first()
                .and_then(|&sock| promoted.app::<UploadServer>(sock))
                .map(|app| (app.received(), app.content_errors));
            if consumed != Some((plan.transfer, 0)) {
                violations.push(format!(
                    "promoted UploadServer consumed {consumed:?}, want ({} bytes, 0 errors)",
                    plan.transfer
                ));
            }
        }
        Outcome {
            events: sim.trace().events_processed,
            completion_ns,
            takeover_ns,
            detect_ns,
            req_p50_ns: percentile(&latencies, 0.50),
            req_p99_ns: percentile(&latencies, 0.99),
            goodput_bytes,
            conns: ids.clients.len() as u64,
            conns_failed,
            digest,
            violations,
        }
    }

    /// True when every connection verified and nothing was violated.
    pub fn correct(&self) -> bool {
        self.conns_failed == 0 && self.violations.is_empty()
    }
}

/// Wall-clock and heap figures of one builder-made run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Seconds in the builder (plus installing the workload's loss).
    pub setup_s: f64,
    /// Seconds in the builder's run driver.
    pub wall_s: f64,
    /// Peak live heap over setup and run, above the pre-build heap.
    pub peak_heap: u64,
    /// Heap held by the built system before it runs.
    pub setup_live: u64,
    /// Allocation calls during the run.
    pub run_allocs: u64,
    /// Bytes requested during the run.
    pub run_alloc_bytes: u64,
}

/// Builds `plan` with the public builder and runs it, timing both.
/// Returns the timing, the checked outcome, and the still-built system
/// (for reading recorders); dropping it is left outside the timing.
pub fn timed_run(plan: &Plan, recording: bool) -> (Timing, Outcome, Built) {
    alloc::reset_peak();
    let before = AllocCounters::now();
    let t0 = Instant::now();
    let mut built = Built::new(plan, recording);
    let setup_s = t0.elapsed().as_secs_f64();
    let after_setup = AllocCounters::now();
    let t1 = Instant::now();
    built.run();
    let wall_s = t1.elapsed().as_secs_f64();
    let (run_allocs, run_alloc_bytes) = AllocCounters::now().since(after_setup);
    let timing = Timing {
        setup_s,
        wall_s,
        peak_heap: alloc::peak().saturating_sub(before.live),
        setup_live: after_setup.live.saturating_sub(before.live),
        run_allocs,
        run_alloc_bytes,
    };
    let outcome = Outcome::read(plan, built.sim(), &built.ids(), false);
    (timing, outcome, built)
}

/// Times the builder alone, `n` times, dropping each system untimed.
pub fn setup_samples(plan: &Plan, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let built = Built::new(plan, false);
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect()
}
