//! The traced run: the benchmark assembles each workload's topology
//! from public constructors, wraps every node in a timing adapter over
//! `netsim::Node`, and drives `Simulator::step` itself.
//!
//! The builders offer no hook for wrapping nodes, so the two assemblies
//! below restate `sttcp::scenario::build` (hub topology, ST-TCP pair)
//! and `sttcp::build_cluster` node for node and in the same order. The
//! caller checks that the traced run reproduces the builder-made run
//! exactly (events, every client's metrics, takeover, completion), which
//! proves both that the restatement is faithful and that the tracing is
//! passive.

use crate::codec::FrameTally;
use crate::workload::{Ids, Outcome, Plan, RUN_LIMIT};
use apps::{
    Application, BulkServer, EchoServer, InteractiveServer, UploadServer, WorkloadClient,
    REQUEST_SIZE,
};
use bytes::Bytes;
use netsim::node::{Context, NodeId, PortId};
use netsim::{Hub, Node, PacketLogger, SimDuration, SimTime, Simulator, Switch};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};
use sttcp::cluster::fleet::{server_ip, server_mac};
use sttcp::fleet::{
    FleetSpec, BULK_FILE, BULK_PORT, INTERACTIVE_PORT, INTERACTIVE_REPLY, UPLOAD_FILE, UPLOAD_PORT,
};
use sttcp::node::{AppFactory, LAN};
use sttcp::scenario::addrs;
use sttcp::{ClientNode, ServerNode};
use tcpstack::StackConfig;
use wire::MacAddr;

/// The builders' run drivers check for completion every 50 ms of
/// virtual time; the traced run stops at the same boundary.
const CHUNK: SimDuration = SimDuration::from_millis(50);

/// Whether a node has finished its part of the workload.
pub trait Finish {
    /// True once the node's work is done (clients only).
    fn finished(&self) -> bool {
        false
    }
}

impl Finish for ClientNode {
    fn finished(&self) -> bool {
        self.app::<WorkloadClient>().is_some_and(WorkloadClient::is_done)
    }
}
impl Finish for ServerNode {}
impl Finish for Hub {}
impl Finish for Switch {}
impl Finish for PacketLogger {}

/// Wall time and calls accumulated by the nodes of one role.
#[derive(Debug, Default)]
pub struct RoleClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
    frames: Cell<u64>,
}

impl RoleClock {
    fn add(&self, since: Instant) {
        self.ns.set(self.ns.get() + since.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    /// Nanoseconds inside the role's callbacks.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Callbacks made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Frames delivered to the role's nodes.
    pub fn frames(&self) -> u64 {
        self.frames.get()
    }
}

/// Clients finished so far, and the instant the latest one did.
#[derive(Debug, Default)]
struct Done {
    count: Cell<usize>,
    last: Cell<SimTime>,
}

/// Timing adapter: forwards every callback to `inner` and charges its
/// wall time to a role.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    clock: Rc<RoleClock>,
    done: Rc<Done>,
    finished: bool,
}

impl<N: Node + Finish> Timed<N> {
    fn after(&mut self, since: Instant, ctx: &Context) {
        self.clock.add(since);
        if !self.finished && self.inner.finished() {
            self.finished = true;
            self.done.count.set(self.done.count.get() + 1);
            self.done.last.set(self.done.last.get().max(ctx.now()));
        }
    }
}

impl<N: Node + Finish> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.after(t, ctx);
    }

    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        self.clock.frames.set(self.clock.frames.get() + 1);
        let t = Instant::now();
        self.inner.on_frame(port, frame, ctx);
        self.after(t, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let t = Instant::now();
        self.inner.on_timer(token, ctx);
        self.after(t, ctx);
    }
}

/// The roles time is charged to.
#[derive(Debug, Default)]
pub struct Clocks {
    /// Client hosts: `NetStack` plus the workload driver.
    pub client: Rc<RoleClock>,
    /// The initial primary.
    pub primary: Rc<RoleClock>,
    /// Every backup (including after it promotes).
    pub backup: Rc<RoleClock>,
    /// Hub or switch, and the packet logger.
    pub fabric: Rc<RoleClock>,
}

impl Clocks {
    /// Nanoseconds inside every callback.
    pub fn total_ns(&self) -> u64 {
        [&self.client, &self.primary, &self.backup, &self.fabric].iter().map(|c| c.ns()).sum()
    }

    /// Frames delivered to hosts (clients and servers).
    pub fn host_frames_in(&self) -> u64 {
        self.client.frames() + self.primary.frames() + self.backup.frames()
    }
}

/// A topology assembled with every node wrapped.
struct Assembly {
    sim: Simulator,
    ids: Ids,
    clocks: Clocks,
    done: Rc<Done>,
}

impl Assembly {
    fn new(seed: u64) -> Assembly {
        Assembly {
            sim: Simulator::with_seed(seed),
            ids: Ids { clients: Vec::new(), servers: Vec::new() },
            clocks: Clocks::default(),
            done: Rc::default(),
        }
    }

    fn add<N: Node + Finish>(&mut self, name: &str, node: N, clock: &Rc<RoleClock>) -> NodeId {
        let timed = Timed {
            inner: node,
            clock: Rc::clone(clock),
            done: Rc::clone(&self.done),
            finished: false,
        };
        self.sim.add_node(name, timed)
    }
}

/// `sttcp::scenario::build` for the hub topology with an ST-TCP pair.
fn assemble_pair(plan: &Plan) -> Assembly {
    let spec = plan.pair_spec();
    let sttcp::scenario::Deployment::StTcp(st) = &spec.deployment else {
        unreachable!("pair_spec deploys ST-TCP")
    };
    let workload = spec.workload;
    let mut a = Assembly::new(spec.seed);
    let factory = move || -> AppFactory {
        Box::new(move || -> Box<dyn Application> {
            match workload {
                apps::Workload::Upload { file_size } => Box::new(UploadServer::new(file_size)),
                apps::Workload::Bulk { file_size } => Box::new(BulkServer::new(file_size)),
                _ => unreachable!("pair workloads are bulk or upload"),
            }
        })
    };

    let mut c_cfg = StackConfig::host(MacAddr::local(1), addrs::CLIENT);
    c_cfg.isn_seed = spec.seed ^ 0x1111;
    c_cfg.tcp = spec.tcp.clone();
    let client = ClientNode::new(
        c_cfg,
        (addrs::VIP, 80),
        SimDuration::from_millis(1),
        WorkloadClient::new(workload),
    );
    let client = a.add("client", client, &a.clocks.client.clone());

    let mut p_cfg = StackConfig::host(MacAddr::local(2), addrs::PRIMARY);
    p_cfg.extra_ips = vec![addrs::VIP];
    p_cfg.isn_seed = spec.seed ^ 0x2222;
    p_cfg.learn_from_ip = true;
    p_cfg.tcp = spec.tcp.clone();
    p_cfg.tcp.retention_buf = p_cfg.tcp.recv_buf;
    let p_node = ServerNode::primary(p_cfg, st.clone(), addrs::BACKUP, factory());
    let primary = a.add("primary", p_node, &a.clocks.primary.clone());

    let mut b_cfg = StackConfig::host(MacAddr::local(3), addrs::BACKUP);
    b_cfg.extra_ips = vec![addrs::VIP];
    b_cfg.isn_seed = spec.seed ^ 0x3333;
    b_cfg.learn_from_ip = true;
    b_cfg.suppressed_ips = vec![addrs::VIP];
    b_cfg.tcp = spec.tcp.clone();
    b_cfg.tcp.shadow = true;
    b_cfg.promiscuous = true;
    let b_node = ServerNode::backup(b_cfg, st.clone(), addrs::PRIMARY, factory());
    let backup = a.add("backup", b_node, &a.clocks.backup.clone());

    let fabric = a.clocks.fabric.clone();
    let hub = a.add("hub", Hub::new(4), &fabric);
    if spec.with_logger {
        let half = spec.link.with_latency(spec.link.latency / 2);
        let lg = a.add("logger", PacketLogger::with_defaults(), &fabric);
        a.sim.connect(client, LAN, lg, PortId(0), half);
        a.sim.connect(lg, PortId(1), hub, PortId(0), half);
    } else {
        a.sim.connect(client, LAN, hub, PortId(0), spec.link);
    }
    a.sim.connect(primary, LAN, hub, PortId(1), spec.link);
    a.sim.connect(backup, LAN, hub, PortId(2), spec.link);
    a.sim.schedule_crash(primary, plan.crash_at);
    a.ids = Ids { clients: vec![client], servers: vec![primary, backup] };
    a
}

/// `sttcp::build_cluster` for a seeded mixed fleet (no logger, no
/// planned migration).
fn assemble_fleet(plan: &Plan) -> Assembly {
    let spec = plan.fleet_spec();
    let mut a = Assembly::new(spec.seed);
    let servers_total = 1 + spec.backups;
    let topology = spec.topology();

    for rank in 0..servers_total {
        let mut tcp = spec.tcp.clone();
        tcp.retention_buf = tcp.recv_buf;
        tcp.shadow = rank > 0;
        let mut cfg = StackConfig::host(server_mac(rank), server_ip(rank));
        cfg.extra_ips = vec![addrs::VIP];
        cfg.learn_from_ip = true;
        cfg.netmask_bits = 8;
        cfg.isn_seed = spec.seed ^ (0x2222u64.wrapping_add(rank as u64 * 0x1111));
        if rank > 0 {
            cfg.promiscuous = true;
            cfg.suppressed_ips = vec![addrs::VIP];
        }
        for other in (0..servers_total).filter(|&o| o != rank) {
            cfg.static_arp.push((server_ip(other), server_mac(other)));
        }
        cfg.tcp = tcp;
        let mut node = ServerNode::cluster(
            cfg,
            spec.st_tcp.clone(),
            topology.clone(),
            Box::new(|| Box::new(EchoServer::new())),
        );
        node.add_service(
            INTERACTIVE_PORT,
            Box::new(|| Box::new(InteractiveServer::with_sizes(REQUEST_SIZE, INTERACTIVE_REPLY))),
        );
        node.add_service(BULK_PORT, Box::new(|| Box::new(BulkServer::new(BULK_FILE))));
        node.add_service(UPLOAD_PORT, Box::new(|| Box::new(UploadServer::new(UPLOAD_FILE))));
        let (name, clock) = if rank == 0 {
            ("primary".to_string(), a.clocks.primary.clone())
        } else {
            (format!("backup{rank}"), a.clocks.backup.clone())
        };
        let id = a.add(&name, node, &clock);
        a.ids.servers.push(id);
    }

    let mut sw = Switch::new(servers_total + spec.clients);
    for from in 0..servers_total {
        for to in (1..servers_total).filter(|&to| to != from) {
            sw.add_mirror(PortId(from), PortId(to));
        }
    }
    let fabric = a.add("switch", sw, &a.clocks.fabric.clone());
    for (rank, &server) in a.ids.servers.iter().enumerate() {
        a.sim.connect(server, LAN, fabric, PortId(rank), spec.link);
    }

    let mut plans = FleetSpec::new(spec.clients).seed(spec.seed);
    plans.link = spec.link;
    plans.st_tcp = spec.st_tcp.clone();
    plans.tcp = spec.tcp.clone();
    plans.connect_spread = spec.connect_spread;
    let client_clock = a.clocks.client.clone();
    for i in 0..spec.clients {
        let p = plans.client_plan(i);
        let mut c_cfg = StackConfig::host(MacAddr::local(100 + i as u32), p.ip);
        c_cfg.netmask_bits = 8;
        c_cfg.isn_seed = p.isn_seed;
        c_cfg.static_arp.push((addrs::VIP, server_mac(0)));
        c_cfg.tcp = spec.tcp.clone();
        let node = ClientNode::new(
            c_cfg,
            (addrs::VIP, p.port),
            p.connect_at,
            WorkloadClient::new(p.workload).closing(),
        );
        let id = a.add(&format!("client{i}"), node, &client_clock);
        a.sim.connect(id, LAN, fabric, PortId(servers_total + i), spec.link);
        a.ids.clients.push(id);
    }
    for &(rank, at) in &spec.crashes {
        a.sim.schedule_crash(a.ids.servers[rank], at);
    }
    a
}

/// What the traced run measured.
pub struct Traced {
    /// The run's outcome, for the agreement check.
    pub outcome: Outcome,
    /// Wall seconds driving the simulator (probe and timers included).
    pub wall_s: f64,
    /// Per-role callback time.
    pub clocks: Clocks,
    /// Step time outside every node callback, ns.
    pub self_ns: u64,
    /// Median single-step wall time, ns.
    pub step_p50_ns: u64,
    /// 99th-percentile single-step wall time, ns.
    pub step_p99_ns: u64,
    /// Frames handed to live nodes.
    pub frames_delivered: u64,
    /// Frames lost on links, dropped by ingress rules, sent to a dead
    /// node or out of an unwired port.
    pub frames_dropped: u64,
    /// Probe tally, with the codec sample.
    pub tally: FrameTally,
}

/// Assembles and runs `plan` under the timing adapters. `events_hint`
/// pre-sizes the per-step record (the reference run's event count), and
/// `sample_every` spaces the codec sample over the run.
pub fn traced_run(plan: &Plan, events_hint: u64, sample_every: u64) -> Traced {
    let mut a = if plan.is_pair() { assemble_pair(plan) } else { assemble_fleet(plan) };
    plan.add_loss(&mut a.sim, a.ids.servers[1]);
    let tally = Rc::new(RefCell::new(probe_tally(&a.ids, plan, sample_every)));
    let sink = Rc::clone(&tally);
    a.sim.set_probe(move |ev| sink.borrow_mut().observe(&ev));

    let clients = a.ids.clients.len();
    let limit = SimTime::ZERO + RUN_LIMIT;
    let mut steps: Vec<u32> = Vec::with_capacity(events_hint as usize + 1024);
    let mut stepped = Duration::ZERO;
    let start = Instant::now();
    while a.done.count.get() < clients && a.sim.now() < limit {
        let t = Instant::now();
        let more = a.sim.step();
        let dt = t.elapsed();
        stepped += dt;
        steps.push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
        if !more {
            break;
        }
    }
    // The builders' drivers notice completion at the next chunk
    // boundary and process every event up to it; do the same.
    if a.done.count.get() == clients {
        let last = a.done.last.get().as_nanos();
        let chunk = CHUNK.as_nanos();
        let boundary = last.div_ceil(chunk).max(1) * chunk;
        let t = Instant::now();
        a.sim.run_until(SimTime::ZERO + SimDuration::from_nanos(boundary));
        stepped += t.elapsed();
    }
    let wall_s = start.elapsed().as_secs_f64();
    steps.sort_unstable();
    let pct = |q| u64::from(crate::workload::percentile(&steps, q));

    let outcome = Outcome::read(plan, &a.sim, &a.ids, true);
    let tr = a.sim.trace();
    let frames_dropped = tr.frames_lost_on_link
        + tr.frames_dropped_ingress
        + tr.frames_to_dead_node
        + tr.frames_unwired;
    let frames_delivered = tr.frames_delivered;
    drop(a.sim);
    Traced {
        outcome,
        wall_s,
        self_ns: (stepped.as_nanos() as u64).saturating_sub(a.clocks.total_ns()),
        step_p50_ns: pct(0.50),
        step_p99_ns: pct(0.99),
        frames_delivered,
        frames_dropped,
        clocks: a.clocks,
        tally: Rc::try_unwrap(tally).map(RefCell::into_inner).unwrap_or_default(),
    }
}

/// A probe tally flagging `ids`' hosts and servers.
pub fn probe_tally(ids: &Ids, plan: &Plan, sample_every: u64) -> FrameTally {
    let n = ids.clients.iter().chain(&ids.servers).map(|id| id.0 + 1).max().unwrap_or(0);
    let mut host = vec![false; n];
    let mut server = vec![false; n];
    for id in &ids.clients {
        host[id.0] = true;
    }
    for id in &ids.servers {
        host[id.0] = true;
        server[id.0] = true;
    }
    let side_port = if plan.is_pair() {
        match &plan.pair_spec().deployment {
            sttcp::scenario::Deployment::StTcp(st) => st.side_channel_port,
            sttcp::scenario::Deployment::StandardTcp => unreachable!("pair_spec deploys ST-TCP"),
        }
    } else {
        plan.fleet_spec().st_tcp.side_channel_port
    };
    FrameTally::new(host, server, side_port, sample_every)
}
