//! Property test: the simulator delivers frames in exactly the order of
//! a reference event loop that pushes every event, every frame included,
//! into one heap ordered by `(time, insertion sequence)`.
//!
//! The simulator keeps each link direction's in-flight frames in a FIFO
//! and only the FIFO's head in its heap. That is an optimisation only if
//! it changes nothing: random links (latency, bandwidth, jitter, loss,
//! bounded queues), random sends, a mid-run latency cut that lets later
//! frames overtake earlier ones, a node pause and delay/duplicate
//! ingress rules must all give the same delivery sequence
//! `(time, node, port, frame id)`, and `pending_events()` must count
//! exactly what the reference has in flight after every step.

use bytes::Bytes;
use netsim::{
    Context, DelayRule, DuplicateRule, IngressAction, IngressRule, LinkId, LinkSpec, LossModel,
    Node, NodeId, PortId, SimDuration, SimTime, Simulator, SplitMix64,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

const MS: u64 = 1_000_000;

/// One delivery: time (ns), node, port, frame id.
type Delivery = (u64, usize, usize, u32);

struct Link {
    ends: [(usize, usize); 2],
    spec: LinkSpec,
}

/// A random scenario, drawn from one seed.
struct Plan {
    nodes: usize,
    links: Vec<Link>,
    /// Per node: `(send time ns, port, frame id)`, in timer-token order.
    sends: Vec<Vec<(u64, usize, u32)>>,
    /// Frame contents by id (the id is the first four bytes).
    frames: Vec<Bytes>,
    /// `(node, from ns, duration ns)`.
    pause: (usize, u64, u64),
    /// `(link, instant ns)`: the link's latency drops to a quarter at
    /// the first step at or after the instant.
    retune: (usize, u64),
    delay_node: usize,
    dup_node: usize,
}

impl Plan {
    fn draw(seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        let nodes = 3 + rng.next_below(3) as usize;
        let mut ports = vec![0usize; nodes];
        let mut links = Vec::new();
        for a in 0..nodes {
            for b in a + 1..nodes {
                if (a, b) != (0, 1) && !rng.chance(0.7) {
                    continue;
                }
                let ends = [(a, ports[a]), (b, ports[b])];
                ports[a] += 1;
                ports[b] += 1;
                links.push(Link { ends, spec: random_spec(&mut rng) });
            }
        }
        let mut frames = Vec::new();
        let mut sends = vec![Vec::new(); nodes];
        for (node, node_sends) in sends.iter_mut().enumerate() {
            if ports[node] == 0 {
                continue;
            }
            for _ in 0..rng.next_below(40) {
                let id = frames.len() as u32;
                let mut frame = vec![0u8; 60 + rng.next_below(1440) as usize];
                frame[..4].copy_from_slice(&id.to_le_bytes());
                frames.push(Bytes::from(frame));
                let port = rng.next_below(ports[node] as u64) as usize;
                node_sends.push((rng.next_below(20 * MS), port, id));
            }
        }
        let pause = (
            rng.next_below(nodes as u64) as usize,
            rng.next_below(20 * MS),
            1 + rng.next_below(10 * MS),
        );
        let retune = (rng.next_below(links.len() as u64) as usize, MS + rng.next_below(15 * MS));
        let delay_node = rng.next_below(nodes as u64) as usize;
        let dup_node = rng.next_below(nodes as u64) as usize;
        Plan { nodes, links, sends, frames, pause, retune, delay_node, dup_node }
    }

    /// The ingress rules, freshly built (rules keep counters, so the
    /// simulator and the reference each get their own).
    fn rules(&self) -> Vec<(usize, IngressRule)> {
        let odd = |f: &Bytes| f[0] & 1 == 1;
        vec![
            (
                self.delay_node,
                DelayRule::by(SimDuration::from_micros(700), odd).window(2, 6).into(),
            ),
            (
                self.dup_node,
                DuplicateRule::after(SimDuration::from_micros(300), |_| true).rate(0.2).into(),
            ),
        ]
    }

    fn retuned(&self) -> LinkSpec {
        let spec = self.links[self.retune.0].spec;
        spec.with_latency(spec.latency / 4)
    }
}

fn random_spec(rng: &mut SplitMix64) -> LinkSpec {
    let mut spec = LinkSpec::ideal().with_latency(SimDuration::from_nanos(rng.next_below(2 * MS)));
    if rng.chance(0.7) {
        spec = spec.with_bandwidth_bps(1_000_000 + rng.next_below(99_000_000));
    }
    if rng.chance(0.2) {
        spec = spec.with_reverse_bandwidth_bps(1_000_000 + rng.next_below(99_000_000));
    }
    if rng.chance(0.3) {
        spec = spec.with_jitter(SimDuration::from_nanos(rng.next_below(300_000)));
    }
    if rng.chance(0.3) {
        spec = spec.with_loss(LossModel::Rate(rng.next_below(20) as f64 / 100.0));
    }
    if rng.chance(0.3) {
        spec = spec.with_max_queue(SimDuration::from_nanos(rng.next_below(500_000)));
    }
    spec
}

fn frame_id(frame: &Bytes) -> u32 {
    u32::from_le_bytes(frame[..4].try_into().expect("frames carry a four-byte id"))
}

/// Sends its scripted frames on timers and logs every delivery.
struct Talker {
    sends: Vec<(u64, usize, Bytes)>,
    log: Rc<RefCell<Vec<Delivery>>>,
}

impl Node for Talker {
    fn on_start(&mut self, ctx: &mut Context) {
        for (token, &(at, _, _)) in self.sends.iter().enumerate() {
            ctx.set_timer_at(SimTime::from_nanos(at), token as u64);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let (_, port, frame) = &self.sends[token as usize];
        ctx.send_frame(PortId(*port), frame.clone());
    }

    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        self.log.borrow_mut().push((
            ctx.now().as_nanos(),
            ctx.node_id().0,
            port.0,
            frame_id(&frame),
        ));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Start(usize),
    Timer(usize, usize),
    Frame { node: usize, port: usize, id: u32, injected: bool },
    Pause(usize, u64),
}

/// The reference: one heap of every pending event, the simulator's
/// link, pause and ingress semantics written out plainly.
struct Reference<'p> {
    plan: &'p Plan,
    specs: Vec<LinkSpec>,
    busy_until: Vec<[u64; 2]>,
    /// `ports[node][port]` = (link, end).
    ports: Vec<Vec<(usize, usize)>>,
    rules: Vec<Vec<IngressRule>>,
    paused_until: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    now: u64,
    rng: SplitMix64,
    log: Vec<Delivery>,
}

impl<'p> Reference<'p> {
    fn new(plan: &'p Plan, seed: u64) -> Self {
        let mut ports = vec![Vec::new(); plan.nodes];
        for (l, link) in plan.links.iter().enumerate() {
            for (end, &(node, _)) in link.ends.iter().enumerate() {
                ports[node].push((l, end));
            }
        }
        let mut rules: Vec<Vec<IngressRule>> = (0..plan.nodes).map(|_| Vec::new()).collect();
        for (node, rule) in plan.rules() {
            rules[node].push(rule);
        }
        let mut r = Reference {
            plan,
            specs: plan.links.iter().map(|l| l.spec).collect(),
            busy_until: vec![[0; 2]; plan.links.len()],
            ports,
            rules,
            paused_until: vec![0; plan.nodes],
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng: SplitMix64::new(seed),
            log: Vec::new(),
        };
        for node in 0..plan.nodes {
            r.push(0, Ev::Start(node));
        }
        let (node, from, dur) = plan.pause;
        r.push(from, Ev::Pause(node, from + dur));
        r
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    fn step(&mut self) -> bool {
        let Some(Reverse((at, _, ev))) = self.heap.pop() else {
            return false;
        };
        self.now = at;
        let target = match ev {
            Ev::Start(n) | Ev::Timer(n, _) | Ev::Frame { node: n, .. } => Some(n),
            Ev::Pause(..) => None,
        };
        if let Some(n) = target {
            if self.paused_until[n] > self.now {
                self.push(self.paused_until[n], ev);
                return true;
            }
        }
        match ev {
            Ev::Start(n) => {
                for token in 0..self.plan.sends[n].len() {
                    self.push(self.plan.sends[n][token].0, Ev::Timer(n, token));
                }
            }
            Ev::Timer(n, token) => {
                let (_, port, id) = self.plan.sends[n][token];
                self.transmit(n, port, id);
            }
            Ev::Frame { node, port, id, injected: false } => match self.ingress(node, id) {
                IngressAction::Drop => {}
                IngressAction::Delay(d) => {
                    self.push(self.now + d.as_nanos(), Ev::Frame { node, port, id, injected: true })
                }
                IngressAction::Duplicate(d) => {
                    self.push(
                        self.now + d.as_nanos(),
                        Ev::Frame { node, port, id, injected: true },
                    );
                    self.log.push((self.now, node, port, id));
                }
                IngressAction::Deliver => self.log.push((self.now, node, port, id)),
            },
            Ev::Frame { node, port, id, injected: true } => {
                self.log.push((self.now, node, port, id))
            }
            Ev::Pause(n, until) => self.paused_until[n] = until,
        }
        true
    }

    fn ingress(&mut self, node: usize, id: u32) -> IngressAction {
        let frame = &self.plan.frames[id as usize];
        let mut verdict = IngressAction::Deliver;
        for rule in &mut self.rules[node] {
            match (rule.decide(frame, SimTime::from_nanos(self.now), &mut self.rng), &mut verdict) {
                (IngressAction::Drop, v) => *v = IngressAction::Drop,
                (IngressAction::Delay(d), IngressAction::Delay(held)) => *held = (*held).max(d),
                (IngressAction::Delay(_), IngressAction::Drop) => {}
                (IngressAction::Delay(d), v) => *v = IngressAction::Delay(d),
                (IngressAction::Duplicate(d), v @ IngressAction::Deliver) => {
                    *v = IngressAction::Duplicate(d)
                }
                (IngressAction::Duplicate(_) | IngressAction::Deliver, _) => {}
            }
        }
        verdict
    }

    fn transmit(&mut self, from: usize, port: usize, id: u32) {
        let (l, end) = self.ports[from][port];
        let spec = self.specs[l];
        let lost = match spec.loss {
            LossModel::None => false,
            LossModel::Rate(p) => self.rng.chance(p),
            LossModel::GilbertElliott { .. } => unreachable!("plans draw no burst loss"),
        };
        if lost {
            return;
        }
        let busy = &mut self.busy_until[l][end];
        if let Some(depth) = spec.max_queue {
            if busy.saturating_sub(self.now) > depth.as_nanos() {
                return;
            }
        }
        let len = self.plan.frames[id as usize].len();
        let departure = self.now.max(*busy) + spec.serialization_time_dir(len, end).as_nanos();
        *busy = departure;
        let mut arrival = departure + spec.latency.as_nanos();
        if !spec.jitter.is_zero() {
            arrival += self.rng.next_below(spec.jitter.as_nanos() + 1);
        }
        let (node, port) = self.plan.links[l].ends[1 - end];
        self.push(arrival, Ev::Frame { node, port, id, injected: false });
    }
}

proptest! {
    #[test]
    fn deliveries_match_a_single_heap_reference(seed in any::<u64>()) {
        let plan = Plan::draw(seed);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::with_seed(seed);
        for node in 0..plan.nodes {
            let sends = plan.sends[node]
                .iter()
                .map(|&(at, port, id)| (at, port, plan.frames[id as usize].clone()))
                .collect();
            sim.add_node(format!("n{node}"), Talker { sends, log: log.clone() });
        }
        for link in &plan.links {
            let [(a, pa), (b, pb)] = link.ends;
            sim.connect(NodeId(a), PortId(pa), NodeId(b), PortId(pb), link.spec);
        }
        for (node, rule) in plan.rules() {
            sim.add_ingress_rule(NodeId(node), rule);
        }
        let (node, from, dur) = plan.pause;
        sim.schedule_pause(NodeId(node), SimTime::from_nanos(from), SimDuration::from_nanos(dur));

        let mut reference = Reference::new(&plan, seed);
        let mut retuned = false;
        loop {
            let stepped = sim.step();
            prop_assert_eq!(stepped, reference.step());
            if !stepped {
                break;
            }
            prop_assert_eq!(sim.now().as_nanos(), reference.now);
            if !retuned && reference.now >= plan.retune.1 {
                retuned = true;
                sim.set_link_spec(LinkId(plan.retune.0), plan.retuned());
                reference.specs[plan.retune.0] = plan.retuned();
            }
            prop_assert_eq!(sim.pending_events(), reference.heap.len(), "pending events diverged");
        }
        prop_assert_eq!(sim.pending_events(), 0);
        prop_assert_eq!(&*log.borrow(), &reference.log, "delivery sequence diverged");
        prop_assert!(!reference.log.is_empty() || plan.frames.is_empty());
    }
}
