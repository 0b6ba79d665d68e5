//! One benchmark invocation: the reference run, the measured runs, the
//! correctness gate, and the metrics they yield.

use crate::codec::{self, SAMPLE_FRAMES};
use crate::traced::{probe_tally, traced_run};
use crate::workload::{setup_samples, timed_run, Built, Outcome, Plan};
use obs::{Counter, Gauge};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit. Virtual-time
/// metrics carry `sim_` units; they are exact per seed.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("completion_s", "sim_s"),
    ("takeover_ms", "sim_ms"),
    ("req_latency_ms_p50", "sim_ms"),
    ("req_latency_ms_p99", "sim_ms"),
    ("side_bytes_per_goodput_byte", "B/B"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("netsim.events", "count"),
    ("netsim.frames_delivered", "count"),
    ("netsim.frames_dropped", "count"),
    ("netsim.self_ms", "ms"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.fabric_ms", "ms"),
    ("netsim.step_us_p50", "us"),
    ("netsim.step_us_p99", "us"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.small_frame_share", "ratio"),
    ("wire.parse_ns_per_frame", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.est_ms", "ms"),
    ("tcpstack.client_ms", "ms"),
    ("tcpstack.client_ns_per_call", "ns"),
    ("tcpstack.rto_fired", "count"),
    ("tcpstack.fast_retransmits", "count"),
    ("tcpstack.segs_suppressed", "count"),
    ("sttcp.primary_ms", "ms"),
    ("sttcp.backup_ms", "ms"),
    ("sttcp.primary_ns_per_call", "ns"),
    ("sttcp.backup_ns_per_call", "ns"),
    ("sttcp.side_datagrams", "count"),
    ("sttcp.side_bytes", "B"),
    ("sttcp.backup_acks", "count"),
    ("sttcp.missing_seg_requests", "count"),
    ("sttcp.retention_high_water_bytes", "B"),
    ("sttcp.detect_ms", "sim_ms"),
    ("sttcp.promote_ms", "sim_ms"),
    ("obs.recorder_overhead", "ratio"),
    ("obs.trace_events", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("alloc.per_event", "count"),
    ("alloc.setup_bytes_per_conn", "B"),
    ("trace.overhead", "ratio"),
];

/// Set-up time is sampled at least this many times per invocation.
const MIN_SETUPS: usize = 11;

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Every connection verified, every check held, every run agreed.
    pub correct: bool,
    /// Connections attempted over every run of the invocation.
    pub attempted: u64,
    /// Those that did not complete or did not verify.
    pub failed: u64,
    /// Metric name, unit and value, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// What went wrong, when `correct` is false.
    pub problems: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Counts connections and collects problems across the invocation's
/// runs, each checked against the reference outcome.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn check(&mut self, label: &str, o: &Outcome, reference: Option<&Outcome>) {
        self.attempted += o.conns;
        self.failed += o.conns_failed;
        if o.conns_failed > 0 {
            self.problems.push(format!("{label} run: {} connections failed", o.conns_failed));
        }
        self.problems.extend(o.violations.iter().map(|v| format!("{label} run: {v}")));
        if let Some(r) = reference.filter(|r| *r != o) {
            self.problems
                .push(format!("{label} run disagrees with the reference run: {o:?} vs {r:?}"));
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Builder-made run with the probe counting frames; the invocation's
/// reference outcome. It also warms caches before anything is timed.
fn reference_run(plan: &Plan) -> (Outcome, codec::FrameTally) {
    let mut built = Built::new(plan, false);
    let tally = Rc::new(RefCell::new(probe_tally(&built.ids(), plan, 0)));
    let sink = Rc::clone(&tally);
    built.sim_mut().set_probe(move |ev| sink.borrow_mut().observe(&ev));
    built.run();
    let outcome = Outcome::read(plan, built.sim(), &built.ids(), false);
    drop(built);
    let tally = Rc::try_unwrap(tally).map(RefCell::into_inner).unwrap_or_default();
    (outcome, tally)
}

/// Mean of `f` over the references.
fn mean(
    refs: &[(Outcome, codec::FrameTally)],
    f: impl Fn(&Outcome, &codec::FrameTally) -> f64,
) -> f64 {
    refs.iter().map(|(o, t)| f(o, t)).sum::<f64>() / refs.len() as f64
}

/// Runs `plans` (one invocation's realizations, see
/// [`Plan::realizations`]) for about `seconds` of measurement and
/// reports the end-to-end metrics, or with `trace` the per-layer ones.
/// Timings are medians over the measured runs; seed-determined figures
/// are means over the realizations.
pub fn measure(plans: &[Plan], seconds: u64, trace: bool) -> Report {
    let mut gate = Gate::default();
    let refs: Vec<_> = plans.iter().map(reference_run).collect();
    for (o, _) in &refs {
        gate.check("reference", o, None);
    }
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let metrics = if trace {
        per_layer(&plans[0], &refs[0].0, refs[0].1.host_frames, &mut gate, budget)
    } else {
        let (mut walls, mut setups) = (Vec::new(), Vec::new());
        let mut peaks = vec![0; plans.len()];
        for i in 0.. {
            let k = i % plans.len();
            let (t, o, built) = timed_run(&plans[k], false);
            drop(built);
            gate.check("timed", &o, Some(&refs[k].0));
            walls.push(t.wall_s);
            setups.push(t.setup_s);
            peaks[k] = peaks[k].max(t.peak_heap);
            if i + 1 >= plans.len() && start.elapsed() >= budget {
                break;
            }
        }
        let missing = MIN_SETUPS.saturating_sub(setups.len());
        setups.extend(setup_samples(&plans[0], missing));
        let ms = |ns: u64| ns as f64 / 1e6;
        let values = [
            median(&walls),
            median(&setups),
            peaks.iter().sum::<u64>() as f64 / plans.len() as f64 / f64::from(1 << 20),
            mean(&refs, |o, _| o.completion_ns as f64 / 1e9),
            mean(&refs, |o, _| ms(o.takeover_ns)),
            mean(&refs, |o, _| ms(o.req_p50_ns)),
            mean(&refs, |o, _| ms(o.req_p99_ns)),
            mean(&refs, |o, t| t.side_bytes as f64 / o.goodput_bytes.max(1) as f64),
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    Report {
        correct: gate.problems.is_empty() && gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        problems: gate.problems,
    }
}

/// Obs figures read from a recorded run.
struct Recorded {
    snapshot: obs::Snapshot,
    trace_events: u64,
}

/// The traced invocation: each round runs the builder-made timed run,
/// the traced run and the recorded run, and checks all three against
/// the reference.
fn per_layer(
    plan: &Plan,
    reference: &Outcome,
    host_frames: u64,
    gate: &mut Gate,
    budget: Duration,
) -> Vec<(&'static str, &'static str, f64)> {
    let start = Instant::now();
    let sample_every = (host_frames / SAMPLE_FRAMES).max(1);
    let (mut trace_ratio, mut rec_ratio) = (Vec::new(), Vec::new());
    let (mut self_ns, mut step_p50, mut step_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut client_ns, mut primary_ns, mut backup_ns, mut fabric_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (timing, traced, recorded) = loop {
        let (timing, o, built) = timed_run(plan, false);
        drop(built);
        gate.check("timed", &o, Some(reference));

        let traced = traced_run(plan, reference.events, sample_every);
        gate.check("traced", &traced.outcome, Some(reference));

        let (rec_timing, o, built) = timed_run(plan, true);
        gate.check("recorded", &o, Some(reference));
        let (sink, flight) = built.recorders().expect("built with recording");
        let export = flight.export();
        let recorded = Recorded {
            snapshot: sink.snapshot(),
            trace_events: export.events.len() as u64 + export.dropped,
        };
        drop(built);

        trace_ratio.push(traced.wall_s / timing.wall_s);
        rec_ratio.push(rec_timing.wall_s / timing.wall_s);
        self_ns.push(traced.self_ns as f64);
        step_p50.push(traced.step_p50_ns as f64);
        step_p99.push(traced.step_p99_ns as f64);
        let c = &traced.clocks;
        client_ns.push(c.client.ns() as f64);
        primary_ns.push(c.primary.ns() as f64);
        backup_ns.push(c.backup.ns() as f64);
        fabric_ns.push(c.fabric.ns() as f64);
        if start.elapsed() >= budget {
            break (timing, traced, recorded);
        }
    };
    let codec = codec::replay(&traced.tally.samples);
    if codec.mismatches > 0 {
        gate.problems.push(format!(
            "{} sampled frames did not parse or re-encode bit for bit",
            codec.mismatches
        ));
    }

    let events = reference.events as f64;
    let c = &traced.clocks;
    let t = &traced.tally;
    let snap = &recorded.snapshot;
    let count = |name: Counter| snap.get(name.name()) as f64;
    let sim_ms = |ns: u64| ns as f64 / 1e6;
    let per_call = |ns: &[f64], calls: u64| median(ns) / calls.max(1) as f64;
    let values = [
        events,
        traced.frames_delivered as f64,
        traced.frames_dropped as f64,
        median(&self_ns) / 1e6,
        median(&self_ns) / events,
        median(&fabric_ns) / 1e6,
        median(&step_p50) / 1e3,
        median(&step_p99) / 1e3,
        t.host_frames as f64,
        t.host_bytes as f64,
        t.host_small as f64 / t.host_frames.max(1) as f64,
        codec.parse_ns,
        codec.encode_ns,
        (c.host_frames_in() as f64 * codec.parse_ns + t.host_frames as f64 * codec.encode_ns) / 1e6,
        median(&client_ns) / 1e6,
        per_call(&client_ns, c.client.calls()),
        count(Counter::TcpRtoFired),
        count(Counter::TcpFastRetransmits),
        count(Counter::SegsSuppressed),
        median(&primary_ns) / 1e6,
        median(&backup_ns) / 1e6,
        per_call(&primary_ns, c.primary.calls()),
        per_call(&backup_ns, c.backup.calls()),
        t.side_datagrams as f64,
        t.side_bytes as f64,
        count(Counter::BackupAcksSent) + count(Counter::AckBatchesSent),
        count(Counter::MissingReqsSent),
        snap.get(Gauge::RetentionHighWater.name()) as f64,
        sim_ms(reference.detect_ns),
        sim_ms(reference.takeover_ns.saturating_sub(reference.detect_ns)),
        median(&rec_ratio),
        recorded.trace_events as f64,
        timing.run_allocs as f64,
        timing.run_alloc_bytes as f64,
        timing.run_allocs as f64 / events,
        timing.setup_live as f64 / plan.conns() as f64,
        median(&trace_ratio),
    ];
    PER_LAYER.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
}
