//! The simulator's event queue.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is
//! assigned at insertion. Ties in virtual time therefore process in
//! insertion order, which — together with the buffered-effects node API —
//! makes every simulation run bit-reproducible.
//!
//! Of the events pushed on a *lane* (one per link direction), only the
//! lane's head sits in the heap; the rest wait in the lane's FIFO, so a
//! link's whole serialization backlog costs the heap one entry. A lane
//! only ever holds a run sorted by `(time, sequence)`: an event joins
//! it when it is no earlier than the lane's tail (its sequence number is
//! larger anyway), and goes into the heap as a plain event otherwise.
//! The heap thus always holds the minimum of every lane, and pops come
//! out in exactly the order a single heap of every event would give. On
//! an idle link the lane costs a flag and a time per event.

use crate::node::{ControlAction, NodeId, PortId};
use crate::time::SimTime;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a frame to `node` on `port`.
    Frame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// Frame contents.
        frame: Bytes,
    },
    /// Deliver a frame to `node` on `port`, bypassing ingress rules.
    ///
    /// Used to re-inject frames an ingress [`crate::fault::DelayRule`]
    /// held back or a [`crate::fault::DuplicateRule`] copied — running
    /// them through the rules again would delay/duplicate them forever.
    InjectedFrame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// Frame contents.
        frame: Bytes,
    },
    /// Wake `node`'s `on_timer` with `token`.
    Timer {
        /// Node to wake.
        node: NodeId,
        /// Caller-chosen token.
        token: u64,
    },
    /// Call `on_start` on `node` (simulation start or power-on).
    Start {
        /// Node to start.
        node: NodeId,
    },
    /// Apply a control action (fencing etc.).
    Control(ControlAction),
}

/// `Entry::lane` of an event that heads no lane.
const NO_LANE: u32 = u32::MAX;

#[derive(Debug)]
struct Entry {
    at: SimTime,
    seq: u64,
    /// The lane this entry heads, or [`NO_LANE`].
    lane: u32,
    kind: EventKind,
}

/// One lane: its head is in the heap, the events behind it wait here.
#[derive(Debug, Default)]
struct Lane {
    /// Whether the heap holds this lane's head.
    busy: bool,
    /// Time of the lane's last event (meaningful while `busy`).
    tail: SimTime,
    /// Events behind the head with their keys, in key order.
    behind: VecDeque<(SimTime, u64, EventKind)>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The node an event is addressed to, if any (control events act on
/// the simulator itself).
pub fn event_target(kind: &EventKind) -> Option<NodeId> {
    match kind {
        EventKind::Frame { node, .. }
        | EventKind::InjectedFrame { node, .. }
        | EventKind::Timer { node, .. }
        | EventKind::Start { node } => Some(*node),
        EventKind::Control(_) => None,
    }
}

/// A deterministic time-ordered event queue. See the module docs.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    lanes: Vec<Lane>,
    next_seq: u64,
    /// Pending events, in the heap and behind lane heads alike.
    len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one more pending event and returns its sequence number.
    fn admit(&mut self) -> u64 {
        self.len += 1;
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Schedules `kind` to fire at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.admit();
        self.heap.push(Entry { at, seq, lane: NO_LANE, kind });
    }

    /// Schedules `kind` to fire at `at` on FIFO lane `lane`. Pop order is
    /// the same as [`EventQueue::push`]'s; the lane only saves heap work
    /// when a lane's events come in time order, as a link's do.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, kind: EventKind) {
        let seq = self.admit();
        if self.lanes.len() <= lane {
            self.lanes.resize_with(lane + 1, Lane::default);
        }
        let fifo = &mut self.lanes[lane];
        if !fifo.busy {
            fifo.busy = true;
            fifo.tail = at;
            let lane = u32::try_from(lane).ok().filter(|&l| l != NO_LANE).expect("lane index");
            self.heap.push(Entry { at, seq, lane, kind });
        } else if at >= fifo.tail {
            fifo.tail = at;
            fifo.behind.push_back((at, seq, kind));
        } else {
            self.heap.push(Entry { at, seq, lane: NO_LANE, kind });
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Entry { at, lane, kind, .. } = self.heap.pop()?;
        self.len -= 1;
        if lane != NO_LANE {
            // Promote the next event of the lane, under its own key.
            let fifo = &mut self.lanes[lane as usize];
            match fifo.behind.pop_front() {
                Some((at, seq, kind)) => self.heap.push(Entry { at, seq, lane, kind }),
                None => fifo.busy = false,
            }
        }
        Some((at, kind))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer { node: NodeId(node), token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), timer(0, 3));
        q.push(SimTime::from_nanos(10), timer(0, 1));
        q.push(SimTime::from_nanos(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for token in 0..100 {
            q.push(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_pop_in_the_order_of_one_heap() {
        // Lane 0 in time order, lane 1 with an early straggler that must
        // bypass its lane, and plain pushes interleaved at equal times.
        let mut q = EventQueue::new();
        q.push_lane(0, SimTime::from_nanos(10), timer(0, 0));
        q.push_lane(1, SimTime::from_nanos(10), timer(0, 1));
        q.push(SimTime::from_nanos(10), timer(0, 2));
        q.push_lane(0, SimTime::from_nanos(20), timer(0, 3));
        q.push_lane(1, SimTime::from_nanos(30), timer(0, 4));
        q.push_lane(1, SimTime::from_nanos(5), timer(0, 5));
        q.push_lane(0, SimTime::from_nanos(20), timer(0, 6));
        assert_eq!(q.len(), 7);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![5, 0, 1, 2, 3, 6, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), timer(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
