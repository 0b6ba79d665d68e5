//! Hierarchical timer wheel over virtual-time ticks: O(1) schedule and
//! amortized-O(1) expiry for connection deadlines.
//!
//! `next_deadline()` used to scan every TCB for the minimum of its four
//! deadline fields — O(n) per poll, per node. The wheel replaces the scan
//! with four levels of 64 slots over ~1 ms ticks (shift 20 on
//! nanoseconds), covering ~67 ms / ~4.3 s / ~4.6 min / ~4.9 h per level;
//! deadlines beyond the horizon park in the farthest top-level slot and
//! cascade inward as time passes.
//!
//! # Design contract (lazy cancellation, conservative wakes)
//!
//! The wheel is a *wake index*, not the source of truth. Each TCB keeps
//! its own precise deadline fields; the stack guarantees only that for
//! every live deadline `d` there is a wheel entry at some time ≤ `d`.
//! Entries are never cancelled — a deadline that moves or disappears
//! leaves a stale entry behind, which pops harmlessly: the owning socket
//! gets polled, its `check_timers` does nothing, and the stack re-arms
//! from the TCB's real `next_deadline()`. [`TimerWheel::next_expiry`] is
//! therefore *conservative*: it may be up to one slot-span early (the
//! embedding wakes, finds nothing due, re-arms precisely — entries within
//! the current tick live in a side list carrying exact times so
//! convergence takes at most one spurious wake per level), but it is
//! never late, which is the property the simulation's liveness rests on.
//!
//! # Determinism
//!
//! Expiry order is a pure function of (schedule order, virtual time):
//! slots drain in ascending block order, entries within a slot in
//! insertion order, cascades re-dispatch in that same order. No hashing,
//! no wall clock — identical runs pop identical sequences.

const TICK_SHIFT: u32 = 20; // 2^20 ns ≈ 1.05 ms per tick
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 64;
const LEVELS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    /// Precise expiry, nanoseconds of virtual time.
    at: u64,
    token: T,
}

/// End of a slot's list / of the free list.
const NIL: u32 = u32::MAX;

/// One pooled entry: the entry and the next one in its slot's list (or
/// in the free list).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    entry: Entry<T>,
    next: u32,
}

/// A slot's FIFO list of pool indices.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List { head: NIL, tail: NIL };

#[derive(Debug)]
struct Level {
    /// Bit i set ⇔ `slots[i]` is non-empty.
    occupied: u64,
    slots: [List; SLOTS],
}

const LEVEL: Level = Level { occupied: 0, slots: [EMPTY; SLOTS] };

/// A four-level hierarchical timer wheel. See the module docs.
///
/// Every slot's entries live in one pool shared by all 256 slots, each
/// slot a FIFO list threaded through it, so an empty wheel owns only the
/// two small pre-sized buffers and the pool grows to the live-entry
/// high-water mark instead of every slot keeping its own vector.
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: [Level; LEVELS],
    /// Slot-list storage; vacant nodes form a LIFO free list at `free`.
    pool: Vec<Node<T>>,
    free: u32,
    /// Entries due within the current tick, carrying precise times so
    /// [`TimerWheel::next_expiry`] converges to the exact deadline.
    imminent: Vec<Entry<T>>,
    /// Cascade staging buffer (kept for capacity reuse).
    scratch: Vec<Entry<T>>,
    now_tick: u64,
    len: usize,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel positioned at virtual time zero.
    pub fn new() -> Self {
        TimerWheel {
            levels: [LEVEL; LEVELS],
            pool: Vec::new(),
            free: NIL,
            // Pre-sized so the steady-state hot path stays allocation-free
            // (the zero-alloc guard test runs over this).
            imminent: Vec::with_capacity(16),
            scratch: Vec::with_capacity(64),
            now_tick: 0,
            len: 0,
        }
    }

    /// Live entries (stale ones included until they pop).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to pop at or before virtual time `at_ns`. O(1).
    pub fn schedule(&mut self, at_ns: u64, token: T) {
        self.len += 1;
        self.place(Entry { at: at_ns, token });
    }

    fn place(&mut self, e: Entry<T>) {
        let at_tick = e.at >> TICK_SHIFT;
        if at_tick <= self.now_tick {
            // Due now or within the current tick: precise side list.
            self.imminent.push(e);
            return;
        }
        for lvl in 0..LEVELS {
            let shift = SLOT_BITS * lvl as u32;
            let high_delta = (at_tick >> shift) - (self.now_tick >> shift);
            if high_delta <= 63 {
                let slot = ((at_tick >> shift) & 63) as usize;
                self.push_slot(lvl, slot, e);
                return;
            }
        }
        // Beyond the top-level horizon (~4.9 h out): park in the farthest
        // top-level slot; it cascades inward when that block is reached.
        let shift = SLOT_BITS * (LEVELS - 1) as u32;
        let slot = (((self.now_tick >> shift) + 63) & 63) as usize;
        self.push_slot(LEVELS - 1, slot, e);
    }

    /// Appends `e` to the tail of a slot's list.
    fn push_slot(&mut self, lvl: usize, slot: usize, e: Entry<T>) {
        let node = Node { entry: e, next: NIL };
        let idx = if self.free == NIL {
            self.pool.push(node);
            u32::try_from(self.pool.len() - 1).expect("wheel pool capped at 2^32 - 1 entries")
        } else {
            let idx = self.free;
            self.free = self.pool[idx as usize].next;
            self.pool[idx as usize] = node;
            idx
        };
        let level = &mut self.levels[lvl];
        let list = &mut level.slots[slot];
        match list.tail {
            NIL => list.head = idx,
            tail => self.pool[tail as usize].next = idx,
        }
        list.tail = idx;
        level.occupied |= 1 << slot;
    }

    /// Moves a slot's entries onto `batch` in insertion order, returning
    /// their nodes to the free list.
    fn drain_slot(&mut self, lvl: usize, slot: usize, batch: &mut Vec<Entry<T>>) {
        let level = &mut self.levels[lvl];
        let mut idx = std::mem::replace(&mut level.slots[slot], EMPTY).head;
        level.occupied &= !(1u64 << slot);
        while idx != NIL {
            let node = &mut self.pool[idx as usize];
            batch.push(node.entry);
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = idx;
            idx = next;
        }
    }

    /// Advances the wheel to `now_ns`, pushing every token whose entry
    /// time has passed onto `expired` (in deterministic order). Entries
    /// whose blocks are reached but whose precise time is still in the
    /// future cascade toward finer levels.
    pub fn advance(&mut self, now_ns: u64, expired: &mut Vec<T>) {
        if !self.imminent.is_empty() {
            let len = &mut self.len;
            self.imminent.retain(|e| {
                if e.at <= now_ns {
                    expired.push(e.token);
                    *len -= 1;
                    false
                } else {
                    true
                }
            });
        }
        let target = now_ns >> TICK_SHIFT;
        if target <= self.now_tick {
            return;
        }
        let old = self.now_tick;
        self.now_tick = target;
        debug_assert!(self.scratch.is_empty());
        let mut batch = std::mem::take(&mut self.scratch);
        for lvl in 0..LEVELS {
            let shift = SLOT_BITS * lvl as u32;
            let old_high = old >> shift;
            let new_high = target >> shift;
            if old_high == new_high {
                break; // higher levels unchanged too
            }
            let occupied = self.levels[lvl].occupied;
            if occupied == 0 {
                continue;
            }
            if new_high - old_high >= 64 {
                // Jump past the whole level: drain every occupied slot.
                let mut occ = occupied;
                while occ != 0 {
                    let s = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    self.drain_slot(lvl, s, &mut batch);
                }
            } else {
                for h in (old_high + 1)..=new_high {
                    let s = (h & 63) as usize;
                    if self.levels[lvl].occupied & (1 << s) != 0 {
                        self.drain_slot(lvl, s, &mut batch);
                    }
                }
            }
        }
        for e in batch.drain(..) {
            if e.at <= now_ns {
                expired.push(e.token);
                self.len -= 1;
            } else {
                self.place(e);
            }
        }
        self.scratch = batch;
    }

    /// The earliest instant the wheel needs attention: never later than
    /// any scheduled entry, possibly up to one block-span early for
    /// entries still parked at coarse levels.
    pub fn next_expiry(&self) -> Option<u64> {
        let mut best: Option<u64> = self.imminent.iter().map(|e| e.at).min();
        for (lvl, level) in self.levels.iter().enumerate() {
            if level.occupied == 0 {
                continue;
            }
            let shift = SLOT_BITS * lvl as u32;
            let cur_high = self.now_tick >> shift;
            let cur_slot = (cur_high & 63) as u32;
            // Distance 1..=64 to the first occupied slot cyclically after
            // the current one — the next block boundary with entries.
            let rot = level.occupied.rotate_right((cur_slot + 1) & 63);
            let d = u64::from(rot.trailing_zeros()) + 1;
            let cand = ((cur_high + d) << shift) << TICK_SHIFT;
            best = Some(best.map_or(cand, |b| b.min(cand)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn drain(w: &mut TimerWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.advance(now, &mut out);
        out
    }

    /// Drives the wheel the way the stack does — wake at `next_expiry`,
    /// pop, repeat — and returns (pop_time, token) pairs.
    fn run_to(w: &mut TimerWheel<u32>, end: u64) -> Vec<(u64, u32)> {
        let mut pops = Vec::new();
        let mut now = 0;
        while let Some(next) = w.next_expiry() {
            if next > end {
                break;
            }
            assert!(next >= now, "next_expiry must not go backwards");
            now = next;
            let mut out = Vec::new();
            w.advance(now, &mut out);
            for t in out {
                pops.push((now, t));
            }
        }
        pops
    }

    #[test]
    fn pops_at_or_after_deadline_never_late_past_wake() {
        let mut w = TimerWheel::new();
        // Deadlines across all levels: 3 ms, 40 ms, 250 ms, 7 s, 130 s.
        let deadlines = [3 * MS, 40 * MS, 250 * MS, 7_000 * MS, 130_000 * MS];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u32);
        }
        let pops = run_to(&mut w, 200_000 * MS);
        assert_eq!(pops.len(), deadlines.len());
        for (popped_at, tok) in pops {
            let want = deadlines[tok as usize];
            assert!(popped_at >= want, "token {tok} popped early: {popped_at} < {want}");
            // Driven at next_expiry granularity the pop is exact: the
            // conservative wake lands at/before the deadline and the
            // imminent list carries the precise time.
            assert_eq!(popped_at, want, "token {tok} popped late");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn next_expiry_is_conservative() {
        let mut w = TimerWheel::new();
        w.schedule(41 * MS + 12345, 7);
        let e = w.next_expiry().expect("scheduled");
        assert!(e <= 41 * MS + 12345);
        // Within one level-0 tick.
        assert!(41 * MS + 12345 - e < (1 << TICK_SHIFT));
    }

    #[test]
    fn time_jump_pops_everything_due() {
        let mut w = TimerWheel::new();
        w.schedule(40 * MS, 1);
        w.schedule(200 * MS, 2);
        w.schedule(61_000 * MS, 3);
        // One giant leap (the TIME_WAIT pattern in tests: now += 61 s).
        let out = drain(&mut w, 61_000 * MS);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(w.is_empty());
        assert_eq!(w.next_expiry(), None);
    }

    #[test]
    fn same_slot_order_is_insertion_order() {
        let mut w = TimerWheel::new();
        w.schedule(10 * MS + 5, 1);
        w.schedule(10 * MS + 1, 2); // earlier time, later insert, same tick
        let out = drain(&mut w, 11 * MS);
        assert_eq!(out, vec![1, 2], "same-slot entries pop in insertion order");
    }

    #[test]
    fn past_deadlines_pop_immediately() {
        let mut w = TimerWheel::new();
        let _ = drain(&mut w, 500 * MS); // move the wheel forward
        w.schedule(100 * MS, 9); // already past
        assert_eq!(w.next_expiry(), Some(100 * MS));
        let out = drain(&mut w, 500 * MS);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn beyond_horizon_parks_and_still_pops() {
        let mut w = TimerWheel::new();
        let far = 20 * 3600 * 1000 * MS; // 20 h, beyond the top level span
        w.schedule(far, 42);
        assert!(w.next_expiry().expect("parked") <= far);
        let pops = run_to(&mut w, far + MS);
        assert_eq!(pops, vec![(far, 42)]);
    }

    #[test]
    fn stale_tokens_are_the_callers_problem() {
        // Lazy cancellation: two entries for one token both pop.
        let mut w = TimerWheel::new();
        w.schedule(5 * MS, 1);
        w.schedule(9 * MS, 1);
        assert_eq!(w.len(), 2);
        let out = drain(&mut w, 10 * MS);
        assert_eq!(out, vec![1, 1]);
    }
}
