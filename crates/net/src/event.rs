//! The simulator's event queue: a hierarchical timing wheel.
//!
//! ## Determinism contract
//!
//! Events pop in ascending `(time, lane, seq)` order. The *lane* is a
//! caller-chosen canonical key (the sharded engine uses the link, node,
//! or flow an event belongs to) that totally orders same-time events the
//! same way no matter which shard's queue they sit in — the property the
//! split-population engine needs for `--shards K`-invariant results. The
//! sequence number breaks remaining ties in insertion order, which makes
//! runs deterministic: two events scheduled for the same instant and lane
//! always fire in the order they were scheduled, regardless of queue
//! internals. The wheel preserves this order *exactly*;
//! `tests/event_queue_props.rs` checks it against the pre-wheel
//! binary-heap queue, kept there as a differential oracle.
//!
//! ## Structure
//!
//! Every filed event lives in one *node* of one arena (`Vec<Node>`):
//! `push` writes the payload into a node — the most recently freed one,
//! if any — and `pop` takes it out again. In between the payload never
//! moves; the wheel and the ready heap handle 4-byte node indices. So
//! the arena grows to the peak number of simultaneously filed events and
//! no further, and a queue in steady state allocates nothing.
//!
//! Time (nanoseconds) is bucketed into `2^13` ns ≈ 8 µs *granules*. The
//! wheel has [`LEVELS`] levels of [`SLOTS`] slots each; a slot at level
//! `l` spans `SLOTS^l` granules, so nine levels cover the full `u64`
//! nanosecond range with 64 slots (one occupancy bit-word) per level. A
//! slot is the head of an intrusive list linked both ways through
//! `Node::next` and `Node::prev`, so filing a node, or taking one out of
//! the middle of its list, is a few index writes. An event is filed at
//! the level of the highest bit in which its granule differs from the
//! *cursor* (the next granule to drain), which means a level's occupied
//! slots always lie ahead of the cursor — there is no wrap-around, and
//! finding the next occupied slot is a handful of `trailing_zeros` calls.
//! Advancing the cursor into a higher-level slot *cascades* it: its
//! nodes are re-filed, now landing at lower levels. Draining a level-0
//! slot puts one 32-byte [`Key`] per node into a small *ready* heap
//! ordered by the full `(time, lane, seq)` key, which merges
//! same-granule events (and late schedules aimed below the cursor) into
//! the canonical order; that heap alone decides pop order, so the order
//! of nodes within a slot's list is unobservable. Pushes and pops are
//! O(1) amortized — a bounded number of re-filings per event plus heap
//! operations on the granule-sized ready set — where the old heap paid
//! O(log pending) per operation.
//!
//! ## Cancellation
//!
//! An [`EventHandle`] names its node: the arena index plus the sequence
//! number the push stamped on it. [`EventQueue::cancel`] takes the
//! payload out and drops it there and then. A node still filed in the
//! wheel is unlinked from its slot and freed at once, so far-future
//! events that are cancelled (retransmission timers, mostly) hold no
//! memory until their time comes. Only a node whose key was already
//! drained into the ready heap stays behind, to be reaped when its key
//! tops the heap. Sequence numbers are never reused, so a handle whose
//! event fired finds either no payload or another sequence number, and
//! cancelling it is a free no-op: no side table, no tombstones.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;
use std::{iter, mem};

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Carries the event's arena node and the sequence number stamped on it
/// at push time. Sequence numbers are 64-bit and never reused, so a
/// stale handle can never alias whatever the node holds next (no ABA
/// mis-cancel, however long the run). They start at 1, which gives
/// `Option<EventHandle>` a niche: a flow's RTO record keeps one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle {
    idx: u32,
    seq: NonZeroU64,
}

/// Level-0 slots cover `2^GRANULE_BITS` nanoseconds (~8 µs). Widened
/// from `2^10` when profiling showed most of the pop cost was cursor
/// advancement over empty level-0 slots: an 8 µs granule keeps the
/// sub-granule `ready` heap small (same-granule events at fig2 densities
/// are a handful) while cutting slot scans per pop by 8×.
const GRANULE_BITS: u32 = 13;
/// log2 of the slots per level; one `u64` occupancy word per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask selecting one level's slot index out of a granule.
const SLOT_MASK: u64 = (1u64 << LEVEL_BITS) - 1;
/// Levels needed to cover all 64 − [`GRANULE_BITS`] granule bits.
const LEVELS: usize = 9;
/// End-of-list marker in slot heads, `Node::next` and the free list, and
/// the `Node::prev` of a node not linked into the wheel; never a node
/// index.
const NIL: u32 = u32::MAX;
/// The `Node::prev` of a slot's first node names its slot, as
/// `FIRST_HEAD + h` for the list headed at `heads[h]`. Node indices stay
/// below it (`push_lane_handle` keeps the arena shorter).
// lint: allow(cast) — LEVELS * SLOTS = 576, trivially fits u32
const FIRST_HEAD: u32 = NIL - (LEVELS * SLOTS) as u32;

/// Bit shift of level `level`'s slot-index field within a granule.
#[inline]
fn level_shift(level: usize) -> u32 {
    debug_assert!(level < LEVELS);
    // lint: allow(cast) — level < LEVELS = 9, trivially fits u32
    LEVEL_BITS * level as u32
}

/// Vec index for a 6-bit slot number extracted via [`SLOT_MASK`].
#[inline]
fn idx_of(idx: u64) -> usize {
    debug_assert!(idx <= SLOT_MASK);
    // lint: allow(cast) — masked to 6 bits, never truncates
    idx as usize
}

/// Arena position of node `idx`.
#[inline]
fn at(idx: u32) -> usize {
    // lint: allow(cast) — u32 -> usize widening, never truncates
    idx as usize
}

/// One arena cell: a filed event, or (payload gone) a cancelled event
/// awaiting its reap in the ready heap or a free cell on the free list.
/// `Option` costs the simulator's event enum nothing (niche), so a node
/// is a 32-byte header plus the payload — about one cache line.
struct Node<E> {
    time: SimTime,
    lane: u64,
    seq: u64,
    /// The next node in the same wheel slot, or the next free cell.
    next: u32,
    /// The previous node in the same wheel slot, the slot itself for its
    /// first node (see [`FIRST_HEAD`]), or [`NIL`] off the wheel.
    prev: u32,
    event: Option<E>,
}

impl<E> Node<E> {
    /// The ready-heap entry for this node, which sits at `idx`.
    fn key(&self, idx: u32) -> Key {
        Key {
            time: self.time,
            lane: self.lane,
            seq: self.seq,
            idx,
        }
    }
}

/// A ready-heap entry: the pop-order key of the node at `idx`.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    lane: u64,
    seq: u64,
    idx: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key is on top.
        // Sequences are unique, so `idx` never decides.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.lane.cmp(&self.lane))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue (hierarchical timing wheel).
pub struct EventQueue<E> {
    /// The arena: every filed event (live, or cancelled after its key was
    /// drained into `ready` and not yet reaped) and the free cells left by
    /// those that fired or were cancelled.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list.
    free: u32,
    /// `LEVELS × SLOTS` list heads, row-major by level.
    heads: [u32; LEVELS * SLOTS],
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// The next granule to drain; nodes at granules below it are keyed
    /// in `ready`, nodes at or above it are linked into the wheel.
    cursor: u64,
    /// Keys of drained (and below-cursor) nodes, popped in `(time, lane,
    /// seq)` order.
    ready: BinaryHeap<Key>,
    next_seq: u64,
    /// Live (pushed, not fired, not cancelled) events.
    pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
            occupancy: [0; LEVELS],
            cursor: 0,
            ready: BinaryHeap::new(),
            next_seq: 1,
            pending: 0,
        }
    }

    /// Schedule `event` to fire at `time` on lane 0. Returns a handle that
    /// can cancel it.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        self.push_lane_handle(time, 0, event)
    }

    /// Schedule `event` at `time` on a canonical `lane`, keeping no
    /// handle. Same-time events order by lane first, then insertion
    /// order within the lane.
    pub fn push_lane(&mut self, time: SimTime, lane: u64, event: E) {
        self.push_lane_handle(time, lane, event);
    }

    /// Like [`EventQueue::push_lane`], but returns a handle usable with
    /// [`EventQueue::cancel`].
    pub fn push_lane_handle(&mut self, time: SimTime, lane: u64, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        if self.free == NIL {
            // Grow the free list by one blank cell.
            self.free = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&idx| idx < FIRST_HEAD)
                .expect("event arena exhausted: ~2^32 events filed at once");
            self.nodes.push(Node {
                time: SimTime::ZERO,
                lane: 0,
                seq: 0,
                next: NIL,
                prev: NIL,
                event: None,
            });
        }
        // Field by field, so the payload is not staged on the stack.
        let idx = self.free;
        let cell = &mut self.nodes[at(idx)];
        self.free = cell.next;
        cell.time = time;
        cell.lane = lane;
        cell.seq = seq;
        cell.event = Some(event);
        self.file(idx);
        EventHandle {
            idx,
            seq: NonZeroU64::new(seq).expect("invariant: sequence numbers start at 1"),
        }
    }

    /// Cancel a previously scheduled event, dropping its payload now and,
    /// unless its key was already drained into the ready heap, freeing its
    /// node too. A no-op at no cost if it already fired or was cancelled:
    /// its node is empty, or recycled under a sequence number the handle
    /// lacks.
    pub fn cancel(&mut self, handle: EventHandle) {
        let Some(node) = self.nodes.get_mut(at(handle.idx)) else {
            return;
        };
        if node.seq != handle.seq.get() || node.event.take().is_none() {
            return;
        }
        self.pending -= 1;
        if node.prev != NIL {
            self.unlink(handle.idx);
            self.release(handle.idx);
        }
    }

    /// Pop the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let key = self.ready.pop()?;
        Some(self.fire(key))
    }

    /// The time of the earliest pending event, skipping cancelled ones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.ready.peek().map(|key| key.time)
    }

    /// Pop the earliest non-cancelled event if it fires strictly before
    /// `limit`. One settle serves both the bound check and the pop,
    /// where a `peek_time` + `pop` pairing settles twice per event —
    /// this is the shard event loop's hot call. Inlined there, the
    /// payload goes from the node straight to the loop's local; through a
    /// return slot the reload stalls on store forwarding (`fig2 --secs
    /// 120`: 4.82 s without the hint, 4.41 s with).
    #[inline]
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.settle();
        if self.ready.peek()?.time >= limit {
            return None;
        }
        let key = self.ready.pop().expect("peeked");
        Some(self.fire(key))
    }

    /// Whether nothing would fire.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// The most events ever filed at once: the arena's length, the queue's
    /// memory high-water. A cancel frees a node still in the wheel at
    /// once, so besides live events this counts only cancelled ones whose
    /// keys were already drained into the ready heap.
    pub fn peak_filed(&self) -> usize {
        self.nodes.len()
    }

    /// Link node `idx` into the wheel slot its time belongs to, or key
    /// it into `ready` if that granule has already been drained (late
    /// schedule below the cursor).
    fn file(&mut self, idx: u32) {
        let node = &mut self.nodes[at(idx)];
        let granule = node.time.as_nanos() >> GRANULE_BITS;
        if granule < self.cursor {
            node.prev = NIL;
            self.ready.push(node.key(idx));
            return;
        }
        // The level of the highest bit where the granule differs from the
        // cursor; equal-granule nodes land at level 0 in the cursor's
        // own (not yet drained) slot.
        let diff = granule ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            // lint: allow(cast) — u32 -> usize widening; value < LEVELS
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        debug_assert!(level < LEVELS);
        let slot = idx_of((granule >> level_shift(level)) & SLOT_MASK);
        let head = level * SLOTS + slot;
        let next = mem::replace(&mut self.heads[head], idx);
        // lint: allow(cast) — head < LEVELS * SLOTS = 576, fits u32
        node.prev = FIRST_HEAD + head as u32;
        node.next = next;
        if next != NIL {
            self.nodes[at(next)].prev = idx;
        }
        self.occupancy[level] |= 1 << slot;
    }

    /// Take node `idx`, which is linked into a wheel slot, out of it.
    fn unlink(&mut self, idx: u32) {
        let node = &self.nodes[at(idx)];
        let (prev, next) = (node.prev, node.next);
        if next != NIL {
            self.nodes[at(next)].prev = prev;
        }
        if prev < FIRST_HEAD {
            self.nodes[at(prev)].next = next;
        } else {
            let head = at(prev - FIRST_HEAD);
            self.heads[head] = next;
            if next == NIL {
                self.occupancy[head / SLOTS] &= !(1 << (head % SLOTS));
            }
        }
    }

    /// Empty slot `slot` of `level`, returning the head of its list.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        self.occupancy[level] &= !(1 << slot);
        mem::replace(&mut self.heads[level * SLOTS + slot], NIL)
    }

    /// Re-file every node of a list taken off a higher-level slot.
    fn refile(&mut self, mut idx: u32) {
        while idx != NIL {
            let node = &self.nodes[at(idx)];
            debug_assert!(node.time.as_nanos() >> GRANULE_BITS >= self.cursor);
            let next = node.next;
            self.file(idx);
            idx = next;
        }
    }

    /// Put node `idx` on the free list, returning the payload it held
    /// (none if it was cancelled).
    fn release(&mut self, idx: u32) -> Option<E> {
        let node = &mut self.nodes[at(idx)];
        node.next = mem::replace(&mut self.free, idx);
        node.event.take()
    }

    /// Fire the node `key` names; `key` was just popped off a settled
    /// `ready`, so the node still holds its payload.
    fn fire(&mut self, key: Key) -> (SimTime, E) {
        let event = self
            .release(key.idx)
            .expect("invariant: settle reaps cancelled keys off the top");
        self.pending -= 1;
        (key.time, event)
    }

    /// Establish the pop invariant: `ready`'s top is the global earliest
    /// live event (every wheel granule ahead of every ready key), with
    /// the keys of cancelled nodes reaped off the top.
    fn settle(&mut self) {
        loop {
            while let Some(top) = self.ready.peek() {
                if self.nodes[at(top.idx)].event.is_some() {
                    return;
                }
                let key = self.ready.pop().expect("peeked");
                self.release(key.idx);
            }
            if !self.drain_next_slot() {
                return;
            }
        }
    }

    /// Advance the cursor to the next occupied slot — cascading
    /// higher-level slots down as the cursor enters them — and drain one
    /// level-0 slot into `ready`. Returns `false` when the wheel is empty.
    fn drain_next_slot(&mut self) -> bool {
        loop {
            // The lowest occupied level holds the earliest granule: level
            // l nodes differ from the cursor only in granule bits
            // [6l, 6l+6), so they are strictly nearer than any higher
            // level's.
            let Some(level) = self.occupancy.iter().position(|&occ| occ != 0) else {
                return false;
            };
            let idx = u64::from(self.occupancy[level].trailing_zeros());
            debug_assert!(
                idx >= (self.cursor >> level_shift(level)) & SLOT_MASK,
                "occupied slot behind the cursor"
            );
            let mut head = self.take_slot(level, idx_of(idx));
            if level == 0 {
                let granule = (self.cursor & !SLOT_MASK) | idx;
                debug_assert!(granule >= self.cursor);
                self.cursor = granule + 1;
                // One `extend`: the heap appends every key, then restores
                // its order once — measurably cheaper than a sift per key.
                let nodes = &mut self.nodes;
                self.ready.extend(iter::from_fn(|| {
                    if head == NIL {
                        return None;
                    }
                    let (idx, node) = (head, &mut nodes[at(head)]);
                    head = node.next;
                    node.prev = NIL;
                    Some(node.key(idx))
                }));
                // If the increment carried across a block boundary, the
                // cursor just entered fresh higher-level slots; cascade
                // them now so new level-0 pushes into the entered block
                // cannot be drained ahead of the nodes they hold. (A
                // carry that crosses the level-l boundary zeroes every
                // bit below 6l, so the entered slots are checked in one
                // low-bits scan.)
                if self.cursor & SLOT_MASK == 0 {
                    self.cascade_entered_blocks();
                }
                return true;
            }
            // Cascade: move the cursor to the slot's base granule (all
            // lower levels are provably empty up to there) and re-file
            // the nodes, which now land at lower levels.
            let shift = level_shift(level);
            let span_mask = (1u64 << (shift + LEVEL_BITS)) - 1;
            let base = (self.cursor & !span_mask) | (idx << shift);
            debug_assert!(base >= self.cursor);
            self.cursor = base;
            self.refile(head);
        }
    }

    /// Cascade the slots the cursor sits at the base of, lowest level
    /// first. Called whenever the cursor lands on a block boundary, this
    /// maintains the invariant that the slot covering the cursor at every
    /// level `l ≥ 1` is empty — which is what makes "lowest occupied
    /// level holds the earliest granule" true and keeps level placement
    /// of later pushes consistent with nodes filed before the cursor
    /// entered the block.
    fn cascade_entered_blocks(&mut self) {
        for level in 1..LEVELS {
            let shift = level_shift(level);
            if self.cursor & ((1u64 << shift) - 1) != 0 {
                break;
            }
            let head = self.take_slot(level, idx_of((self.cursor >> shift) & SLOT_MASK));
            self.refile(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A seeded xorshift64 stream for the churn tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().expect("invariant: event still pending").1, i);
        }
    }

    #[test]
    fn lanes_order_same_time_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push_lane(t, 9, "lane9");
        q.push_lane(t, 2, "lane2-first");
        q.push_lane(t, 5, "lane5");
        q.push_lane(t, 2, "lane2-second");
        // Earlier time always wins over lane.
        q.push_lane(SimTime::from_secs(2), 0, "later");
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "lane2-first"
        );
        assert_eq!(
            q.pop().expect("invariant: event still pending").1,
            "lane2-second"
        );
        assert_eq!(q.pop().expect("invariant: event still pending").1, "lane5");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "lane9");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "later");
    }

    #[test]
    fn pop_before_respects_the_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        let h = q.push(SimTime::from_secs(2), "b");
        q.push(SimTime::from_secs(3), "c");
        q.cancel(h);
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None, "strict bound");
        assert_eq!(
            q.pop_before(SimTime::from_secs(2))
                .expect("invariant: \"a\" is below the bound")
                .1,
            "a"
        );
        // The cancelled "b" is skipped; "c" sits at the bound.
        assert_eq!(q.pop_before(SimTime::from_secs(3)), None);
        assert_eq!(
            q.pop_before(SimTime::MAX)
                .expect("invariant: \"c\" still pending")
                .1,
            "c"
        );
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.cancel(h1);
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        q.cancel(h);
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn len_accounts_for_cancelled() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::ZERO, 1);
        let _h2 = q.push(SimTime::ZERO + SimDuration::from_secs(1), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_when_all_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::ZERO, ());
        q.cancel(h);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_cross_every_level() {
        // One event per time scale, pushed in reverse order: exercises
        // placement at every wheel level and the cascade path down.
        let mut q = EventQueue::new();
        // 2^60 ns reaches granule bit 50 → the top wheel level (8).
        let times: Vec<u64> = (0..16).map(|i| 1u64 << (4 * i)).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push_lane(SimTime::from_nanos(t), 0, i);
        }
        for (i, &t) in times.iter().enumerate() {
            let (at, got) = q.pop().expect("invariant: event still pending");
            assert_eq!((at, got), (SimTime::from_nanos(t), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_granule_events_sort_by_full_key() {
        // Three events inside one ~1 µs granule: granularity must not
        // coarsen the (time, lane, seq) order.
        let mut q = EventQueue::new();
        q.push_lane(SimTime::from_nanos(900), 5, "b");
        q.push_lane(SimTime::from_nanos(1000), 0, "c");
        q.push_lane(SimTime::from_nanos(900), 1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "c");
    }

    #[test]
    fn late_push_below_cursor_still_orders() {
        // After draining past a granule, a push aimed below the cursor
        // must still pop (immediately, and in key order).
        let mut q = EventQueue::new();
        q.push_lane(SimTime::from_nanos(10_000_000), 0, "far");
        q.push_lane(SimTime::from_nanos(100), 0, "early");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "early");
        // Cursor is now past t=100ns; schedule below it.
        q.push_lane(SimTime::from_nanos(200), 7, "late-b");
        q.push_lane(SimTime::from_nanos(200), 3, "late-a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "late-a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "late-b");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "far");
    }

    #[test]
    fn key_and_node_sizes_are_pinned() {
        // Ready-heap traffic is per key and arena traffic per node; a
        // field that widens either silently costs every event of every
        // run. The header is 32 bytes (`prev` fills what was padding);
        // the last line is the simulator's case: `sim`'s tests pin its
        // event enum at 40 bytes with a niche for the `Option`.
        assert_eq!(mem::size_of::<Key>(), 32);
        assert_eq!(mem::size_of::<Option<EventHandle>>(), 16);
        assert_eq!(mem::size_of::<Node<u64>>(), 48);
        assert_eq!(mem::size_of::<Node<(NonZeroU64, [u64; 4])>>(), 72);
    }

    #[test]
    fn handle_and_handleless_pushes_share_one_sequence() {
        // Same (time, lane): insertion order decides, whether or not the
        // caller kept a handle.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push_lane(t, 3, "no-handle-first");
        let h = q.push_lane_handle(t, 3, "handle-second");
        q.push_lane(t, 3, "no-handle-third");
        for want in ["no-handle-first", "handle-second", "no-handle-third"] {
            assert_eq!(q.pop().expect("invariant: event still pending").1, want);
        }
        q.cancel(h); // stale
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_fired_handles_does_not_grow_bookkeeping() {
        // Regression for the pre-wheel tombstone leak: cancel N handles
        // after their events fired and assert the queue's bookkeeping
        // stays O(pending), not O(cancelled-ever).
        let mut q = EventQueue::new();
        let mut stale = Vec::new();
        for i in 0..10_000u64 {
            let h = q.push_lane_handle(SimTime::from_nanos(i * 50), 0, i);
            assert_eq!(q.pop().expect("invariant: event still pending").1, i);
            stale.push(h);
        }
        for h in stale {
            q.cancel(h); // all no-ops: every event already fired
        }
        assert!(q.is_empty());
        // One event was ever filed at a time, so one node suffices for
        // ever, and the stale cancels left it free.
        assert_eq!(q.nodes.len(), 1, "arena grew with fired handles");
        assert_eq!((q.free, q.nodes[0].next), (0, NIL));
        // And the recycled node still works for a live cancellation.
        let h = q.push_lane_handle(SimTime::from_secs(1), 0, 42);
        q.cancel(h);
        assert!(q.pop().is_none());
        assert_eq!(q.peak_filed(), 1);
    }

    #[test]
    fn stale_handle_does_not_cancel_the_nodes_next_tenant() {
        // ABA: "a" fires, its node is recycled by "b"; the handle to "a"
        // names the same node but must not cancel "b".
        let mut q = EventQueue::new();
        let stale = q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        let live = q.push(SimTime::from_secs(2), "b");
        assert_eq!(stale.idx, live.idx, "the push recycled the fired node");
        q.cancel(stale);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.cancel(h);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_reaches_events_already_drained_into_ready() {
        // "a", "b" and "c" share a granule, so popping "a" drains all
        // three into the ready heap; cancelling "b" (then on top) must
        // hide it from `peek_time` and `pop` alike.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        let b = q.push(SimTime::from_nanos(200), "b");
        q.push(SimTime::from_nanos(300), "c");
        assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
        assert_eq!(q.ready.len(), 2);
        q.cancel(b);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(300)));
        assert_eq!(q.pop().expect("invariant: event still pending").1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_drops_the_payload_at_once() {
        use std::rc::Rc;
        let payload = Rc::new(());
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), Rc::clone(&payload));
        let h = q.push(SimTime::from_secs(2), Rc::clone(&payload));
        assert_eq!(Rc::strong_count(&payload), 3);
        q.cancel(h);
        // Dropped by the cancel itself, which also gave the node back.
        assert_eq!(Rc::strong_count(&payload), 2);
        assert_eq!(q.peak_filed(), 2);
        q.push(SimTime::from_secs(3), Rc::clone(&payload));
        assert_eq!(q.peak_filed(), 2, "the next push reused the node");
    }

    #[test]
    fn cancelled_far_future_events_free_their_nodes_at_once() {
        // Timers armed a second ahead and cancelled long before they are
        // due, the way short flows leave their retransmission timers: the
        // arena must follow the live events, not every timer whose time
        // has not come yet. Cancels hit heads, middles and tails of slot
        // lists at several wheel levels.
        const LIVE: usize = 64;
        let mut q = EventQueue::new();
        let mut next_rand = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut now = SimTime::ZERO;
        let mut timers: Vec<EventHandle> = Vec::new();
        for step in 0..100_000u64 {
            let r = next_rand();
            let at = now + SimDuration::from_millis(1_000 + r % 500);
            timers.push(q.push_lane_handle(at, r % 5, step));
            if timers.len() > LIVE {
                let h = timers.swap_remove(next_rand() as usize % timers.len());
                q.cancel(h);
            }
            // A near event keeps the clock moving, so later timers file
            // into slots whose lists already hold earlier ones.
            q.push_lane(now + SimDuration::from_micros(20), 0, u64::MAX);
            let (at, ev) = q.pop().expect("invariant: the near event is pending");
            assert_eq!(ev, u64::MAX, "no timer is due yet");
            now = at;
        }
        assert!(now > SimTime::from_secs(1), "timers crossed the clock");
        assert_eq!(q.len(), LIVE);
        assert!(
            q.peak_filed() <= LIVE + 2,
            "arena holds {} nodes for {LIVE} live timers",
            q.peak_filed()
        );
        // What is left still pops in order.
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn memory_follows_pending_not_history() {
        // Regression for the wheel that kept every slot's peak capacity
        // (213 MB of it on fig2_xl, holding 21 MB of events): churn a
        // bounded population through every level 0–3 slot many times
        // over — timers 1 µs to 2 s ahead, 2 s = 2^18 granules — and
        // require the arena to stay within the peak number of nodes
        // filed at once, modelled from outside as live events plus
        // cancelled ones the clock has not passed yet.
        const HELD: usize = 512;
        let mut q = EventQueue::new();
        let mut next_rand = xorshift(0x2545_f491_4f6c_dd1d);
        let mut now = SimTime::ZERO;
        let mut handles = Vec::new();
        let mut unreaped: Vec<SimTime> = Vec::new();
        let mut peak = 0;
        for step in 0..1_000_000u64 {
            while q.len() < HELD {
                let r = next_rand();
                // Log-uniform over 2^10 .. 2^31 ns.
                let scale = 1u64 << (10 + r % 21);
                let at = now + SimDuration::from_nanos(scale + (r >> 32) % scale);
                handles.push((q.push_lane_handle(at, r % 7, step), at));
                peak = peak.max(q.len() + unreaped.len());
            }
            if step % 5 == 0 {
                let (h, at) = handles.swap_remove(next_rand() as usize % handles.len());
                let live = q.len();
                q.cancel(h); // stale for handles whose event fired
                if q.len() < live {
                    unreaped.push(at);
                }
            }
            now = q.pop().expect("invariant: HELD events pending").0;
            unreaped.retain(|&at| at >= now);
            if handles.len() > 4 * HELD {
                handles.retain(|&(_, at)| at >= now);
            }
        }
        assert!(now > SimTime::from_secs(60), "the clock crossed level 3");
        assert!(peak < 2 * HELD, "the model population stayed bounded");
        assert!(
            q.peak_filed() <= peak,
            "arena holds {} nodes, but at most {peak} were filed at once",
            q.peak_filed()
        );
    }
}
