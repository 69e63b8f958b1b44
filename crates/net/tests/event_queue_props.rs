//! Queue-ordering equivalence: the hierarchical timing wheel against the
//! pre-wheel binary-heap queue (kept below in `reference` as the
//! oracle). Random `(time, lane)` schedules — spread across granule and
//! wheel-level boundaries — interleaved with pops, peeks, and handle
//! cancellations must produce byte-identical pop sequences; this is the
//! engine's determinism contract (`(time, lane, seq)` order, exactly)
//! stated as a property.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use proptest::prelude::*;
use reference::HeapQueue;
use speakup_net::event::EventQueue;
use speakup_net::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_pops_in_heap_order_under_cancellation(
        ops in proptest::collection::vec(
            // (raw time, lane, op selector, scale selector)
            (0u64..4096, 0u64..6, any::<u8>(), 0u32..48),
            1..300,
        ),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut wheel_handles = Vec::new();
        let mut heap_handles = Vec::new();
        // Liveness model, indexed by payload (== handle index): pushes
        // are live until popped or cancelled. The wheel's `len()` must
        // track this exactly; the reference's `len()` is *known wrong*
        // after a cancel-after-fire (its tombstone leak undercounts), so
        // the oracle is only consulted for pop/peek order.
        let mut live = Vec::new();
        for &(t, lane, op, scale) in &ops {
            match op % 8 {
                // Push (the common case): times span sub-granule ties up
                // to multi-level distances (scale shifts cross the 1 µs
                // granule and every 64-slot level boundary).
                0..=4 => {
                    let payload = live.len() as u64;
                    let time = SimTime::from_nanos(t << (scale % 40));
                    wheel_handles.push(wheel.push_lane_handle(time, lane, payload));
                    heap_handles.push(heap.push_lane(time, lane, payload));
                    live.push(true);
                }
                // Pop one from each; full (time, payload) equality.
                5 => {
                    let got = wheel.pop();
                    prop_assert_eq!(got, heap.pop());
                    if let Some((_, p)) = got {
                        live[p as usize] = false;
                    }
                }
                // Peek must agree without disturbing order.
                6 => prop_assert_eq!(wheel.peek_time(), heap.peek_time()),
                // Cancel a random handle — sometimes live, sometimes
                // already fired (the wheel must treat stale handles as
                // free no-ops; the reference leaks a tombstone but pops
                // identically).
                _ => {
                    if !wheel_handles.is_empty() {
                        let k = (t as usize).wrapping_mul(31) % wheel_handles.len();
                        wheel.cancel(wheel_handles[k]);
                        heap.cancel(heap_handles[k]);
                        live[k] = false;
                    }
                }
            }
            prop_assert_eq!(wheel.len(), live.iter().filter(|&&l| l).count());
        }
        // Drain both completely; the tails must match event for event.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_accepts_schedules_below_the_cursor(
        pairs in proptest::collection::vec((0u64..1_000_000, 0u64..4), 2..120),
    ) {
        // Alternate pop-then-push so later pushes frequently aim at
        // granules the wheel has already drained past (the cross-shard
        // reinjection shape: a barrier delivers events timed inside a
        // window the local queue has finished searching).
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &(t, lane)) in pairs.iter().enumerate() {
            let time = SimTime::from_nanos(t);
            wheel.push_lane(time, lane, i);
            heap.push_lane(time, lane, i);
            if i % 2 == 1 {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

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
fn interleaved_pushes_pops_and_cancels_match_reference() {
    // A deterministic mixed workload against the reference heap (the
    // proptests above randomize this).
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut wheel_handles = Vec::new();
    let mut heap_handles = Vec::new();
    let mut next_rand = xorshift(0x9e3779b97f4a7c15);
    for i in 0..50_000u64 {
        let r = next_rand();
        let t = SimTime::from_nanos((r >> 16) % (1 << ((r % 36) + 8)));
        let lane = r % 5;
        match r % 10 {
            0..=5 => {
                wheel_handles.push(wheel.push_lane_handle(t, lane, i));
                heap_handles.push(heap.push_lane(t, lane, i));
            }
            6 | 7 => {
                assert_eq!(wheel.pop(), heap.pop(), "pop #{i} diverged");
            }
            8 => {
                assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            _ => {
                if !wheel_handles.is_empty() {
                    let k = (r as usize / 7) % wheel_handles.len();
                    wheel.cancel(wheel_handles[k]);
                    heap.cancel(heap_handles[k]);
                }
            }
        }
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn reference_heap_len_survives_cancel_after_fire() {
    // The oracle's preserved wart is a leaked tombstone, not a
    // panic: once cancel-after-fire makes `cancelled` outnumber the
    // heap, `len`/`is_empty` must saturate instead of underflowing.
    let mut q = HeapQueue::new();
    let h = q.push_lane(SimTime::from_secs(1), 0, "a");
    assert_eq!(q.pop().expect("invariant: event still pending").1, "a");
    q.cancel(h); // fired already: tombstone leaks
    assert_eq!(q.len(), 0);
    assert!(q.is_empty());
    q.push_lane(SimTime::from_secs(2), 0, "b");
    assert_eq!(q.len(), 0, "leaked tombstone undercounts (known wart)");
    assert_eq!(q.pop().expect("invariant: event still pending").1, "b");
}

mod reference {
    //! The pre-wheel event queue: a binary heap with tombstone
    //! cancellation, kept verbatim as this file's differential-testing
    //! oracle. Known wart, deliberately preserved: cancelling a handle
    //! whose event already fired leaves a tombstone in the `HashSet`
    //! forever.

    use speakup_net::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Handle to an event scheduled on a [`HeapQueue`].
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct HeapHandle(u64);

    struct Scheduled<E> {
        time: SimTime,
        lane: u64,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.lane.cmp(&self.lane))
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-wheel `(time, lane, seq)` binary-heap queue.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        cancelled: std::collections::HashSet<u64>,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// An empty queue.
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                cancelled: std::collections::HashSet::new(),
            }
        }

        /// Schedule `event` at `time` on a canonical `lane`.
        pub fn push_lane(&mut self, time: SimTime, lane: u64, event: E) -> HeapHandle {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled {
                time,
                lane,
                seq,
                event,
            });
            HeapHandle(seq)
        }

        /// Cancel a scheduled event (tombstone; leaks if already fired).
        pub fn cancel(&mut self, handle: HeapHandle) {
            self.cancelled.insert(handle.0);
        }

        /// Pop the earliest non-cancelled event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(s) = self.heap.pop() {
                if self.cancelled.remove(&s.seq) {
                    continue;
                }
                return Some((s.time, s.event));
            }
            None
        }

        /// The time of the earliest pending event.
        pub fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(s) = self.heap.peek() {
                if self.cancelled.contains(&s.seq) {
                    let s = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&s.seq);
                    continue;
                }
                return Some(s.time);
            }
            None
        }

        /// Number of pending (non-cancelled) events. Saturating: a
        /// cancel-after-fire tombstone can outnumber heap entries (the
        /// preserved wart), which must not underflow here.
        pub fn len(&self) -> usize {
            self.heap.len().saturating_sub(self.cancelled.len())
        }

        /// Whether nothing would fire.
        pub fn is_empty(&self) -> bool {
            self.heap.len() <= self.cancelled.len()
        }
    }
}
