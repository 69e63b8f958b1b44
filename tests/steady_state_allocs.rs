//! Steady-state allocation: once warm, the engine's per-event work
//! barely touches the allocator.
//!
//! * End to end, fig2 (f = 0.5, auction) and fig7 allocate fewer than
//!   one time per twenty events over the back half of a run. Flow opens
//!   and per-request metrics still allocate there, so the rate is small
//!   rather than zero.
//! * The hot path alone (timing wheel + `FlowSlab` flow and RTO tables,
//!   replaying a fig2-shaped schedule) allocates nothing at all over its
//!   second half: wheel slots are list heads into the queue's node
//!   arena, and the RTO table's `take` + `insert` recycles a cell
//!   through the slab's free list.
//!
//! Allocations are counted per thread by a counting global allocator,
//! so work on the test harness's other threads never leaks into a count.
//! A single-loop run stays on its calling thread.

use speakup_exp::runner::run;
use speakup_exp::scenario::{Mode, Scenario};
use speakup_exp::scenarios;
use speakup_net::event::{EventHandle, EventQueue};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::rng::Pcg32;
use speakup_net::sim::flow_id;
use speakup_net::slab::FlowSlab;
use speakup_net::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations (not bytes, not frees) made by the current
/// thread, and defers every operation to `System` untouched.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// The one sanctioned `unsafe` in the workspace (`speakup lint`
// allowlists this file): interposing on the global allocator means
// implementing the `unsafe` trait `GlobalAlloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Events and allocations of one single-loop run of `sc`.
fn counted_run(sc: &Scenario) -> (u64, u64) {
    let before = allocs();
    let report = run(sc);
    let allocated = allocs() - before;
    (report.shard_events.iter().sum(), allocated)
}

#[test]
fn fig2_and_fig7_steady_states_allocate_under_one_per_twenty_events() {
    for (name, sc) in [
        ("fig2", scenarios::fig2(0.5, Mode::Auction)),
        ("fig7", scenarios::fig7(false)),
    ] {
        // The half run's event stream is a prefix of the full run's
        // (same seeds, same schedule), so the difference cancels set-up,
        // warm-up growth and the shared first half: what remains is the
        // back half of the run.
        let (half_events, half_allocs) =
            counted_run(&sc.clone().duration(SimDuration::from_millis(2_500)));
        let (events, full_allocs) = counted_run(&sc.duration(SimDuration::from_secs(5)));
        assert!(half_allocs > 0, "{name}: the run left the counted thread");
        let steady_events = events - half_events;
        let steady_allocs = full_allocs.saturating_sub(half_allocs);
        let per_event = steady_allocs as f64 / steady_events as f64;
        assert!(
            per_event < 0.05,
            "{name} steady state allocates {per_event:.4} times/event \
             ({steady_allocs} allocations over {steady_events} events)"
        );
    }
}

/// Flows fig2 accumulates over a ~30 s run.
const FLOWS: u32 = 12_000;
/// Clients in a fig2 population; flow ids pack (node, per-node count).
const NODES: u32 = 50;

fn flow_of(i: u32) -> FlowId {
    flow_id(NodeId(i % NODES), i / NODES)
}

#[test]
fn wheel_and_slab_hot_path_allocates_nothing_once_warm() {
    // A fig2-shaped schedule around 1 000 queued events, 10^6 steps of
    // pop-one-push-one. Delays mix aggregation transmissions (~12 µs),
    // access propagation (~500 µs), access transmissions (~6 ms) and
    // application timers; 40 % of steps are acks that rearm their
    // flow's ~1 s RTO (cancel the armed timer, push a fresh one), so the
    // queue carries cancelled, unexpired timers as the engine's does.
    // A popped event touches its flow's record, about a `tcp::Sender`'s
    // size.
    const STEPS: u32 = 1_000_000;
    let mut rng = Pcg32::new(0x5ea4_bee5, 1);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut flows: FlowSlab<[u64; 22]> = FlowSlab::new(NODES as usize);
    for i in 0..FLOWS {
        flows.insert(flow_of(i), [0; 22]);
    }
    let mut rto: FlowSlab<EventHandle> = FlowSlab::new(NODES as usize);
    let mut now = SimTime::ZERO;
    let mut step = |pop: bool| {
        if pop {
            let (t, flow) = q.pop().expect("the schedule keeps events pending");
            now = t;
            let f = flows.get_mut(flow_of(flow)).expect("every flow is tabled");
            f[0] += t.as_nanos() & 0xff;
            f[1] += 1;
        }
        let flow = rng.below(FLOWS);
        let kind = rng.below(100);
        let (lo, hi) = match kind {
            0..=29 => (8_000, 16_000),
            30..=49 => (400_000, 600_000),
            50..=54 => (20_000_000, 80_000_000),
            55..=59 => (5_000_000, 7_000_000),
            _ => (900_000_000, 1_100_000_000),
        };
        let at = now + SimDuration::from_nanos(rng.range_u64(lo, hi));
        match kind {
            50..=54 => q.push_lane(at, (1 << 32) | u64::from(flow), flow),
            60.. => {
                let id = flow_of(flow);
                if let Some(h) = rto.take(id) {
                    q.cancel(h);
                }
                rto.insert(id, q.push_lane_handle(at, u64::from(flow), flow));
            }
            _ => q.push_lane(at, u64::from(flow), flow),
        }
    };
    // The first half is warm-up: by midway the node arena and ready heap
    // have reached their working size.
    (0..1_000).for_each(|_| step(false));
    (0..STEPS / 2).for_each(|_| step(true));
    let before = allocs();
    (0..STEPS / 2).for_each(|_| step(true));
    let steady_allocs = allocs() - before;
    assert_eq!(
        steady_allocs, 0,
        "the wheel + slab replay allocated over its steady-state half"
    );
}
