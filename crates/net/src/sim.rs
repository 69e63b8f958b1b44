//! The simulator: sharded world state, event loops, and the application
//! interface.
//!
//! One application ([`App`]) runs per node. Applications interact with the
//! world exclusively through [`Ctx`]: they open flows, write messages, set
//! timers, and abort flows. The world delivers callbacks — message arrival,
//! timer expiry, flow drained, flow aborted by peer — in deterministic
//! order.
//!
//! ## Sharded execution
//!
//! A simulation can be split across `K` shard event loops
//! ([`Simulator::new_sharded`]), each owning a subset of the nodes, the
//! links leaving them, an event queue and per-entity RNG streams. Shards
//! advance concurrently in *lookahead windows* (conservative
//! synchronization), one barrier per window.
//!
//! **Shards are islands.** Every link between two shards must be
//! [control-only](crate::link::LinkConfig::control_only), carrying
//! application control payloads ([`Ctx::send_control`]) and nothing else:
//! [`Simulator::new_sharded`] rejects a packet-capable cross-shard link,
//! and [`World::open_flow`] a flow routed over a control-only one. So
//! packets and flow records never leave their shard, and a control
//! payload is the only hand-off. The lookahead `d[j][i]` is the min-plus
//! closure of the least delay on a direct link from a `j`-owned node to
//! an `i`-owned one, and a node that sends payloads declares when it
//! next will: its *quiet floor* ([`Ctx::control_quiet_until`]), checked
//! on every send. Two things bound shard `i`'s window:
//!
//! * **A peer's next event or floor.** Peer `j`, with earliest pending
//!   event `next_j` and lowest floor `floor_j` (`∞` if none), hands `i`
//!   nothing before `max(next_j, floor_j) + d[j][i]`: a silent peer
//!   bounds nothing, a periodic publisher one window per period
//!   (`Lookahead::window_bound`).
//! * **`i`'s own sends.** A hand-off lowers the running limit to its
//!   arrival time ([`Ctx::send_control`]) until the next exchange, after
//!   which the peer's `next_j` accounts for it. A shard that sends
//!   nothing owes no barrier.
//!
//! **The exchange.** Before the barrier a shard appends its outboxes to
//! the peers' inboxes and publishes `next`, `floor` and, per
//! destination, the earliest payload it just handed over. After the
//! barrier it drains its own inbox and reads everyone's records: a
//! peer's effective `next_j` is the smaller of what `j` published and
//! what anybody handed `j` — the same for every reader, so all shards
//! agree on when the run is over without a second barrier. Records are
//! double-buffered by window parity, because a shard that leaves the
//! barrier first publishes (and appends) for the next window while a
//! slower one is still reading this one; what it appends early lies
//! beyond the slow shard's limit by the very bound above.
//!
//! ## Determinism — shard-count invariance
//!
//! Results are *byte-identical for any shard count*. Every node and link
//! draws from its own PCG-32 stream derived from `(seed, entity id)`, so
//! what an entity draws does not depend on how entities are grouped into
//! shards. The event queue orders same-time events by a canonical *lane*
//! (the link, node, flow or sender an event belongs to) before insertion
//! order, and each lane is written by one shard only, so per-lane order
//! is shard-count invariant and cross-lane ties resolve by lane id
//! everywhere. And a control payload falls due one path delay after it
//! is sent, whether or not it crosses shards.

use crate::event::{EventHandle, EventQueue};
use crate::fault::{FaultKind, FaultSchedule};
use crate::ids::Ident;
use crate::link::{DropSampler, Enqueue, Link, LinkStats};
use crate::packet::{FlowId, LinkId, NodeId, Packet, PacketKind, FLOW_NTH_BITS};
use crate::rng::Pcg32;
use crate::slab::FlowSlab;
use crate::tcp::{FlowAction, FlowConfig, Receiver, Sender};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Handle to a pending application timer, usable for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle(EventHandle);

/// A per-node application.
///
/// All methods have empty defaults so implementations override only what
/// they need. `Any` is a supertrait so harnesses can downcast applications
/// back out of the simulator to read their results; `Send` lets shard
/// event loops run on worker threads.
pub trait App: Any + Send {
    /// Called once when the simulation starts.
    fn start(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }
    /// A complete message (written with [`Ctx::send`]) arrived on `flow`.
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        let _ = (ctx, flow, tag);
    }
    /// A timer set with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let _ = (ctx, token);
    }
    /// Every byte written to `flow` has been acknowledged.
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        let _ = (ctx, flow);
    }
    /// The peer aborted `flow`. This call is the last look at it: this
    /// node's half ([`Ctx::sender`] if it opened the flow, else
    /// [`Ctx::receiver`]) still reads here and panics afterwards.
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        let _ = (ctx, flow);
    }
    /// A control payload sent with [`Ctx::send_control`] arrived from
    /// `src`. Control payloads travel at path propagation delay outside
    /// any flow — the lane replicated thinners sync bid digests over.
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
        let _ = (ctx, src, payload);
    }
    /// The node restarted after a crash (fault injection). Every timer,
    /// flow, and watch the node held is gone; the default keeps the old
    /// in-memory state, so apps that must re-initialize override this to
    /// reset themselves and re-arm their timers.
    fn on_restart(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }
}

/// A family of applications the simulator dispatches to without virtual
/// calls.
///
/// The engine is generic over an `AppSet`: typically an enum over a
/// harness's concrete [`App`] types (see `speakup-exp`'s `AppSlot`), so
/// every per-event callback is a jump on the enum discriminant into a
/// monomorphic — and inlinable — method, instead of a vtable hop.
/// `Box<dyn App>` also implements `AppSet` and is the default type
/// parameter: it is the open set that engine tests, the transport
/// ablations and the shard-panic tests install their small ad-hoc apps
/// through ([`Simulator::new`] + [`Simulator::add_app`]), at one vtable
/// hop per callback. Production harnesses name a closed enum instead.
///
/// The callback methods mirror [`App`] exactly; implementations forward
/// to the wrapped application. The remaining methods support
/// downcasting ([`Simulator::app`]) and dispatch-share diagnostics.
pub trait AppSet: Send + 'static {
    /// Forward of [`App::start`].
    fn start(&mut self, ctx: &mut Ctx);
    /// Forward of [`App::on_message`].
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64);
    /// Forward of [`App::on_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64);
    /// Forward of [`App::on_flow_drained`].
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId);
    /// Forward of [`App::on_flow_aborted`].
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId);
    /// Forward of [`App::on_control`].
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]);
    /// Forward of [`App::on_restart`].
    fn on_restart(&mut self, ctx: &mut Ctx);
    /// The wrapped application as `Any`, for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Mutable variant of [`AppSet::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Which variant this value is, indexing [`AppSet::variant_names`]
    /// (dispatch-share diagnostics).
    fn variant_index(&self) -> usize {
        0
    }
    /// Display names for the variant indices.
    fn variant_names() -> &'static [&'static str] {
        &["boxed"]
    }
}

impl AppSet for Box<dyn App> {
    fn start(&mut self, ctx: &mut Ctx) {
        (**self).start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        (**self).on_message(ctx, flow, tag)
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        (**self).on_timer(ctx, token)
    }
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        (**self).on_flow_drained(ctx, flow)
    }
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        (**self).on_flow_aborted(ctx, flow)
    }
    fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
        (**self).on_control(ctx, src, payload)
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        (**self).on_restart(ctx)
    }
    fn as_any(&self) -> &dyn Any {
        &**self as &dyn Any
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut **self as &mut dyn Any
    }
}

/// Compose the canonical [`FlowId`] for the `nth` flow opened by `node`.
///
/// Flow ids are allocated per opening node (high 12 bits node, low 20
/// bits per-node counter) so that the id a flow gets does not depend on
/// how the simulation is sharded. The split supports 4096 nodes and
/// ~1M flows per node — at an aggressive client's ~40 payment flows per
/// second that is over seven simulated hours before exhaustion.
pub fn flow_id(node: NodeId, nth: u32) -> FlowId {
    assert!(
        node.0 < (1 << (32 - FLOW_NTH_BITS)),
        "too many nodes for flow ids ({node})"
    );
    assert!(
        nth < (1 << FLOW_NTH_BITS),
        "flow id space exhausted (node {node}, flow #{nth})"
    );
    FlowId((node.0 << FLOW_NTH_BITS) | nth)
}

/// Whether `node` opened `id` — and so holds its sender half, where any
/// other endpoint holds the receiver half: ids carry their opener.
fn opened_by(node: NodeId, id: FlowId) -> bool {
    id.node_index() == node.index()
}

// Canonical lanes: a total order over same-time events that is identical
// in every sharding. Links sort before nodes before flow timers before
// flow control records. Control records get a lane class of their own,
// apart from the RTO events of the same flow, so an exact-time RTO/abort
// tie is ordered by lane class rather than by insertion order.
/// Vec index for a dense shard number.
#[inline]
fn shard_idx(shard: u32) -> usize {
    // lint: allow(cast) — u32 -> usize widening on 64-bit targets
    shard as usize
}

fn lane_link(l: LinkId) -> u64 {
    u64::from(l.0)
}
fn lane_node(n: NodeId) -> u64 {
    (1 << 32) | u64::from(n.0)
}
fn lane_flow(f: FlowId) -> u64 {
    (2 << 32) | u64::from(f.0)
}
fn lane_ctl(f: FlowId) -> u64 {
    (3 << 32) | u64::from(f.0)
}
// Application control payloads get their own lane class, keyed by the
// *source* node: replicated thinners all publish digests at the same
// epoch instant, so one receiver sees same-time deliveries from many
// senders — keying by source keeps each lane written by exactly one
// shard (per-lane order shard-invariant) while the lane id orders the
// cross-sender tie canonically.
fn lane_app_ctl(src: NodeId) -> u64 {
    (4 << 32) | u64::from(src.0)
}
// Fault events get two lane classes of their own (injected pre-run into
// the owning shard's queue). Links and nodes must not share a class: a
// link and a node with equal indices can be owned by different shards,
// and a lane written by two shards would break per-lane order invariance.
fn lane_fault_link(l: LinkId) -> u64 {
    (5 << 32) | u64::from(l.0)
}
fn lane_fault_node(n: NodeId) -> u64 {
    (6 << 32) | u64::from(n.0)
}

/// Lazily re-armed retransmission timer for one flow (see
/// [`TxHalf::rto`]): one sentinel per flow, cancelled at retire.
/// Invariant while armed: the flow's sentinel is filed at a time
/// `<= deadline`, so the deadline is never missed.
#[derive(Clone, Copy, Default)]
struct RtoTimer {
    /// The armed expiry; `None` when the timer is logically cancelled.
    deadline: Option<SimTime>,
    /// The flow's one outstanding wheel sentinel, if any: its time and
    /// the handle that takes it back out. A sentinel that outlives its
    /// deadline is harmless — popping it re-checks `deadline` — and
    /// leaving it filed avoids a cancel + push per re-arm.
    scheduled: Option<(SimTime, EventHandle)>,
}

/// What the source node's shard holds of a flow.
struct TxHalf {
    flow: Sender,
    /// Lazy retransmission timer: one sentinel per flow, cancelled at
    /// retire. Re-arming on every advancing ACK is the transport's
    /// behaviour; done against the wheel it would cost a cancel and a
    /// push per ACK. Instead the armed deadline lives here — in the
    /// record the ACK already fetched — and the wheel holds one sentinel
    /// per flow: a sentinel that pops before the real deadline re-files
    /// itself at the deadline, so `on_rto` still runs at exactly the
    /// armed time. Only an earlier deadline replaces the sentinel, and
    /// retiring the half takes it out of the wheel.
    rto: RtoTimer,
}

/// What the destination node's shard holds of a flow.
struct RxHalf {
    flow: Receiver,
    /// Delivery-progress tracking (see [`Ctx::watch_flow`]): the
    /// watcher's node plus the flow's dirty bit, set when its in-order
    /// delivered byte count advances and cleared by the watcher's
    /// [`Ctx::drain_progress`]. Naming the watcher keeps drains
    /// node-local: two watchers sharing a shard must not consume each
    /// other's progress, or co-located and split placements of the same
    /// topology would diverge.
    watch: Option<(NodeId, bool)>,
}

// RNG stream namespaces: every node and link derives its own stream from
// the run seed, independent of sharding.
const STREAM_NODE: u64 = 1 << 40;
const STREAM_LINK: u64 = 2 << 40;

enum Event {
    TxDone(LinkId),
    Arrive {
        node: NodeId,
        packet: Packet,
    },
    AppTimer {
        node: NodeId,
        token: u64,
        /// The node incarnation that armed the timer: a restart bumps the
        /// node's incarnation, so timers armed before a crash silently
        /// die instead of firing into the reborn app.
        incarnation: u32,
    },
    Rto(FlowId),
    /// Control record: `src` opened `id` toward `dst`; create the
    /// receiver half. Of the transport config the receiver needs only
    /// its ACK size, which rides inline: at 40 bytes a queue node stays
    /// within about one cache line.
    FlowOpen {
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        ack_bytes: u32,
    },
    /// Control record: the sender wrote a message ending at stream byte
    /// `end`, tagged `tag`.
    FlowBoundary {
        id: FlowId,
        end: u64,
        tag: u64,
    },
    /// Control record: the peer aborted; silence the local half and
    /// notify its application. `at_receiver` selects which half.
    FlowAbort {
        id: FlowId,
        at_receiver: bool,
    },
    /// An application control payload ([`Ctx::send_control`]) reaching
    /// `node` from `src`. Boxed: control sends are rare (epoch cadence),
    /// and an inline payload would grow every queue node, whatever it
    /// holds, well past one cache line.
    AppControl {
        node: NodeId,
        src: NodeId,
        payload: Box<[u64]>,
    },
    /// Injected link fault boundary: the link goes down (`up == false`,
    /// flushing its queue and dooming any packet in flight) or recovers.
    LinkFault {
        link: LinkId,
        up: bool,
    },
    /// Injected node fault boundary: the node crashes (`up == false`,
    /// aborting its flows and killing its timers and watches) or
    /// restarts (bumping its incarnation and firing [`App::on_restart`]).
    NodeFault {
        node: NodeId,
        up: bool,
    },
}

/// A control payload from `src` due at `dst` at `time`. One bound for
/// another shard waits in a per-destination outbox lane for the next
/// window barrier, so a whole batch moves under one lock with no
/// per-record routing.
struct Remote {
    time: SimTime,
    src: NodeId,
    dst: NodeId,
    payload: Box<[u64]>,
}

impl Remote {
    /// File the payload in `dst`'s queue, on its sender's lane: the one
    /// place a payload becomes an event, on its own shard or another.
    fn file(self, queue: &mut EventQueue<Event>) {
        let event = Event::AppControl {
            node: self.dst,
            src: self.src,
            payload: self.payload,
        };
        queue.push_lane(self.time, lane_app_ctl(self.src), event);
    }
}

enum Notify {
    Message {
        node: NodeId,
        flow: FlowId,
        tag: u64,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Drained {
        node: NodeId,
        flow: FlowId,
    },
    Aborted {
        node: NodeId,
        flow: FlowId,
    },
    Control {
        node: NodeId,
        src: NodeId,
        payload: Box<[u64]>,
    },
    Restarted {
        node: NodeId,
    },
}

/// Everything one shard owns of the simulated world: its nodes' state,
/// the links leaving them, the flow halves anchored on them, an event
/// queue, and per-entity RNG streams.
pub struct World {
    shard: u32,
    now: SimTime,
    queue: EventQueue<Event>,
    topology: Arc<Topology>,
    assignment: Arc<Vec<u32>>,
    /// Links owned by this shard (those whose source node it owns),
    /// indexed by [`LinkId`].
    links: Vec<Option<Link>>,
    /// Fault-injection samplers, populated only for owned links with a
    /// nonzero drop probability: loss-free links never touch an RNG on
    /// the packet path. Each sampler consumes its link's dedicated PCG
    /// stream exactly as per-packet Bernoulli rolls would, so the drop
    /// sequence — and every golden — is unchanged.
    link_faults: Vec<Option<DropSampler>>,
    node_rngs: Vec<Option<Pcg32>>,
    /// Per-node crash nesting depth (fault injection): a node is down
    /// while its depth is positive. A depth rather than a flag so two
    /// overlapping scheduled outages compose sanely — the node is up
    /// again only when every outage has ended.
    crash_depth: Vec<u32>,
    /// Per-node restart counter: bumped when a node comes back up, so
    /// timers armed before the crash (stamped with the old incarnation)
    /// die silently instead of firing into the reborn app.
    incarnations: Vec<u32>,
    /// Flows opened per node, for canonical id allocation. Deliberately
    /// preserved across crashes: flow ids are never reused, so a reborn
    /// node's flows cannot alias a pre-crash peer half.
    flow_counts: Vec<u32>,
    /// Sender halves of the *live* flows whose source this shard owns,
    /// in a dense slab indexed by the packed [`FlowId`] (O(1) per-packet
    /// lookup). A half is retired — a tombstone in the slab, its memory
    /// reused — the moment its endpoint is done with it: when its own
    /// application aborts it, or when the peer's abort has been reported
    /// to the application. Whatever still arrives for it is dropped.
    tx: FlowSlab<TxHalf>,
    /// Receiver halves of the live flows whose destination this shard
    /// owns; retired like the sender halves.
    rx: FlowSlab<RxHalf>,
    /// Watched flows that delivered new bytes since the last drain
    /// (each queued at most once — the dirty bit dedups).
    progress_rx: Vec<FlowId>,
    notifies: VecDeque<Notify>,
    actions_scratch: Vec<FlowAction>,
    /// Control payloads bound for other shards, one lane per destination
    /// shard, exchanged wholesale at the next barrier. The lanes live for
    /// the whole run and keep their capacity, so the steady-state
    /// exchange path allocates nothing.
    outboxes: Vec<Vec<Remote>>,
    cross_shard_events: u64,
    /// Where the running window ends (exclusive). The shard loop opens
    /// each window at the bound its peers impose; [`Ctx::send_control`]
    /// lowers it whenever this shard hands a peer a payload.
    limit: SimTime,
    /// Events this shard's loop has handled (load-balance diagnostics).
    events_processed: u64,
    /// Control quiet floors declared by this shard's nodes
    /// ([`Ctx::control_quiet_until`]): before its floor a node sends no
    /// control payload. A handful of entries (the replicas), so a scan.
    control_floors: Vec<(NodeId, SimTime)>,
    /// Set while [`App::start`] runs: the only place a node may declare
    /// its *first* floor, because only then has no peer shard's window
    /// been opened on the assumption that the node has none.
    starting: bool,
    /// Total packets dropped on this shard (overflow + fault).
    pub total_drops: u64,
}

impl World {
    fn new(
        topology: Arc<Topology>,
        assignment: Arc<Vec<u32>>,
        shard: u32,
        num_shards: usize,
        seed: u64,
    ) -> Self {
        let n = topology.node_slots();
        let mut links = Vec::with_capacity(topology.edges().len());
        let mut link_faults = Vec::with_capacity(topology.edges().len());
        for (i, e) in topology.edges().iter().enumerate() {
            if assignment[e.from.index()] == shard {
                links.push(Some(Link::new(e.cfg, e.to)));
                link_faults.push((e.cfg.drop_prob > 0.0).then(|| {
                    DropSampler::new(
                        Pcg32::new(
                            seed,
                            STREAM_LINK | u64::try_from(i).expect("invariant: link index fits u64"),
                        ),
                        e.cfg.drop_prob,
                    )
                }));
            } else {
                links.push(None);
                link_faults.push(None);
            }
        }
        let node_rngs = (0..n)
            .map(|i| {
                (assignment[i] == shard).then(|| {
                    Pcg32::new(
                        seed,
                        STREAM_NODE | u64::try_from(i).expect("invariant: node index fits u64"),
                    )
                })
            })
            .collect();
        World {
            shard,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            topology,
            assignment,
            links,
            link_faults,
            node_rngs,
            crash_depth: vec![0; n],
            incarnations: vec![0; n],
            flow_counts: vec![0; n],
            tx: FlowSlab::new(n),
            rx: FlowSlab::new(n),
            progress_rx: Vec::new(),
            notifies: VecDeque::new(),
            actions_scratch: Vec::new(),
            outboxes: (0..num_shards).map(|_| Vec::new()).collect(),
            cross_shard_events: 0,
            limit: SimTime::MAX,
            events_processed: 0,
            control_floors: Vec::new(),
            starting: false,
            total_drops: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sender half of a live flow (must be anchored on this shard):
    /// window state, acked/written byte counts, retransmission stats.
    /// Panics once the half is retired (aborted by either end).
    pub fn sender(&self, id: FlowId) -> &Sender {
        match self.tx.get(id) {
            Some(h) => &h.flow,
            None if self.tx.is_retired(id) => panic!("sender half of {id} is retired"),
            None => panic!("sender half of {id} not on this shard"),
        }
    }

    /// The receiver half of a live flow (must be anchored on this
    /// shard): delivered byte counts and reassembly state. Panics once
    /// the half is retired (aborted by either end).
    pub fn receiver(&self, id: FlowId) -> &Receiver {
        match self.rx.get(id) {
            Some(h) => &h.flow,
            None if self.rx.is_retired(id) => panic!("receiver half of {id} is retired"),
            None => panic!("receiver half of {id} not on this shard"),
        }
    }

    /// Number of flows opened by nodes on this shard, over the whole
    /// run (live or not).
    pub fn flow_count(&self) -> usize {
        // Only an owned node's counter ever moves.
        // lint: allow(cast) — u32 -> usize widening on 64-bit targets
        self.flow_counts.iter().map(|&n| n as usize).sum()
    }

    /// The most flow halves (sender plus receiver) this shard held at
    /// once: the flow tables' memory high-water mark, in halves.
    pub fn flow_halves_peak(&self) -> usize {
        self.tx.peak_len() + self.rx.peak_len()
    }

    /// Statistics for a link owned by this shard.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.links[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("link {id} not owned by this shard"))
            .stats
    }

    /// The topology the world was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn shard_of(&self, node: NodeId) -> u32 {
        self.assignment[node.index()]
    }

    /// The earliest any node of this shard may next send a control
    /// payload, in nanoseconds: the minimum declared floor (`u64::MAX`
    /// when no node declared one, so none may send at all).
    fn control_floor_min(&self) -> u64 {
        self.control_floors
            .iter()
            .map(|&(_, t)| t.as_nanos())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Whether that half of `id` was on this shard and has been retired:
    /// what tells a straggler for a finished flow, which is dropped,
    /// from an id this shard never saw, which is a bug.
    fn half_is_retired(&self, id: FlowId, at_receiver: bool) -> bool {
        if at_receiver {
            self.rx.is_retired(id)
        } else {
            self.tx.is_retired(id)
        }
    }

    /// Queue a packet or flow record for `node`, which this shard owns:
    /// only control payloads cross shards (module docs, "Sharded
    /// execution"), and only [`Ctx::send_control`] fills an outbox.
    fn push_local(&mut self, time: SimTime, lane: u64, node: NodeId, event: Event) {
        debug_assert_eq!(
            self.shard_of(node),
            self.shard,
            "a packet or flow record for {node} left its shard"
        );
        self.queue.push_lane(time, lane, event);
    }

    /// The latency of flow records and control payloads: the path's
    /// propagation delay. It is at least the lookahead whenever the path
    /// crosses shards, and strictly less than any data byte's arrival
    /// (which also pays transmission time), so flow records always
    /// precede the data they describe.
    fn ctl_delay(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.topology
            .path_delay(from, to)
            .unwrap_or_else(|| panic!("no path {from} -> {to}"))
    }

    fn open_flow(&mut self, src: NodeId, dst: NodeId, cfg: FlowConfig) -> FlowId {
        assert!(
            self.topology.reachable(src, dst) && self.topology.reachable(dst, src),
            "flow endpoints must be mutually reachable ({src} <-> {dst})"
        );
        assert_ne!(src, dst, "flows must connect distinct nodes");
        // Every flow record and packet of the flow then travels a
        // packet-capable route, so control-only links see nothing but
        // `Ctx::send_control` payloads and the flow stays on its shard.
        assert!(
            self.topology.carries_packets(src, dst) && self.topology.carries_packets(dst, src),
            "flow route {src} <-> {dst} crosses a control-only link"
        );
        let nth = self.flow_counts[src.index()];
        self.flow_counts[src.index()] = nth + 1;
        let id = flow_id(src, nth);
        self.tx.insert(
            id,
            TxHalf {
                flow: Sender::new(src, dst, cfg),
                rto: RtoTimer::default(),
            },
        );
        let at = self.now + self.ctl_delay(src, dst);
        self.push_local(
            at,
            lane_ctl(id),
            dst,
            Event::FlowOpen {
                id,
                src,
                dst,
                ack_bytes: cfg.ack_bytes,
            },
        );
        id
    }

    fn route_packet(&mut self, at: NodeId, packet: Packet) {
        let lid = self
            .topology
            .next_hop(at, packet.dst)
            .unwrap_or_else(|| panic!("no route {at} -> {}", packet.dst));
        // A downed link never consults its loss sampler: the batched
        // Bernoulli stream must consume exactly one roll per *offered*
        // packet regardless of the fault schedule, so loss-free goldens
        // stay byte-identical when flaps are layered on.
        let up = self.links[lid.index()]
            .as_ref()
            .expect("routing over a link this shard does not own")
            .is_up();
        // Loss-free links (the overwhelmingly common case) skip loss
        // sampling entirely; lossy links consult their batched sampler.
        let dropped = if up {
            match self.link_faults[lid.index()].as_mut() {
                Some(sampler) => sampler.offer(),
                None => false,
            }
        } else {
            false
        };
        let link = self.links[lid.index()]
            .as_mut()
            .expect("routing over a link this shard does not own");
        // The roll is pre-decided: 0.0 forces the drop branch, 1.0 can
        // never drop (drop_prob < 1 is enforced at construction).
        match link.enqueue(packet, if dropped { 0.0 } else { 1.0 }) {
            Enqueue::StartTx(tx) => {
                self.queue
                    .push_lane(self.now + tx, lane_link(lid), Event::TxDone(lid));
            }
            Enqueue::Queued => {}
            Enqueue::Dropped => {
                self.total_drops += 1;
            }
        }
    }

    /// Carry out the batch in `actions_scratch`, which one half of `fid`
    /// just produced. The caller knows which: the sender asks for data,
    /// timers and drain notices, the receiver for ACKs and deliveries.
    /// `overhead` is that half's wire cost — the header bytes added to
    /// each data segment, or the size of an ACK.
    fn apply_flow_actions(&mut self, fid: FlowId, src: NodeId, dst: NodeId, overhead: u32) {
        if self.actions_scratch.is_empty() {
            return;
        }
        let actions = std::mem::take(&mut self.actions_scratch);
        for action in &actions {
            match *action {
                FlowAction::SendData { offset, len } => {
                    let p = Packet {
                        flow: fid,
                        src,
                        dst,
                        size: len + overhead,
                        kind: PacketKind::Data { offset, len },
                    };
                    self.route_packet(src, p);
                }
                FlowAction::SendAck { cum } => {
                    let p = Packet {
                        flow: fid,
                        src: dst,
                        dst: src,
                        size: overhead,
                        kind: PacketKind::Ack { cum },
                    };
                    self.route_packet(dst, p);
                }
                FlowAction::ArmRto(after) => {
                    let deadline = self.now + after;
                    let t = &mut self
                        .tx
                        .get_mut(fid)
                        .expect("invariant: only a live sender half arms its RTO")
                        .rto;
                    t.deadline = Some(deadline);
                    // A sentinel at or before the deadline will re-file
                    // itself when it pops; only a later (or missing) one
                    // needs replacing.
                    if t.scheduled.is_none_or(|(s, _)| s > deadline) {
                        if let Some((_, stale)) = t.scheduled {
                            self.queue.cancel(stale);
                        }
                        let h =
                            self.queue
                                .push_lane_handle(deadline, lane_flow(fid), Event::Rto(fid));
                        t.scheduled = Some((deadline, h));
                    }
                }
                FlowAction::CancelRto => {
                    if let Some(h) = self.tx.get_mut(fid) {
                        h.rto.deadline = None;
                    }
                }
                FlowAction::Deliver { tag } => {
                    self.notifies.push_back(Notify::Message {
                        node: dst,
                        flow: fid,
                        tag,
                    });
                }
                FlowAction::Drained => {
                    self.notifies.push_back(Notify::Drained {
                        node: src,
                        flow: fid,
                    });
                }
            }
        }
        // Give the (now empty) buffer back for reuse.
        self.actions_scratch = actions;
        self.actions_scratch.clear();
    }

    /// `node`'s application walks away from `id`: tell the peer, then
    /// retire the local half — nothing reads it again, and whatever is
    /// still in flight toward it is dropped on arrival. A no-op when the
    /// half is already gone or the peer's abort has just been applied.
    fn abort_flow_from(&mut self, node: NodeId, id: FlowId) {
        let at_sender = opened_by(node, id);
        let half = if at_sender {
            self.tx.get(id).map(|h| (h.flow.dst, h.flow.is_aborted()))
        } else {
            self.rx.get(id).map(|h| {
                assert_eq!(h.flow.dst, node, "abort from a non-endpoint");
                (h.flow.src, h.flow.is_aborted())
            })
        };
        let Some((peer, aborted)) = half else {
            assert!(
                self.half_is_retired(id, !at_sender),
                "abort from a non-endpoint"
            );
            return;
        };
        if aborted {
            return;
        }
        let at = self.now + self.ctl_delay(node, peer);
        self.push_local(
            at,
            lane_ctl(id),
            peer,
            Event::FlowAbort {
                id,
                at_receiver: at_sender,
            },
        );
        self.retire_half(id, !at_sender);
    }

    /// Drop one half of `id` for good (see the `tx` field), taking a
    /// sender's RTO sentinel out of the wheel with it.
    fn retire_half(&mut self, id: FlowId, at_receiver: bool) {
        let gone = if at_receiver {
            self.rx.retire(id).is_some()
        } else {
            let half = self.tx.retire(id);
            if let Some((_, sentinel)) = half.as_ref().and_then(|h| h.rto.scheduled) {
                self.queue.cancel(sentinel);
            }
            half.is_some()
        };
        debug_assert!(gone, "retiring a half of {id} that is not live");
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::TxDone(lid) => {
                let link = self.links[lid.index()].as_mut().expect("owned link");
                let delay = link.cfg.delay;
                let dst = link.dst;
                let (packet, next) = link.tx_done();
                if let Some(tx) = next {
                    self.queue
                        .push_lane(self.now + tx, lane_link(lid), Event::TxDone(lid));
                }
                // A flap mid-transmission dooms the packet on the wire:
                // it finishes serializing (the link stays busy) but never
                // arrives. The queue behind it was flushed at flap time,
                // though the link may have re-filled if it already came
                // back up — hence the unconditional next-TxDone above.
                if self.links[lid.index()]
                    .as_mut()
                    .expect("owned link")
                    .take_doomed()
                {
                    self.total_drops += 1;
                } else {
                    self.push_local(
                        self.now + delay,
                        lane_link(lid),
                        dst,
                        Event::Arrive { node: dst, packet },
                    );
                }
            }
            Event::Arrive { node, packet } => {
                if self.crash_depth[node.index()] > 0 {
                    // A crashed node neither terminates nor forwards.
                    self.total_drops += 1;
                } else if node == packet.dst {
                    self.receive(packet);
                } else {
                    self.route_packet(node, packet);
                }
            }
            Event::AppTimer {
                node,
                token,
                incarnation,
            } => {
                // Timers die with their incarnation: armed pre-crash →
                // stale stamp; armed pre-crash but popping mid-outage →
                // crash depth. Either way, silence.
                if incarnation == self.incarnations[node.index()]
                    && self.crash_depth[node.index()] == 0
                {
                    self.notifies.push_back(Notify::Timer { node, token });
                }
            }
            Event::Rto(fid) => {
                // Sentinel pop: fire only if it reached the armed
                // deadline; re-file it there otherwise (lazy re-arm).
                let h = self
                    .tx
                    .get_mut(fid)
                    .expect("invariant: retiring a sender half cancels its RTO sentinel");
                h.rto.scheduled = None;
                match h.rto.deadline {
                    Some(d) if d <= self.now => {
                        h.rto.deadline = None;
                        h.flow.on_rto(self.now, &mut self.actions_scratch);
                        let (src, dst, header) = (h.flow.src, h.flow.dst, h.flow.header_bytes());
                        self.apply_flow_actions(fid, src, dst, header);
                    }
                    Some(d) => {
                        let sentinel =
                            self.queue
                                .push_lane_handle(d, lane_flow(fid), Event::Rto(fid));
                        h.rto.scheduled = Some((d, sentinel));
                    }
                    None => {}
                }
            }
            Event::FlowOpen {
                id,
                src,
                dst,
                ack_bytes,
            } => {
                self.rx.insert(
                    id,
                    RxHalf {
                        flow: Receiver::new(src, dst, ack_bytes),
                        watch: None,
                    },
                );
            }
            Event::FlowBoundary { id, end, tag } => match self.rx.get_mut(id) {
                Some(h) => h.flow.note_boundary(end, tag),
                None => assert!(self.rx.is_retired(id), "boundary for an unopened flow"),
            },
            Event::FlowAbort { id, at_receiver } => {
                let node = if at_receiver {
                    self.rx.get_mut(id).map(|h| {
                        h.flow.abort();
                        h.flow.dst
                    })
                } else if let Some(h) = self.tx.get_mut(id) {
                    h.flow.abort(&mut self.actions_scratch);
                    let (src, dst, header) = (h.flow.src, h.flow.dst, h.flow.header_bytes());
                    self.apply_flow_actions(id, src, dst, header);
                    Some(src)
                } else {
                    None
                };
                let Some(node) = node else {
                    // Both ends aborted concurrently; nothing to report.
                    assert!(
                        self.half_is_retired(id, at_receiver),
                        "abort for a foreign flow"
                    );
                    return;
                };
                // The half stays readable for `on_flow_aborted`; the
                // dispatcher retires it once the callback has returned.
                self.notifies.push_back(Notify::Aborted { node, flow: id });
            }
            Event::AppControl { node, src, payload } => {
                if self.crash_depth[node.index()] == 0 {
                    self.notifies
                        .push_back(Notify::Control { node, src, payload });
                }
            }
            Event::LinkFault { link, up } => {
                let l = self.links[link.index()]
                    .as_mut()
                    .expect("fault for a link this shard does not own");
                if up {
                    l.bring_up();
                } else {
                    self.total_drops += l.take_down();
                }
            }
            Event::NodeFault { node, up } => {
                let i = node.index();
                if up {
                    assert!(self.crash_depth[i] > 0, "restart of a node that is up");
                    self.crash_depth[i] -= 1;
                    if self.crash_depth[i] == 0 {
                        self.incarnations[i] += 1;
                        self.notifies.push_back(Notify::Restarted { node });
                    }
                } else {
                    self.crash_depth[i] += 1;
                    if self.crash_depth[i] == 1 {
                        self.crash_node(node);
                    }
                }
            }
        }
    }

    /// Crash-time sweep: abort every flow anchored on `node` (peers learn
    /// via the usual delayed abort records). Retiring the receiver halves
    /// takes the node's flow watches with them, so nothing credits
    /// progress to a dead watcher.
    fn crash_node(&mut self, node: NodeId) {
        // Sender halves live in the crashing node's own slab lane;
        // receiver halves require a scan (any node may have opened
        // toward us). Collect first — aborting mutates the slabs.
        // The two sets cannot overlap: tx ids were opened by `node`
        // (its id in the high bits), rx ids by some peer.
        let mut dead: Vec<FlowId> = self.tx.node_iter(node).map(|(id, _)| id).collect();
        dead.extend(
            self.rx
                .iter()
                .filter_map(|(id, h)| (h.flow.dst == node).then_some(id)),
        );
        for id in dead {
            self.abort_flow_from(node, id);
        }
        // Drop the dead watches' queued progress entries too, so a reborn
        // watcher starts clean.
        let rx = &self.rx;
        self.progress_rx
            .retain(|&fid| rx.get(fid).is_some_and(|h| h.watch.is_some()));
    }

    fn receive(&mut self, packet: Packet) {
        let fid = packet.flow;
        let now = self.now;
        // A packet for a retired half is a straggler of a finished flow:
        // ignored, as the half's `aborted` flag ignored it while it lived.
        match packet.kind {
            PacketKind::Data { offset, len } => {
                let Some(h) = self.rx.get_mut(fid) else {
                    assert!(self.rx.is_retired(fid), "data for an unopened flow");
                    return;
                };
                let before = h.flow.delivered_bytes();
                h.flow.on_data(now, offset, len, &mut self.actions_scratch);
                if h.flow.delivered_bytes() > before {
                    if let Some((_, dirty)) = &mut h.watch {
                        if !*dirty {
                            *dirty = true;
                            self.progress_rx.push(fid);
                        }
                    }
                }
                let (src, dst, ack) = (h.flow.src, h.flow.dst, h.flow.ack_bytes());
                self.apply_flow_actions(fid, src, dst, ack);
            }
            PacketKind::Ack { cum } => {
                let Some(h) = self.tx.get_mut(fid) else {
                    assert!(self.tx.is_retired(fid), "ack for a foreign flow");
                    return;
                };
                h.flow.on_ack(now, cum, &mut self.actions_scratch);
                let (src, dst, header) = (h.flow.src, h.flow.dst, h.flow.header_bytes());
                self.apply_flow_actions(fid, src, dst, header);
            }
        }
    }
}

/// The world as seen by one application during a callback.
pub struct Ctx<'a> {
    world: &'a mut World,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this application runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's deterministic RNG stream (derived from `(seed, node)`,
    /// so it is independent of sharding and of other nodes' draws).
    pub fn rng(&mut self) -> &mut Pcg32 {
        self.world.node_rngs[self.node.index()]
            .as_mut()
            .expect("rng of a foreign node")
    }

    /// Open a flow from this node to `dst` with the given transport config.
    pub fn open_flow(&mut self, dst: NodeId, cfg: FlowConfig) -> FlowId {
        self.world.open_flow(self.node, dst, cfg)
    }

    /// Open a flow with default transport parameters.
    pub fn open_default_flow(&mut self, dst: NodeId) -> FlowId {
        self.open_flow(dst, FlowConfig::default())
    }

    /// Write a message of `bytes` bytes tagged `tag` onto `flow`. Must be
    /// called from the flow's source node. Writing to a flow that either
    /// end has aborted does nothing.
    pub fn send(&mut self, flow: FlowId, bytes: u64, tag: u64) {
        let now = self.world.now;
        let Some(h) = self.world.tx.get_mut(flow) else {
            assert!(
                self.world.tx.is_retired(flow),
                "send on a flow {flow} not sent from this shard"
            );
            assert!(opened_by(self.node, flow), "send from the wrong endpoint");
            return;
        };
        let f = &mut h.flow;
        assert_eq!(f.src, self.node, "send from the wrong endpoint");
        let (dst, header) = (f.dst, f.header_bytes());
        let before = f.written_bytes();
        f.write(now, bytes, &mut self.world.actions_scratch);
        let end = f.written_bytes();
        if end > before {
            // The sender half keeps no framing: the boundary lives on the
            // receiver half alone, and travels there one propagation
            // delay ahead of the data.
            let at = now + self.world.ctl_delay(self.node, dst);
            self.world.push_local(
                at,
                lane_ctl(flow),
                dst,
                Event::FlowBoundary { id: flow, end, tag },
            );
        }
        self.world.apply_flow_actions(flow, self.node, dst, header);
    }

    /// Abort `flow` from either endpoint. The peer gets an
    /// [`App::on_flow_aborted`] callback one propagation delay later;
    /// in-flight packets are ignored. This node's half of the flow is
    /// retired on the spot: from here on [`Ctx::sender`] (or
    /// [`Ctx::receiver`]) panics for it, so read what is needed (acked or
    /// delivered bytes) before aborting.
    /// Aborting a flow that is already over — by this node or by the
    /// peer — does nothing.
    pub fn abort_flow(&mut self, flow: FlowId) {
        self.world.abort_flow_from(self.node, flow);
    }

    /// Arm a timer that fires [`App::on_timer`] with `token` after `after`.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerHandle {
        let h = self.world.queue.push_lane_handle(
            self.world.now + after,
            lane_node(self.node),
            Event::AppTimer {
                node: self.node,
                token,
                incarnation: self.world.incarnations[self.node.index()],
            },
        );
        TimerHandle(h)
    }

    /// Cancel a pending timer. No-op if it already fired.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.world.queue.cancel(handle.0);
    }

    /// Read access to the sender half of `id`, which this node opened:
    /// acked and written byte counts, window, retransmission stats. Only
    /// live halves can be read. A half is retired when this node aborts
    /// the flow ([`Ctx::abort_flow`], or a crash of the node), or — if
    /// the peer aborted — when this node's [`App::on_flow_aborted`]
    /// returns: inside that callback the half is still readable (and
    /// reports `is_aborted()`), afterwards this panics. So does a read
    /// from any node but the flow's source.
    pub fn sender(&self, id: FlowId) -> &Sender {
        let f = self.world.sender(id);
        assert_eq!(f.src, self.node, "flow {id} is not sent from this node");
        f
    }

    /// Read access to the receiver half of `id`, which terminates at
    /// this node: delivered byte count and the flow's endpoints. Live
    /// halves only, retired as for [`Ctx::sender`]; reading from any
    /// node but the flow's destination panics.
    pub fn receiver(&self, id: FlowId) -> &Receiver {
        let f = self.world.receiver(id);
        assert_eq!(f.dst, self.node, "flow {id} does not end at this node");
        f
    }

    /// Watch the receiver half of `id` (which must terminate at this
    /// node) for delivery progress: whenever its in-order delivered
    /// byte count advances, the flow is queued once for the next
    /// [`Ctx::drain_progress`]. This lets an app that terminates many
    /// inbound channels credit exactly the flows that moved instead of
    /// polling every open channel — the poll made the thinner's
    /// admission path O(population) at crowd scale. Watches are
    /// node-keyed: each watcher's drain sees exactly its own flows, so
    /// two watchers (e.g. two thinner replicas) behave identically
    /// whether they share a shard or not.
    ///
    /// The receiver half must be live — watch a flow from a callback it
    /// just delivered, not before its open record arrived — and the
    /// watch ends with the half.
    pub fn watch_flow(&mut self, id: FlowId) {
        let h = self
            .world
            .rx
            .get_mut(id)
            .expect("watching a flow with no live receiver half here");
        assert_eq!(
            h.flow.dst, self.node,
            "watching a flow that terminates elsewhere"
        );
        h.watch = Some((self.node, false));
    }

    /// Stop watching `id`. A still-queued dirty entry is skipped at
    /// drain time; no-op if the flow is not watched (any more).
    pub fn unwatch_flow(&mut self, id: FlowId) {
        if let Some(h) = self.world.rx.get_mut(id) {
            h.watch = None;
        }
    }

    /// Move every flow watched *by this node* that delivered new bytes
    /// since the last drain into `out`, clearing their dirty marks.
    /// Order follows the first post-drain delivery of each flow.
    /// Entries watched by a co-located peer stay queued (in order) for
    /// that peer's own drain; entries no longer watched by anyone are
    /// discarded.
    pub fn drain_progress(&mut self, out: &mut Vec<FlowId>) {
        let node = self.node;
        let World {
            progress_rx, rx, ..
        } = &mut *self.world;
        progress_rx.retain(
            |&fid| match rx.get_mut(fid).and_then(|h| h.watch.as_mut()) {
                Some((watcher, dirty)) if *watcher == node => {
                    if *dirty {
                        *dirty = false;
                        out.push(fid);
                    }
                    false
                }
                Some(_) => true,
                None => false,
            },
        );
    }

    /// Propagation delay of the route to `dst` (for informed apps/tests).
    pub fn path_delay(&self, dst: NodeId) -> Option<SimDuration> {
        self.world.topology.path_delay(self.node, dst)
    }

    /// Send an out-of-band control payload to the application on `dst`,
    /// delivered via [`App::on_control`] one routed path propagation
    /// delay from now, whether or not the route crosses shards — this is
    /// the lane replicated thinners exchange bid digests over. A payload
    /// may cross control-only links ([`LinkConfig::control_only`]), and
    /// it is the only thing that ever crosses a shard boundary: a payload
    /// for another shard goes to that shard's outbox and ends the running
    /// window at its arrival time. The sender's declared quiet floor is
    /// what bounds the receiver's window, so sending is a checked promise.
    ///
    /// # Panics
    ///
    /// Panics if this node never declared a floor
    /// ([`Ctx::control_quiet_until`]) or the floor lies in the future —
    /// in every sharding, one shard included — and if `dst` is
    /// unreachable or is this node.
    ///
    /// [`LinkConfig::control_only`]: crate::link::LinkConfig::control_only
    pub fn send_control(&mut self, dst: NodeId, payload: Box<[u64]>) {
        assert_ne!(dst, self.node, "control to self");
        let src = self.node;
        let now = self.world.now;
        match self.world.control_floors.iter().find(|(n, _)| *n == src) {
            None => panic!("send_control from {src}, which declared no control quiet floor"),
            Some(&(_, floor)) => assert!(
                now >= floor,
                "send_control from {src} at {now:?}, before its quiet floor {floor:?}"
            ),
        }
        let world = &mut *self.world;
        let remote = Remote {
            time: now + world.ctl_delay(src, dst),
            src,
            dst,
            payload,
        };
        let to = world.shard_of(dst);
        if to == world.shard {
            remote.file(&mut world.queue);
        } else {
            // Until the next exchange no peer's `next` accounts for the
            // hand-off, so the window ends where it falls due.
            world.cross_shard_events += 1;
            world.limit = world.limit.min(remote.time);
            world.outboxes[shard_idx(to)].push(remote);
        }
    }

    /// Promise that this node calls [`Ctx::send_control`] no earlier
    /// than `t`: its *control quiet floor*. A peer shard that only
    /// control payloads can reach (the links between are control-only)
    /// then runs to `t` plus the path delay in one window, however busy
    /// this node's shard is meanwhile. A periodic publisher declares
    /// `now + period` in [`App::start`] and again after each publish.
    ///
    /// The floor survives a crash untouched — stale, hence conservative —
    /// and [`App::on_restart`] raises it again.
    ///
    /// # Panics
    ///
    /// Panics, in every sharding, when `t` lies below the floor already
    /// declared (floors only rise: a peer may have run up to the old
    /// one), and when a node declares its *first* floor anywhere but in
    /// [`App::start`] (a peer may have run past any time on the
    /// assumption that this node never sends).
    pub fn control_quiet_until(&mut self, t: SimTime) {
        let node = self.node;
        let floors = &mut self.world.control_floors;
        match floors.iter_mut().find(|(n, _)| *n == node) {
            Some((_, floor)) => {
                assert!(
                    t >= *floor,
                    "control quiet floor of {node} lowered from {floor:?} to {t:?}"
                );
                *floor = t;
            }
            None => {
                assert!(
                    self.world.starting,
                    "first control quiet floor of {node} declared outside App::start"
                );
                floors.push((node, t));
            }
        }
    }
}

/// One shard: its slice of the world plus the applications on its nodes.
struct Shard<S: AppSet> {
    world: World,
    apps: Vec<Option<S>>,
    started: bool,
    /// Callbacks delivered per app variant (dispatch-share diagnostics;
    /// indices parallel [`AppSet::variant_names`]).
    dispatch_counts: Vec<u64>,
    /// What ended each window this shard ran.
    window_ends: WindowEnds,
    /// Barrier waits in which this shard's thread gave up spinning and
    /// parked.
    barrier_parks: u64,
}

/// What ended the windows a simulation ran, one count per shard per
/// window (windows × barrier cost is what sharding pays).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WindowEnds {
    /// A peer's pending event could reach the shard at the bound.
    pub by_peer: u64,
    /// The shard handed a peer a payload that could reflect back.
    pub by_own_send: u64,
    /// The run's end time came first.
    pub by_until: u64,
    /// A peer's control quiet floor, later than its next event, set the
    /// bound: the window ran that much further than `by_peer` allows.
    pub by_floor: u64,
}

/// Events between two heartbeats a shard publishes from inside a window.
const HEARTBEAT_EVENTS: u32 = 1 << 16;

impl<S: AppSet> Shard<S> {
    fn with_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut S, &mut Ctx) -> R) -> R {
        // Borrowing the slot in place is safe against reentrancy because
        // `Ctx` can only reach the world, never another app slot — and it
        // avoids moving the (large, inline) app value out and back per
        // callback.
        let app = self.apps[node.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no app on {node}"));
        self.dispatch_counts[app.variant_index()] += 1;
        let mut ctx = Ctx {
            world: &mut self.world,
            node,
        };
        f(app, &mut ctx)
    }

    fn dispatch_notifies(&mut self) {
        while let Some(n) = self.world.notifies.pop_front() {
            // Callbacks never reach a crashed app: the event arms guard
            // their own enqueues, but a crash sweep can queue callbacks
            // (e.g. abort echoes) addressed to the node that just died.
            let target = match n {
                Notify::Message { node, .. }
                | Notify::Timer { node, .. }
                | Notify::Drained { node, .. }
                | Notify::Aborted { node, .. }
                | Notify::Control { node, .. }
                | Notify::Restarted { node } => node,
            };
            if self.world.crash_depth[target.index()] > 0 {
                // Nobody to tell, so the half a peer's abort reached is
                // done with at once.
                if let Notify::Aborted { node, flow } = n {
                    self.world.retire_half(flow, !opened_by(node, flow));
                }
                continue;
            }
            match n {
                Notify::Message { node, flow, tag } => {
                    self.with_app(node, |a, ctx| a.on_message(ctx, flow, tag));
                }
                Notify::Timer { node, token } => {
                    self.with_app(node, |a, ctx| a.on_timer(ctx, token));
                }
                Notify::Drained { node, flow } => {
                    self.with_app(node, |a, ctx| a.on_flow_drained(ctx, flow));
                }
                Notify::Aborted { node, flow } => {
                    self.with_app(node, |a, ctx| a.on_flow_aborted(ctx, flow));
                    // That was the application's last look at the half.
                    self.world.retire_half(flow, !opened_by(node, flow));
                }
                Notify::Control { node, src, payload } => {
                    self.with_app(node, |a, ctx| a.on_control(ctx, src, &payload));
                }
                Notify::Restarted { node } => {
                    // Nodes without an app (pure routers) restart silently.
                    if self.apps[node.index()].is_some() {
                        self.with_app(node, |a, ctx| a.on_restart(ctx));
                    }
                }
            }
        }
    }

    fn start_apps(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.apps.len() {
            if self.apps[i].is_some() {
                self.world.starting = true;
                self.with_app(NodeId::from_index(i), |a, ctx| a.start(ctx));
                self.world.starting = false;
                self.dispatch_notifies();
            }
        }
    }

    /// Process local events strictly before `world.limit` — re-read per
    /// event, because a cross-shard send lowers it mid-window — and
    /// publish the running event count to `heartbeat` as the window goes,
    /// so a peer parked at the barrier can tell working from wedged.
    fn process_window(&mut self, heartbeat: &AtomicU64) {
        loop {
            for _ in 0..HEARTBEAT_EVENTS {
                let Some((t, ev)) = self.world.queue.pop_before(self.world.limit) else {
                    return;
                };
                debug_assert!(t >= self.world.now, "time went backwards");
                self.world.now = t;
                self.world.events_processed += 1;
                self.world.handle_event(ev);
                self.dispatch_notifies();
            }
            heartbeat.store(self.world.events_processed, Ordering::Relaxed);
        }
    }
}

/// A sense-reversing barrier with a time-bounded spin before parking on
/// a condvar. Window barriers fire every lookahead interval (often
/// sub-millisecond of simulated time): when each shard thread has a core
/// to itself, arrivals usually cluster within a few hundred
/// microseconds, and the spin fast path avoids any syscall. The spin lasts up to
/// [`SPIN_FOR`], longer than a park/wake round trip, so a waiter parks
/// only behind a peer that is really behind. When threads outnumber
/// cores, spinning only steals time from the threads the barrier is
/// waiting on, so waiters park immediately.
///
/// A release costs no syscall either unless somebody is parked: the
/// condvar's `notify_all` is a futex call even with no waiter, so the
/// releaser takes the mutex and notifies only when `parked` is nonzero.
/// The handshake is Dekker's, all `SeqCst`: a waiter raises `parked`
/// and *then* re-reads `generation`; the releaser bumps `generation`
/// and *then* reads `parked`. In the total order either the waiter sees
/// the bump and never sleeps, or the releaser sees the waiter and wakes
/// it — and since the waiter holds the mutex from its check until the
/// condvar has it asleep, the releaser's lock-then-notify cannot slip
/// between the two.
struct SpinBarrier {
    n: usize,
    /// How long a waiter spins before parking: [`SPIN_FOR`], or zero
    /// when the host is oversubscribed.
    spin_for: std::time::Duration,
    count: AtomicUsize,
    generation: AtomicUsize,
    /// Waiters that gave up spinning and are (about to be) asleep on `cv`.
    parked: AtomicUsize,
    poisoned: std::sync::atomic::AtomicBool,
    lock: Mutex<()>,
    cv: std::sync::Condvar,
    /// How long a parked waiter tolerates peers making no progress
    /// before reporting [`BarrierWait::TimedOut`]. Wall-clock, not
    /// sim-time: the hang mode this guards against (a peer shard that
    /// stopped advancing) never reaches another simulated instant.
    watchdog: std::time::Duration,
}

/// The longest a barrier waiter spins before parking.
const SPIN_FOR: std::time::Duration = std::time::Duration::from_millis(1);

/// Spin iterations between two reads of the clock in
/// [`SpinBarrier::spin`] (a clock read costs about as much as a few
/// spin iterations).
const SPINS_PER_CLOCK_READ: u32 = 64;

/// Outcome of one [`SpinBarrier::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BarrierWait {
    /// All peers arrived; proceed with the window protocol.
    Released,
    /// A peer panicked and poisoned the barrier; bail out quietly.
    Poisoned,
    /// No release and no peer progress within the watchdog deadline:
    /// some peer shard has stopped advancing. The caller dumps
    /// diagnostics and aborts.
    TimedOut,
}

/// Shard threads currently live across *all* simulators in the process,
/// so pooled runs (`jobs × shards` threads) disable spinning when the
/// pool as a whole oversubscribes the host, not just one simulator.
static LIVE_SHARD_THREADS: AtomicUsize = AtomicUsize::new(0);

impl SpinBarrier {
    /// `n` waiters, with `live_threads` shard threads running
    /// process-wide (including these `n`), and a `watchdog` deadline on
    /// every parked wait.
    fn new(n: usize, live_threads: usize, watchdog: std::time::Duration) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        SpinBarrier {
            n,
            spin_for: if live_threads <= cores {
                SPIN_FOR
            } else {
                std::time::Duration::ZERO
            },
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: std::sync::Condvar::new(),
            watchdog,
        }
    }

    /// Wait for all `n` threads, with a deadline on peer *progress*: a
    /// waiter parked for a whole watchdog period in which `progress()`
    /// (the shards' published event counts) did not move reports
    /// [`BarrierWait::TimedOut`] instead of sleeping forever behind a
    /// wedged peer; one working through a long window re-arms it.
    /// Adds one to `parks` if this wait gave up spinning and parked.
    // The clock here observes the *host*, never the simulation: timer
    // expiry only happens on the already-lost hang path.
    #[allow(clippy::disallowed_methods)] // see clippy.toml: watchdog deadline needs Instant
    fn wait(&self, progress: impl Fn() -> u64, parks: &mut u64) -> BarrierWait {
        // Generation first, poison flag second: `poison` sets the flag
        // and then bumps, so a poisoning missed here is seen as a bump.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.poisoned.load(Ordering::SeqCst) {
            return BarrierWait::Poisoned;
        }
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            self.count.store(0, Ordering::Relaxed);
            self.release();
        } else if !self.spin(gen) {
            *parks += 1;
            let mut seen = progress();
            // lint: allow(wall-clock) — watchdog deadline over host time; fires only on the hang path
            let mut deadline = std::time::Instant::now() + self.watchdog;
            self.parked.fetch_add(1, Ordering::SeqCst);
            let mut guard = self.lock.lock().expect("barrier lock poisoned");
            let mut timed_out = false;
            while self.generation.load(Ordering::SeqCst) == gen {
                // lint: allow(wall-clock) — remaining watchdog budget, host time (see above)
                let now = std::time::Instant::now();
                let left = match deadline.checked_duration_since(now) {
                    Some(left) if !left.is_zero() => left,
                    _ => {
                        let moved = progress();
                        if moved == seen {
                            timed_out = true;
                            break;
                        }
                        seen = moved;
                        deadline = now + self.watchdog;
                        self.watchdog
                    }
                };
                guard = self
                    .cv
                    .wait_timeout(guard, left)
                    .expect("barrier wait poisoned")
                    .0;
            }
            drop(guard);
            self.parked.fetch_sub(1, Ordering::SeqCst);
            if timed_out {
                return BarrierWait::TimedOut;
            }
        }
        if self.poisoned.load(Ordering::SeqCst) {
            BarrierWait::Poisoned
        } else {
            BarrierWait::Released
        }
    }

    /// Spin for the release of generation `gen`; `false` when
    /// `spin_for` ran out first.
    // Host time bounds the spin; it never reaches the simulation.
    #[allow(clippy::disallowed_methods)] // see clippy.toml: the spin bound needs Instant
    fn spin(&self, gen: usize) -> bool {
        if self.spin_for.is_zero() {
            return false;
        }
        // lint: allow(wall-clock) — bounds the spin in host time; the simulation never sees it
        let start = std::time::Instant::now();
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if self.generation.load(Ordering::Acquire) != gen {
                    return true;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= self.spin_for {
                return false;
            }
        }
    }

    /// Open the next generation and wake whoever is parked — touching
    /// the mutex and the condvar only if somebody is (see the type docs
    /// for why no wake-up is lost).
    fn release(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().expect("barrier lock poisoned"));
            self.cv.notify_all();
        }
    }

    /// Mark the barrier dead after a panic and release every waiter, so
    /// surviving shard threads exit instead of parking forever while the
    /// panic propagates through `std::thread::scope`.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.release();
    }
}

/// Sentinel for "these two shards can never hand each other a payload".
const NO_INTERACTION: u64 = u64::MAX;

/// Pairwise conservative lookahead: `d[j * K + i]`, in nanoseconds, is
/// the least propagation delay of any route from a `j`-owned node to an
/// `i`-owned one ([`NO_INTERACTION`] if none), the min-plus closure of
/// direct cross-shard link delays (module docs, "Sharded execution").
struct Lookahead {
    k: usize,
    d: Vec<u64>,
}

impl Lookahead {
    /// Build the matrix, enforcing the island contract: every
    /// cross-shard link is control-only, with a positive delay.
    /// Floyd–Warshall closes the direct delays over multi-hop routes; the
    /// diagonal (echo cycles through peers) is never read.
    fn new(topology: &Topology, assignment: &[u32], k: usize) -> Self {
        let mut d = vec![NO_INTERACTION; k * k];
        for e in topology.edges() {
            let j = shard_idx(assignment[e.from.index()]);
            let i = shard_idx(assignment[e.to.index()]);
            if j != i {
                assert!(
                    e.cfg.control_only,
                    "cross-shard link {} -> {} carries packets: shards may meet \
                     only over control-only links",
                    e.from, e.to
                );
                assert!(
                    e.cfg.delay > SimDuration::ZERO,
                    "cross-shard link {} -> {} has zero delay: no lookahead",
                    e.from,
                    e.to
                );
                d[j * k + i] = d[j * k + i].min(e.cfg.delay.as_nanos());
            }
        }
        for m in 0..k {
            for a in 0..k {
                for b in 0..k {
                    let via = d[a * k + m].saturating_add(d[m * k + b]);
                    if via < d[a * k + b] {
                        d[a * k + b] = via;
                    }
                }
            }
        }
        Lookahead { k, d }
    }

    /// Where shard `i`'s window opens, given every shard's effective
    /// next event `next` and control floor `floor`, and whether a floor
    /// (not a next event) set it: `min over m ≠ i of max(next[m],
    /// floor[m]) + d[m][i]`.
    ///
    /// A peer woken early by a third shard needs no term of its own. Say
    /// `p` hands `m` a payload and `m` then sends to `i`: that reply
    /// arrives no earlier than `max(next_p, floor_p) + d[p][m] +
    /// d[m][i]`, which is at least `p`'s own term `max(next_p, floor_p)
    /// + d[p][i]` by the closure's triangle inequality. Chains through
    /// `i` itself are left out: what `i` hands over bounds it through
    /// [`Ctx::send_control`].
    fn window_bound(&self, i: usize, next: &[u64], floor: &[u64]) -> (u64, bool) {
        let mut bound = (u64::MAX, false);
        for m in (0..self.k).filter(|&m| m != i) {
            let at = next[m].max(floor[m]).saturating_add(self.d[m * self.k + i]);
            if at < bound.0 {
                bound = (at, floor[m] > next[m]);
            }
        }
        bound
    }
}

/// The simulator: one or more shard event loops over a shared topology.
///
/// The type parameter selects the application dispatch strategy: the
/// default `Box<dyn App>` dispatches virtually (the [`Simulator::new`]
/// path), while an enum [`AppSet`] (installed via
/// [`Simulator::new_sharded_slots`] + [`Simulator::add_slot`])
/// dispatches monomorphically.
pub struct Simulator<S: AppSet = Box<dyn App>> {
    shards: Vec<Shard<S>>,
    assignment: Arc<Vec<u32>>,
    lookahead: Lookahead,
    /// What each shard shares with its peers, recycled across windows
    /// *and* across `run_until` calls: rebuilding the inboxes per call
    /// used to re-pay their allocations every time a driver stepped the
    /// clock.
    ports: Vec<ShardPort>,
    /// Deadline on every parked barrier wait: when no shard has
    /// processed an event for this long, a peer is declared wedged and
    /// the run aborts with a per-shard dump instead of hanging forever.
    barrier_watchdog: std::time::Duration,
}

/// The applications of a finished simulation, by node
/// ([`Simulator::finish`]).
pub struct Apps<S: AppSet = Box<dyn App>> {
    apps: Vec<Option<S>>,
}

impl<S: AppSet> Apps<S> {
    /// Downcast the application on `node` to a concrete type.
    pub fn app<T: App>(&self, node: NodeId) -> Option<&T> {
        self.apps[node.index()]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast of the application on `node`: extraction moves
    /// samples out of the finished applications instead of copying them.
    pub fn app_mut<T: App>(&mut self, node: NodeId) -> Option<&mut T> {
        self.apps[node.index()]
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }
}

/// The one place shard threads meet: a shard's cross-shard delivery
/// buffer, what it published for the window exchange, and its progress
/// counters for whichever shard's watchdog fires (hence atomics).
struct ShardPort {
    /// Payloads peers handed this shard, appended before a window's
    /// barrier (or, by a peer already a window ahead, after it) and
    /// drained by the owner after it.
    inbox: Mutex<Vec<Remote>>,
    /// Double-buffered by window parity: a shard that leaves the
    /// barrier first may publish the next window's record while a
    /// slower peer still reads this window's. It cannot get two ahead —
    /// the next barrier needs the slow peer.
    published: [Published; 2],
    /// Parity of the record published last (the watchdog's dump).
    latest: AtomicUsize,
    /// The limit the shard's current window opened at (ns).
    window_end: AtomicU64,
    /// Events the shard has processed so far: stored after every window
    /// and every [`HEARTBEAT_EVENTS`] inside one — the watchdog's pulse.
    events: AtomicU64,
}

/// What a shard tells its peers before a window's barrier. The barrier
/// orders these stores before every peer's loads.
struct Published {
    /// Its earliest pending event, before absorbing this exchange (ns,
    /// `u64::MAX` when idle).
    next: AtomicU64,
    /// Its control quiet floor ([`World::control_floor_min`]).
    floor: AtomicU64,
    /// Per destination shard, the earliest payload it handed over in this
    /// exchange (`u64::MAX` for none): the receiver's `next` predates
    /// the hand-off, so peers take the minimum of the two.
    handoffs: Vec<AtomicU64>,
}

impl ShardPort {
    fn new(k: usize) -> Self {
        let published = || Published {
            next: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            handoffs: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
        };
        ShardPort {
            inbox: Mutex::new(Vec::new()),
            published: [published(), published()],
            latest: AtomicUsize::new(0),
            window_end: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }
}

impl Simulator {
    /// Create a single-shard simulator over `topology`, seeded for
    /// determinism.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let n = topology.node_slots();
        Self::new_sharded(topology, seed, vec![0; n])
    }

    /// Create a simulator whose node population is split across shard
    /// event loops: `assignment[node]` names the shard owning each node
    /// (shard ids must be dense, `0..K`). Results are byte-identical for
    /// every assignment; see the module docs for the mechanism.
    ///
    /// # Panics
    ///
    /// Panics unless every link between two shards is
    /// [control-only](crate::link::LinkConfig::control_only) with a
    /// positive propagation delay: shards are islands that exchange
    /// control payloads and nothing else, at least one lookahead apart.
    pub fn new_sharded(topology: Topology, seed: u64, assignment: Vec<u32>) -> Self {
        Self::new_sharded_slots(topology, seed, assignment)
    }

    /// Install a boxed application on `node`. Replaces any previous one.
    pub fn add_app(&mut self, node: NodeId, app: Box<dyn App>) {
        self.add_slot(node, app);
    }
}

impl<S: AppSet> Simulator<S> {
    /// [`Simulator::new_sharded`] for an explicit [`AppSet`]: the entry
    /// point harnesses use to opt into devirtualized dispatch.
    pub fn new_sharded_slots(topology: Topology, seed: u64, assignment: Vec<u32>) -> Self {
        assert_eq!(
            assignment.len(),
            topology.node_slots(),
            "one shard assignment per node"
        );
        let num_shards = shard_idx(assignment.iter().copied().max().unwrap_or(0)) + 1;
        let lookahead = Lookahead::new(&topology, &assignment, num_shards);
        let topology = Arc::new(topology);
        let assignment = Arc::new(assignment);
        let n = topology.node_slots();
        let shards = (0..u32::try_from(num_shards).expect("invariant: shard count fits u32"))
            .map(|s| {
                let mut apps = Vec::with_capacity(n);
                apps.resize_with(n, || None);
                Shard {
                    world: World::new(
                        Arc::clone(&topology),
                        Arc::clone(&assignment),
                        s,
                        num_shards,
                        seed,
                    ),
                    apps,
                    started: false,
                    dispatch_counts: vec![0; S::variant_names().len()],
                    window_ends: WindowEnds::default(),
                    barrier_parks: 0,
                }
            })
            .collect();
        Simulator {
            shards,
            assignment,
            lookahead,
            ports: (0..num_shards)
                .map(|_| ShardPort::new(num_shards))
                .collect(),
            barrier_watchdog: std::time::Duration::from_secs(60),
        }
    }

    /// Override the barrier watchdog deadline (default 60 s of host
    /// time without any shard processing an event). Tests drop it to
    /// milliseconds; huge oversubscribed batch runs may need to raise it.
    pub fn set_barrier_watchdog(&mut self, deadline: std::time::Duration) {
        self.barrier_watchdog = deadline;
    }

    /// Inject a fault schedule: every entry becomes a down/up event pair
    /// on the owning shard's queue, on a dedicated fault lane, so faults
    /// land in the canonical `(time, lane, seq)` order and `--shards K`
    /// byte-identity holds under faults. Call before running past any
    /// entry's onset (injection into the past is a schedule bug).
    pub fn inject_faults(&mut self, schedule: &FaultSchedule) {
        let topology = Arc::clone(&self.shards[0].world.topology);
        for e in schedule.entries() {
            let (owner, lane) = match e.kind {
                FaultKind::LinkDown(link) => {
                    let from = topology.edges()[link.index()].from;
                    (self.assignment[from.index()], lane_fault_link(link))
                }
                FaultKind::NodeCrash(node) => {
                    (self.assignment[node.index()], lane_fault_node(node))
                }
            };
            let world = &mut self.shards[shard_idx(owner)].world;
            assert!(
                e.at >= world.now,
                "fault at {:?} injected after the clock reached {:?}",
                e.at,
                world.now
            );
            let (down, up) = match e.kind {
                FaultKind::LinkDown(link) => (
                    Event::LinkFault { link, up: false },
                    Event::LinkFault { link, up: true },
                ),
                FaultKind::NodeCrash(node) => (
                    Event::NodeFault { node, up: false },
                    Event::NodeFault { node, up: true },
                ),
            };
            world.queue.push_lane(e.at, lane, down);
            world.queue.push_lane(e.up_at(), lane, up);
        }
    }

    /// Number of shard event loops.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total control payloads handed across shard boundaries so far.
    pub fn cross_shard_events(&self) -> u64 {
        self.shards.iter().map(|s| s.world.cross_shard_events).sum()
    }

    /// What ended the windows run so far, summed over shards (every
    /// shard takes part in every window).
    pub fn window_ends(&self) -> WindowEnds {
        let mut sum = WindowEnds::default();
        for s in &self.shards {
            sum.by_peer += s.window_ends.by_peer;
            sum.by_own_send += s.window_ends.by_own_send;
            sum.by_until += s.window_ends.by_until;
            sum.by_floor += s.window_ends.by_floor;
        }
        sum
    }

    /// Barrier waits that parked, per shard loop (a parked wait costs a
    /// wake-up round trip; a single-loop run never waits).
    pub fn barrier_parks(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.barrier_parks).collect()
    }

    /// Events processed so far, per shard loop (who is doing the work).
    pub fn shard_event_counts(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.world.events_processed)
            .collect()
    }

    /// The most events each shard's queue ever held at once (its
    /// memory high-water mark, in events).
    pub fn queue_peaks(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| {
                u64::try_from(s.world.queue.peak_filed()).expect("invariant: arena length fits u64")
            })
            .collect()
    }

    /// Flows opened so far by each shard's nodes (live or not).
    pub fn flows_opened(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| u64::try_from(s.world.flow_count()).expect("invariant: flow count fits u64"))
            .collect()
    }

    /// The most flow halves each shard held at once (its flow tables'
    /// memory high-water mark, in halves): retired halves give their
    /// cells back, so this follows the live connections, not
    /// [`Simulator::flows_opened`].
    pub fn flow_halves_peaks(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| {
                u64::try_from(s.world.flow_halves_peak()).expect("invariant: arena length fits u64")
            })
            .collect()
    }

    /// Total packets dropped anywhere (overflow + fault).
    pub fn total_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.world.total_drops).sum()
    }

    /// Install an application on `node` as an [`AppSet`] value.
    /// Replaces any previous one.
    pub fn add_slot(&mut self, node: NodeId, app: S) {
        let shard = shard_idx(self.assignment[node.index()]);
        self.shards[shard].apps[node.index()] = Some(app);
    }

    /// Callbacks delivered per app variant, summed over shards and
    /// labeled with [`AppSet::variant_names`] (dispatch-share
    /// diagnostics; `[("boxed", n)]` for the default set).
    pub fn dispatch_counts(&self) -> Vec<(&'static str, u64)> {
        S::variant_names()
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.shards.iter().map(|s| s.dispatch_counts[i]).sum()))
            .collect()
    }

    /// Read access to shard 0's world — the whole world for single-shard
    /// simulations (metrics extraction, tests).
    pub fn world(&self) -> &World {
        &self.shards[0].world
    }

    /// Downcast the application on `node` to a concrete type.
    pub fn app<T: App>(&self, node: NodeId) -> Option<&T> {
        let shard = shard_idx(self.assignment[node.index()]);
        self.shards[shard].apps[node.index()]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// End the simulation, keeping only the applications: every shard's
    /// event queue, flow tables and links are freed here, so extraction
    /// that follows allocates into their memory instead of beside it.
    /// Read the engine counters ([`Simulator::queue_peaks`] and the
    /// rest) first.
    pub fn finish(self) -> Apps<S> {
        let mut shards = self.shards.into_iter();
        let mut apps = shards.next().expect("invariant: one shard at least").apps;
        for shard in shards {
            for (slot, app) in apps.iter_mut().zip(shard.apps) {
                if app.is_some() {
                    *slot = app;
                }
            }
        }
        Apps { apps }
    }

    /// Mutable downcast of the application on `node`.
    pub fn app_mut<T: App>(&mut self, node: NodeId) -> Option<&mut T> {
        let shard = shard_idx(self.assignment[node.index()]);
        self.shards[shard].apps[node.index()]
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    /// Run the simulation until `until` (inclusive of events at `until`).
    ///
    /// With multiple shards, each shard's loop runs on its own thread;
    /// shards advance in lookahead windows and exchange cross-shard
    /// events at barriers between windows.
    pub fn run_until(&mut self, until: SimTime) {
        if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            shard.start_apps();
            // `t <= until` is `t < until + 1ns`; the add saturates, so
            // `until = MAX` is no bound (an event at exactly `u64::MAX`
            // ns is unreachable either way).
            shard.world.limit = until + SimDuration::from_nanos(1);
            shard.process_window(&self.ports[0].events);
            shard.window_ends.by_until += 1;
            if shard.world.now < until {
                shard.world.now = until;
            }
            return;
        }

        let n = self.shards.len();
        let lookahead = &self.lookahead;
        let live = LIVE_SHARD_THREADS.fetch_add(n, Ordering::SeqCst) + n;
        let barrier = SpinBarrier::new(n, live, self.barrier_watchdog);
        let barrier = &barrier;
        let ports: &[ShardPort] = &self.ports;

        let first_panic = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| {
                    scope.spawn(move || {
                        // A panic anywhere in the window loop (app
                        // callback, routing, the lookahead assert) must
                        // poison the barrier so peer shards exit instead
                        // of parking forever; the payload travels back
                        // through the join below.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            Self::run_shard_loop(i, shard, until, lookahead, barrier, ports)
                        }));
                        if let Err(panic) = run {
                            barrier.poison();
                            std::panic::resume_unwind(panic);
                        }
                    })
                })
                .collect();
            // Join explicitly and re-raise the first shard's panic with
            // its original payload (the scope alone would replace it
            // with a generic "a scoped thread panicked").
            let mut first_panic = None;
            for h in handles {
                if let Err(panic) = h.join() {
                    first_panic.get_or_insert(panic);
                }
            }
            first_panic
        });
        LIVE_SHARD_THREADS.fetch_sub(n, Ordering::SeqCst);
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
    }

    /// One barrier crossing, watchdog-checked: `true` to continue the
    /// window protocol, `false` to bail out quietly (poisoned peer). A
    /// watchdog expiry dumps every shard's published progress — the
    /// evidence for diagnosing *which* peer wedged and where — then
    /// panics, which poisons the barrier for the survivors.
    fn barrier_sync(
        i: usize,
        barrier: &SpinBarrier,
        parks: &mut u64,
        lookahead: &Lookahead,
        ports: &[ShardPort],
    ) -> bool {
        let progress = || ports.iter().map(|p| p.events.load(Ordering::Relaxed)).sum();
        match barrier.wait(progress, parks) {
            BarrierWait::Released => true,
            BarrierWait::Poisoned => false,
            BarrierWait::TimedOut => {
                let n = ports.len();
                let time_or = |nanos: u64, none: &str| {
                    if nanos == u64::MAX {
                        none.to_string()
                    } else {
                        format!("{:?}", SimTime::from_nanos(nanos))
                    }
                };
                eprintln!("barrier watchdog: shard {i} saw no peer progress within the deadline");
                for (j, port) in ports.iter().enumerate() {
                    let published = &port.published[port.latest.load(Ordering::SeqCst)];
                    let delay = lookahead.d[j * n + i];
                    eprintln!(
                        "  shard {j}: next_event={} control_floor={} window_end={:?} events={} \
                         lookahead[{j}->{i}]={}",
                        time_or(published.next.load(Ordering::SeqCst), "idle"),
                        time_or(published.floor.load(Ordering::SeqCst), "none"),
                        SimTime::from_nanos(port.window_end.load(Ordering::SeqCst)),
                        port.events.load(Ordering::SeqCst),
                        if delay == NO_INTERACTION {
                            "-".to_string()
                        } else {
                            format!("{:?}", SimDuration::from_nanos(delay))
                        },
                    );
                }
                panic!("barrier watchdog expired — a peer shard stopped advancing");
            }
        }
    }

    /// One shard thread's window loop (see [`Simulator::run_until`] and
    /// the module docs, "Sharded execution").
    fn run_shard_loop(
        i: usize,
        shard: &mut Shard<S>,
        until: SimTime,
        lookahead: &Lookahead,
        barrier: &SpinBarrier,
        ports: &[ShardPort],
    ) {
        let k = ports.len();
        shard.start_apps();
        // Every shard's effective next event and floor for this window.
        let mut next = vec![u64::MAX; k];
        let mut floor = vec![u64::MAX; k];
        let mut parity = 0;
        loop {
            // Before the barrier: hand over this window's payloads, one
            // lock per non-empty outbox lane, and publish what peers need
            // to bound the next window. The receiving queue orders
            // payloads from different senders by lane.
            let mine = &ports[i].published[parity];
            for (dest, port) in ports.iter().enumerate() {
                let outbox = &mut shard.world.outboxes[dest];
                let earliest = outbox.iter().map(|r| r.time.as_nanos()).min();
                mine.handoffs[dest].store(earliest.unwrap_or(u64::MAX), Ordering::SeqCst);
                if earliest.is_some() {
                    debug_assert_ne!(dest, i, "outbox entry addressed to self");
                    port.inbox.lock().expect("inbox poisoned").append(outbox);
                }
            }
            let pending = shard.world.queue.peek_time();
            mine.next.store(
                pending.map_or(u64::MAX, SimTime::as_nanos),
                Ordering::SeqCst,
            );
            mine.floor
                .store(shard.world.control_floor_min(), Ordering::SeqCst);
            ports[i].latest.store(parity, Ordering::SeqCst);
            if !Self::barrier_sync(i, barrier, &mut shard.barrier_parks, lookahead, ports) {
                return;
            }

            // After it: absorb incoming payloads, none earlier than the
            // clock this shard has committed to. A peer that left the
            // barrier first may already have appended its *next* batch:
            // it lies at or beyond this window's limit, passes the same
            // assert, and is published again next time round.
            {
                let mut inbox = ports[i].inbox.lock().expect("inbox poisoned");
                for r in inbox.drain(..) {
                    assert!(
                        r.time >= shard.world.now,
                        "lookahead violation: payload at {:?} delivered at {:?}",
                        r.time,
                        shard.world.now
                    );
                    r.file(&mut shard.world.queue);
                }
            }
            // Every shard derives the same picture from the published
            // records — its own queue may already hold more (see above),
            // so it reads its own record like a peer's — and all agree
            // on when the run is over.
            for j in 0..k {
                let handed = ports
                    .iter()
                    .map(|p| p.published[parity].handoffs[j].load(Ordering::SeqCst))
                    .min()
                    .expect("at least one shard");
                let published = &ports[j].published[parity];
                next[j] = handed.min(published.next.load(Ordering::SeqCst));
                floor[j] = published.floor.load(Ordering::SeqCst);
            }
            if next.iter().all(|&t| t > until.as_nanos()) {
                break;
            }
            // The window opens where a *peer's* earliest payload could
            // land; `Ctx::send_control` lowers it on each own hand-off.
            let (bound, by_floor) = lookahead.window_bound(i, &next, &floor);
            let opened = SimTime::from_nanos(bound).min(until + SimDuration::from_nanos(1));
            shard.world.limit = opened;
            ports[i]
                .window_end
                .store(opened.as_nanos(), Ordering::SeqCst);
            shard.process_window(&ports[i].events);
            ports[i]
                .events
                .store(shard.world.events_processed, Ordering::SeqCst);
            let reached = shard.world.limit;
            if reached < opened {
                shard.window_ends.by_own_send += 1;
            } else if reached.as_nanos() != bound {
                shard.window_ends.by_until += 1;
            } else if by_floor {
                shard.window_ends.by_floor += 1;
            } else {
                shard.window_ends.by_peer += 1;
            }
            let advanced = reached.min(until);
            if advanced > shard.world.now {
                shard.world.now = advanced;
            }
            parity ^= 1;
        }
        if shard.world.now < until {
            shard.world.now = until;
        }
    }

    /// Run for a span of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        let until = self.shards[0].world.now + span;
        self.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::topology::TopologyBuilder;

    #[test]
    fn event_is_40_bytes_with_a_niche() {
        // With the queue's 32-byte node header (pinned in `event`'s
        // tests) that is the 72-byte node every pending event occupies;
        // the niche is what makes the node's `Option<Event>` free.
        assert_eq!(std::mem::size_of::<Event>(), 40);
        assert_eq!(std::mem::size_of::<Option<Event>>(), 40);
    }

    #[test]
    fn flow_halves_hold_only_their_side() {
        // At crowd scale some 75 k halves of each kind are live at once:
        // a sender half carries no reassembly or framing, a receiver
        // half no window or timer. The slab stores `Option`s of both.
        use std::mem::size_of;
        assert!(size_of::<TxHalf>() <= 256, "{}", size_of::<TxHalf>());
        assert!(size_of::<RxHalf>() <= 96, "{}", size_of::<RxHalf>());
        assert_eq!(size_of::<Option<TxHalf>>(), size_of::<TxHalf>());
        assert_eq!(size_of::<Option<RxHalf>>(), size_of::<RxHalf>());
    }

    /// Sends one message at start; records drain time.
    struct Sender {
        dst: NodeId,
        bytes: u64,
        flow: Option<FlowId>,
        drained_at: Option<SimTime>,
    }

    impl App for Sender {
        fn start(&mut self, ctx: &mut Ctx) {
            let f = ctx.open_default_flow(self.dst);
            ctx.send(f, self.bytes, 1);
            self.flow = Some(f);
        }
        fn on_flow_drained(&mut self, ctx: &mut Ctx, _flow: FlowId) {
            self.drained_at = Some(ctx.now());
        }
    }

    /// Records message arrivals.
    #[derive(Default)]
    struct Receiver {
        got: Vec<(SimTime, FlowId, u64)>,
    }

    impl App for Receiver {
        fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
            self.got.push((ctx.now(), flow, tag));
        }
    }

    fn two_nodes(rate_bps: u64, delay_ms: u64) -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        b.duplex(
            a,
            z,
            LinkConfig::new(rate_bps, SimDuration::from_millis(delay_ms)),
        );
        (b.build(), a, z)
    }

    #[test]
    fn small_message_delivered_quickly() {
        let (t, a, z) = two_nodes(10_000_000, 5);
        let mut sim = Simulator::new(t, 1);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 500,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(2));
        let rx = sim
            .app::<Receiver>(z)
            .expect("invariant: Receiver installed on z");
        assert_eq!(rx.got.len(), 1);
        assert_eq!(rx.got[0].2, 1);
        // One-way: tx (540B at 10Mbps = 0.432ms) + 5ms prop.
        let arrival = rx.got[0].0.as_secs_f64();
        assert!(arrival > 0.005 && arrival < 0.010, "arrival {arrival}");
        let tx = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a");
        assert!(tx.drained_at.is_some(), "sender saw the drain");
    }

    #[test]
    fn bulk_transfer_throughput_approaches_link_rate() {
        // 2 Mbit/s, 10 ms one-way. Send 2 MB; ideal time ~8 s + slow start.
        let (t, a, z) = two_nodes(2_000_000, 10);
        let mut sim = Simulator::new(t, 2);
        let bytes = 2_000_000u64;
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(60));
        let tx = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a");
        let done = tx.drained_at.expect("transfer completed").as_secs_f64();
        // Payload goodput limit: 2e6*8 bits / (2e6 bps * 1460/1500 eff) ≈ 8.2 s.
        assert!(done > 8.0, "faster than the link allows: {done}");
        assert!(done < 11.0, "took too long (cc problem?): {done}");
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = |seed| {
            let (t, a, z) = two_nodes(1_000_000, 20);
            let mut sim = Simulator::new(t, seed);
            sim.add_app(
                a,
                Box::new(Sender {
                    dst: z,
                    bytes: 300_000,
                    flow: None,
                    drained_at: None,
                }),
            );
            sim.add_app(z, Box::new(Receiver::default()));
            sim.run_until(SimTime::from_secs(30));
            sim.app::<Sender>(a)
                .expect("invariant: Sender installed on a")
                .drained_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        // Two senders behind a shared 2 Mbit/s bottleneck.
        let mut b = TopologyBuilder::new();
        let s1 = b.node();
        let s2 = b.node();
        let gw = b.node();
        let z = b.node();
        let fast = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
        b.duplex(s1, gw, fast);
        b.duplex(s2, gw, fast);
        b.duplex(
            gw,
            z,
            LinkConfig::new(2_000_000, SimDuration::from_millis(10)).queue_packets(25),
        );
        let t = b.build();
        let mut sim = Simulator::new(t, 3);
        for (n, _) in [(s1, 0), (s2, 1)] {
            sim.add_app(
                n,
                Box::new(Sender {
                    dst: z,
                    bytes: 30_000_000, // never finishes in 40 s
                    flow: None,
                    drained_at: None,
                }),
            );
        }
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(40));
        let f1 = sim.world().sender(flow_id(s1, 0)).acked_bytes() as f64;
        let f2 = sim.world().sender(flow_id(s2, 0)).acked_bytes() as f64;
        let ratio = f1.min(f2) / f1.max(f2);
        assert!(ratio > 0.6, "unfair split: {f1} vs {f2}");
        // Aggregate goodput should be near 2 Mbit/s payload-adjusted.
        let total_mbps = (f1 + f2) * 8.0 / 40.0 / 1e6;
        assert!(
            total_mbps > 1.6 && total_mbps < 2.01,
            "goodput {total_mbps}"
        );
    }

    #[test]
    fn lossy_link_still_delivers_reliably() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        // 5% loss each way.
        b.duplex(
            a,
            z,
            LinkConfig::new(5_000_000, SimDuration::from_millis(5)).drop_prob(0.05),
        );
        let t = b.build();
        let mut sim = Simulator::new(t, 4);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 500_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::from_secs(120));
        let rx = sim
            .app::<Receiver>(z)
            .expect("invariant: Receiver installed on z");
        assert_eq!(rx.got.len(), 1, "message must arrive despite loss");
        let f = sim.world().sender(flow_id(a, 0));
        assert!(
            f.stats.segments_retransmitted > 0,
            "loss caused retransmits"
        );
        assert_eq!(
            sim.world().receiver(flow_id(a, 0)).delivered_bytes(),
            500_000
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerApp {
            fired: Vec<u64>,
            cancelled_handle: Option<TimerHandle>,
        }
        impl App for TimerApp {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let h = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                self.cancelled_handle = Some(h);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                self.fired.push(token);
                if token == 1 {
                    let h = self
                        .cancelled_handle
                        .take()
                        .expect("invariant: handle stored before timer 2 fires");
                    ctx.cancel_timer(h);
                }
            }
        }
        let (t, a, _z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 5);
        sim.add_app(
            a,
            Box::new(TimerApp {
                fired: vec![],
                cancelled_handle: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.app::<TimerApp>(a)
                .expect("invariant: TimerApp installed on a")
                .fired,
            vec![1, 3]
        );
    }

    #[test]
    fn retired_flows_leave_no_rto_sentinel_behind() {
        // Speak-up's payment channels: open, write, abort a few
        // milliseconds later, all long before the 1 s initial RTO. Each
        // write arms the RTO (1 s, or 200 ms once an ACK has sampled the
        // RTT); retiring the sender half must take its sentinel out of
        // the wheel, or every flow of the last second or so holds a
        // filed event until its timer is due.
        const LIVE: usize = 4;
        struct ShortFlows {
            dst: NodeId,
            open: VecDeque<FlowId>,
        }
        impl App for ShortFlows {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
                let f = ctx.open_default_flow(self.dst);
                ctx.send(f, 3_000, 1);
                self.open.push_back(f);
                if self.open.len() > LIVE {
                    let old = self
                        .open
                        .pop_front()
                        .expect("invariant: more than LIVE open");
                    ctx.abort_flow(old);
                }
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let (t, a, z) = two_nodes(100_000_000, 1);
        let mut sim = Simulator::new(t, 7);
        sim.add_app(
            a,
            Box::new(ShortFlows {
                dst: z,
                open: VecDeque::new(),
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(900));
        let world = sim.world();
        assert!(
            world.flow_count() > 850,
            "{} flows opened",
            world.flow_count()
        );
        // Per live flow: its sentinel, a few segments or ACKs in flight;
        // plus the app's timer and the abort records on their way.
        let bound = 8 * (LIVE + 1);
        assert!(
            world.queue.len() <= bound,
            "{} events pending for {} live flows",
            world.queue.len(),
            LIVE + 1
        );
        assert!(
            world.queue.peak_filed() <= bound,
            "the queue filed {} events at once",
            world.queue.peak_filed()
        );
    }

    #[test]
    fn abort_notifies_peer() {
        struct Aborter {
            dst: NodeId,
        }
        impl App for Aborter {
            fn start(&mut self, ctx: &mut Ctx) {
                let f = ctx.open_default_flow(self.dst);
                ctx.send(f, 1_000_000, 1);
                ctx.set_timer(SimDuration::from_millis(50), f.0 as u64);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                ctx.abort_flow(FlowId(token as u32));
            }
        }
        #[derive(Default)]
        struct PeerWatch {
            aborted: Vec<FlowId>,
        }
        impl App for PeerWatch {
            fn on_flow_aborted(&mut self, _ctx: &mut Ctx, flow: FlowId) {
                self.aborted.push(flow);
            }
        }
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 6);
        sim.add_app(a, Box::new(Aborter { dst: z }));
        sim.add_app(z, Box::new(PeerWatch::default()));
        sim.run_until(SimTime::from_secs(2));
        let f = flow_id(a, 0);
        assert_eq!(
            sim.app::<PeerWatch>(z)
                .expect("invariant: PeerWatch installed on z")
                .aborted,
            vec![f]
        );
        let world = sim.world();
        assert!(world.tx.is_retired(f) && world.rx.is_retired(f));
        assert_eq!(world.flow_count(), 1, "flows opened, not flows live");
        assert_eq!((world.tx.len(), world.rx.len()), (0, 0));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let (t, _a, _z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 7);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.world().now(), SimTime::from_secs(5));
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.world().now(), SimTime::from_secs(8));
    }

    // ------------------------------------------------------- sharding

    /// A star: `leaves` nodes around a hub, leaf `i` on a 2 Mbit/s link
    /// of `2 + i` ms — packet-capable, or control-only so that every node
    /// may sit on a shard of its own.
    fn star(leaves: usize, control_only: bool) -> (Topology, NodeId, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.node();
        let mut nodes = Vec::new();
        for i in 0..leaves {
            let n = b.node();
            let link = LinkConfig::new(2_000_000, SimDuration::from_millis(2 + i as u64));
            b.duplex(
                n,
                hub,
                if control_only {
                    link.control_only()
                } else {
                    link
                },
            );
            nodes.push(n);
        }
        (b.build(), hub, nodes)
    }

    /// `n` islands `(a_i, b_i)`, each pair joined by a packet-capable
    /// 2 Mbit/s link of `2 + i` ms, and every two `b`s by a 1 ms
    /// control-only link, so each island may have a shard of its own
    /// ([`island_shards`]). Nodes are numbered `a_0, b_0, a_1, b_1, …`.
    fn islands(n: usize) -> (Topology, Vec<(NodeId, NodeId)>) {
        let mut tb = TopologyBuilder::new();
        let pairs: Vec<_> = (0..n)
            .map(|i| {
                let (a, b) = (tb.node(), tb.node());
                let link = LinkConfig::new(2_000_000, SimDuration::from_millis(2 + i as u64));
                tb.duplex(a, b, link);
                (a, b)
            })
            .collect();
        let mesh = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)).control_only();
        for i in 0..n {
            for j in i + 1..n {
                tb.duplex(pairs[i].1, pairs[j].1, mesh);
            }
        }
        (tb.build(), pairs)
    }

    /// The node assignment that puts island `i` of [`islands`] on shard
    /// `shard_of[i]`.
    fn island_shards(shard_of: &[u32]) -> Vec<u32> {
        shard_of.iter().flat_map(|&s| [s, s]).collect()
    }

    /// (each sender's drain time, the payloads each receiver heard,
    /// cross-shard payload count)
    type IslandOutcome = (
        Vec<Option<SimTime>>,
        Vec<Vec<(SimTime, NodeId, Vec<u64>)>>,
        u64,
    );

    /// Four [`islands`], `a_i` uploading `100 kB × (i + 1)` to `b_i`
    /// while every `b` publishes to the next island's every 5 ms, run
    /// for 5 s with island `i` on shard `shard_of[i]`.
    fn run_islands(shard_of: &[u32]) -> IslandOutcome {
        let (t, pairs) = islands(4);
        let mut sim = Simulator::new_sharded(t, 11, island_shards(shard_of));
        for (i, &(a, b)) in pairs.iter().enumerate() {
            sim.add_app(
                a,
                Box::new(Sender {
                    dst: b,
                    bytes: 100_000 * (i as u64 + 1),
                    flow: None,
                    drained_at: None,
                }),
            );
            let next = pairs[(i + 1) % pairs.len()].1;
            sim.add_app(b, Beacon::new(next, SimDuration::from_millis(1), 5));
        }
        sim.run_until(SimTime::from_secs(5));
        let drains = pairs
            .iter()
            .map(|&(a, _)| {
                sim.app::<Sender>(a)
                    .expect("invariant: Sender installed on every a")
                    .drained_at
            })
            .collect();
        let heard = pairs
            .iter()
            .map(|&(_, b)| {
                sim.app::<Beacon>(b)
                    .expect("invariant: Beacon installed on every b")
                    .got
                    .clone()
            })
            .collect();
        (drains, heard, sim.cross_shard_events())
    }

    #[test]
    fn sharded_run_matches_single_shard_exactly() {
        // Each island runs its own TCP upload while the islands trade
        // control payloads: a shard per island must reproduce one loop.
        let single = run_islands(&[0, 0, 0, 0]);
        let sharded = run_islands(&[0, 1, 2, 3]);
        assert!(single.0.iter().all(Option::is_some), "every upload drained");
        assert!(
            single.1.iter().all(|got| got.len() >= 900),
            "payloads flowed"
        );
        assert_eq!(single.0, sharded.0, "drain times differ");
        assert_eq!(single.1, sharded.1, "payload timelines differ");
        assert_eq!(single.2, 0, "single shard crosses no boundary");
        assert_eq!(sharded.2, 4 * 1000, "every payload crossed");
    }

    #[test]
    fn shard_count_does_not_change_results() {
        // Every grouping of the same islands onto shards agrees.
        let one = run_islands(&[0, 0, 0, 0]);
        let a = run_islands(&[0, 1, 1, 1]);
        let b = run_islands(&[0, 1, 0, 1]);
        let c = run_islands(&[1, 0, 2, 0]);
        assert_eq!((&one.0, &one.1), (&a.0, &a.1));
        assert_eq!((&one.0, &one.1), (&b.0, &b.1));
        assert_eq!((&one.0, &one.1), (&c.0, &c.1));
    }

    #[test]
    #[should_panic(expected = "carries packets")]
    fn new_sharded_rejects_a_packet_capable_cross_shard_link() {
        let (t, _, _) = star(2, false);
        Simulator::new_sharded(t, 1, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "app exploded")]
    fn sharded_panic_propagates_instead_of_hanging() {
        struct Bomb;
        impl App for Bomb {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {
                panic!("app exploded");
            }
        }
        // Three islands whose receivers publish round the mesh every
        // 10 ms, so the shards meet at a barrier each period; island 0's
        // sender explodes while the other two are mid-upload.
        let run = |assignment: Vec<u32>| {
            let (t, pairs) = islands(3);
            let mut sim = Simulator::new_sharded(t, 5, assignment);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                if i == 0 {
                    sim.add_app(a, Box::new(Bomb));
                } else {
                    sim.add_app(
                        a,
                        Box::new(Sender {
                            dst: b,
                            bytes: 100_000,
                            flow: None,
                            drained_at: None,
                        }),
                    );
                }
                let next = pairs[(i + 1) % pairs.len()].1;
                sim.add_app(b, Beacon::new(next, SimDuration::from_millis(1), 10));
            }
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_until(SimTime::from_secs(5));
            }))
            .expect_err("the bomb goes off")
        };
        let single = run(island_shards(&[0, 0, 0]));
        // Without barrier poisoning the surviving shards would park
        // forever and this would hang rather than return.
        let sharded = run(island_shards(&[0, 1, 2]));
        assert_eq!(
            single.downcast_ref::<&str>(),
            sharded.downcast_ref::<&str>()
        );
        std::panic::resume_unwind(sharded);
    }

    #[test]
    fn pairwise_lookahead_closes_over_shard_hops_and_echo_cycles() {
        let ms = SimDuration::from_millis;
        let delay = |sim: &Simulator, from: usize, to: usize| {
            let d = sim.lookahead.d[from * sim.num_shards() + to];
            (d != NO_INTERACTION).then(|| SimDuration::from_nanos(d))
        };
        // Shard 0 = hub; shard 1 = leaves with 2/3 ms links; shard 2 =
        // leaves with 4/5 ms links.
        let (t, _, _) = star(4, true);
        let sim = Simulator::new_sharded(t, 1, vec![0, 1, 1, 2, 2]);
        assert_eq!(delay(&sim, 1, 0), Some(ms(2)));
        assert_eq!(delay(&sim, 0, 1), Some(ms(2)));
        assert_eq!(delay(&sim, 2, 0), Some(ms(4)));
        // No direct links between the leaf shards: the closure routes
        // their distance through the hub shard.
        assert_eq!(delay(&sim, 1, 2), Some(ms(6)));
        assert_eq!(delay(&sim, 2, 1), Some(ms(6)));
        // Diagonals are echo cycles (out through a peer and back), not
        // zero — a closure fact only: no window bound reads them.
        assert_eq!(delay(&sim, 0, 0), Some(ms(4)));
        assert_eq!(delay(&sim, 1, 1), Some(ms(4)));
        assert_eq!(delay(&sim, 2, 2), Some(ms(8)));
        // Single-shard simulations have no cross-shard constraint.
        let (t, _, _) = star(2, false);
        assert_eq!(delay(&Simulator::new(t, 1), 0, 0), None);

        // a <-1 ms-> b, b <-2 ms-> c and a <-9 ms-> c, a shard each: the
        // closure takes the shorter way round, through the third shard.
        let mut tb = TopologyBuilder::new();
        let (a, b, c) = (tb.node(), tb.node(), tb.node());
        let link = |d| LinkConfig::new(2_000_000, ms(d)).control_only();
        tb.duplex(a, b, link(1));
        tb.duplex(b, c, link(2));
        tb.duplex(a, c, link(9));
        let sim = Simulator::new_sharded(tb.build(), 1, vec![0, 1, 2]);
        assert_eq!(delay(&sim, 1, 2), Some(ms(2)));
        assert_eq!(delay(&sim, 0, 2), Some(ms(3)), "via b, not the 9 ms link");
        assert_eq!(delay(&sim, 0, 0), Some(ms(2)), "echo through b");
        assert_eq!(delay(&sim, 2, 2), Some(ms(4)));
    }

    // ------------------------------------------------- window bounds

    #[test]
    fn a_shard_that_sends_nothing_runs_in_one_window() {
        // Leaves tick local 1 ms timers on shard 1; the hub, alone on
        // shard 0, ticks too but declares a quiet floor past the end of
        // the run. Neither side can hand the other anything before the
        // run is over, so each runs to the end in one window: a busy
        // peer bounds nothing that its floor does not.
        let run = |assignment: Vec<u32>| {
            let (t, hub, leaves) = star(4, true);
            let mut sim = Simulator::new_sharded(t, 3, assignment);
            for &n in &leaves {
                sim.add_app(
                    n,
                    Box::new(Heartbeat {
                        period: SimDuration::from_millis(1),
                        fires: Vec::new(),
                        restarts: Vec::new(),
                    }),
                );
            }
            sim.add_app(
                hub,
                Beacon::new(leaves[0], SimDuration::from_millis(1), 5_000),
            );
            sim.run_until(SimTime::from_secs(2));
            let fired: Vec<_> = leaves
                .iter()
                .map(|&n| {
                    sim.app::<Heartbeat>(n)
                        .expect("invariant: Heartbeat installed on every leaf")
                        .fires
                        .clone()
                })
                .collect();
            (fired, sim.cross_shard_events(), sim.window_ends())
        };
        let single = run(vec![0; 5]);
        let sharded = run(vec![0, 1, 1, 1, 1]);
        assert_eq!(single.0, sharded.0, "tick timelines differ");
        assert_eq!(single.0[0].len(), 2000);
        assert_eq!(sharded.1, 0, "nothing crossed");
        // One window, counted once per shard.
        let one_each = WindowEnds {
            by_until: 2,
            ..WindowEnds::default()
        };
        assert_eq!(sharded.2, one_each);
    }

    #[test]
    fn three_shard_ring_with_unequal_delays_matches_single_shard() {
        // a -> b is 1 ms, but b's direct link back takes 10 ms: the
        // shortest way anything a hands b can come back is b -> c -> a
        // (2 ms), through a third shard. Each node publishes to the next
        // one round the ring on a period of its own (3, 5 and 7 ms), so
        // a payload often falls due before its sender's window would
        // have ended: all three shards end windows on their own sends.
        let run = |assignment: Vec<u32>| {
            let mut tb = TopologyBuilder::new();
            let (a, b, c) = (tb.node(), tb.node(), tb.node());
            let ms = SimDuration::from_millis;
            let link = |d| LinkConfig::new(2_000_000, ms(d)).control_only();
            tb.link(a, b, link(1));
            tb.link(b, a, link(10));
            tb.duplex(b, c, link(1));
            tb.duplex(c, a, link(1));
            let mut sim = Simulator::new_sharded(tb.build(), 17, assignment);
            for (n, dst, every) in [(a, b, 3), (b, c, 5), (c, a, 7)] {
                sim.add_app(n, Beacon::new(dst, ms(1), every));
            }
            if sim.num_shards() == 3 {
                let d = |from: usize, to: usize| sim.lookahead.d[from * 3 + to];
                assert_eq!(d(1, 0), ms(2).as_nanos(), "closed, not direct");
                assert_eq!(d(0, 1), ms(1).as_nanos());
            }
            sim.run_until(SimTime::from_secs(1));
            let got: Vec<_> = [a, b, c]
                .iter()
                .map(|&n| {
                    sim.app::<Beacon>(n)
                        .expect("invariant: Beacon installed on every node")
                        .got
                        .clone()
                })
                .collect();
            (got, sim.window_ends())
        };
        let single = run(vec![0; 3]);
        let ring = run(vec![0, 1, 2]);
        assert!(
            single.0.iter().all(|got| got.len() >= 100),
            "every node heard its neighbour"
        );
        assert_eq!(single.0, ring.0, "K = 3 must equal K = 1");
        assert!(ring.1.by_own_send > 0, "hand-offs ended windows");
    }

    #[test]
    fn barrier_watchdog_rearms_while_a_peer_makes_progress() {
        // A peer that works through five watchdog periods before it
        // arrives, its event count moving all the while, is healthy: the
        // parked waiter must re-arm each time instead of firing.
        let deadline = std::time::Duration::from_millis(20);
        let barrier = SpinBarrier::new(2, usize::MAX, deadline); // no spinning: park at once
        let events = AtomicU64::new(0);
        let waited = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut parks = 0;
                let waited = barrier.wait(|| events.load(Ordering::Relaxed), &mut parks);
                (waited, parks)
            });
            for _ in 0..100 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                events.fetch_add(1, Ordering::Relaxed);
            }
            let mut parks = 0;
            assert_eq!(barrier.wait(|| 0, &mut parks), BarrierWait::Released);
            let (waited, waiter_parks) = waiter.join().expect("waiter thread exits");
            (waited, parks + waiter_parks)
        });
        // Without spinning, whichever of the two arrived first parked.
        assert_eq!(waited, (BarrierWait::Released, 1));
    }

    /// 10^5 releases between two threads: no wake-up may be lost (a
    /// parked waiter nobody notifies would sit out the 10 s watchdog and
    /// report `TimedOut`) and nobody may leave a round its peer has not
    /// entered.
    /// Returns how many waits parked, over both threads.
    fn hammer_barrier(live_threads: usize) -> u64 {
        const ROUNDS: usize = 100_000;
        let barrier = SpinBarrier::new(2, live_threads, std::time::Duration::from_secs(10));
        let arrivals = AtomicUsize::new(0);
        let rounds = || {
            let mut parks = 0;
            for round in 1..=ROUNDS {
                arrivals.fetch_add(1, Ordering::SeqCst);
                assert_eq!(
                    barrier.wait(|| 0, &mut parks),
                    BarrierWait::Released,
                    "round {round}"
                );
                assert!(
                    arrivals.load(Ordering::SeqCst) >= 2 * round,
                    "round {round}"
                );
            }
            parks
        };
        let parks = std::thread::scope(|scope| {
            let peer = scope.spawn(rounds);
            rounds() + peer.join().expect("peer thread exits")
        });
        assert_eq!(barrier.parked.load(Ordering::SeqCst), 0);
        parks
    }

    #[test]
    fn barrier_loses_no_wakeup_when_every_wait_parks() {
        // Oversubscribed: no spin, so every round's first arrival parks.
        let parks = hammer_barrier(usize::MAX);
        assert_eq!(parks, 100_000);
    }

    #[test]
    fn barrier_loses_no_wakeup_when_waits_spin() {
        hammer_barrier(0); // spins up to `SPIN_FOR`, whatever the host
    }

    // ------------------------------------------- app control payloads

    /// Broadcasts a control payload to its peers at fixed times.
    struct CtlSender {
        peers: Vec<NodeId>,
        payload: Vec<u64>,
    }
    impl App for CtlSender {
        fn start(&mut self, ctx: &mut Ctx) {
            let after = SimDuration::from_millis(10);
            ctx.control_quiet_until(ctx.now() + after);
            ctx.set_timer(after, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            for &p in &self.peers {
                ctx.send_control(p, self.payload.clone().into_boxed_slice());
            }
        }
    }
    /// Records control arrivals `(time, src, payload)`.
    #[derive(Default)]
    struct CtlReceiver {
        got: Vec<(SimTime, NodeId, Vec<u64>)>,
    }
    impl App for CtlReceiver {
        fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
            self.got.push((ctx.now(), src, payload.to_vec()));
        }
    }

    #[test]
    fn control_payload_arrives_at_path_delay() {
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 31);
        sim.add_app(
            a,
            Box::new(CtlSender {
                peers: vec![z],
                payload: vec![7, 8, 9],
            }),
        );
        sim.add_app(z, Box::new(CtlReceiver::default()));
        sim.run_until(SimTime::from_secs(1));
        let rx = sim
            .app::<CtlReceiver>(z)
            .expect("invariant: CtlReceiver installed on z");
        assert_eq!(
            rx.got,
            vec![(SimTime::from_nanos(15_000_000), a, vec![7, 8, 9])]
        );
    }

    #[test]
    fn simultaneous_control_sends_are_shard_invariant() {
        // Every leaf broadcasts to the hub at the same instant over
        // equal-delay links, so all four payloads *arrive* at the same
        // instant: the tie must order identically in every sharding
        // (the source-keyed control lane provides the canonical order).
        let equal_star = || {
            let mut b = TopologyBuilder::new();
            let hub = b.node();
            let leaves: Vec<_> = (0..4)
                .map(|_| {
                    let n = b.node();
                    b.duplex(
                        n,
                        hub,
                        LinkConfig::new(2_000_000, SimDuration::from_millis(3)).control_only(),
                    );
                    n
                })
                .collect();
            (b.build(), hub, leaves)
        };
        let run = |assignment: Option<Vec<u32>>| {
            let (t, hub, leaves) = equal_star();
            let mut sim = match assignment {
                None => Simulator::new(t, 13),
                Some(asg) => Simulator::new_sharded(t, 13, asg),
            };
            for (i, &n) in leaves.iter().enumerate() {
                sim.add_app(
                    n,
                    Box::new(CtlSender {
                        peers: vec![hub],
                        payload: vec![i as u64],
                    }),
                );
            }
            sim.add_app(hub, Box::new(CtlReceiver::default()));
            sim.run_until(SimTime::from_secs(1));
            sim.app::<CtlReceiver>(hub)
                .expect("invariant: CtlReceiver installed on hub")
                .got
                .clone()
        };
        let single = run(None);
        assert_eq!(single.len(), 4, "all payloads delivered");
        assert_eq!(single, run(Some(vec![0, 1, 1, 2, 2])));
        assert_eq!(single, run(Some(vec![0, 1, 2, 3, 4])));
    }

    // ------------------------- control-only links and quiet floors

    /// Ticks every `tick` and, every `every`-th tick, sends its tick
    /// count to `peer` as a control payload — declaring its quiet floor
    /// one period ahead each time, as a replica publishing digests does.
    struct Beacon {
        peer: NodeId,
        tick: SimDuration,
        every: u64,
        ticks: u64,
        got: Vec<(SimTime, NodeId, Vec<u64>)>,
        restarts: Vec<SimTime>,
    }
    impl Beacon {
        fn new(peer: NodeId, tick: SimDuration, every: u64) -> Box<Self> {
            Box::new(Beacon {
                peer,
                tick,
                every,
                ticks: 0,
                got: Vec::new(),
                restarts: Vec::new(),
            })
        }
    }
    impl App for Beacon {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.control_quiet_until(ctx.now() + self.tick * self.every);
            ctx.set_timer(self.tick, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.ticks += 1;
            if self.ticks.is_multiple_of(self.every) {
                ctx.send_control(self.peer, vec![self.ticks].into_boxed_slice());
                ctx.control_quiet_until(ctx.now() + self.tick * self.every);
            }
            ctx.set_timer(self.tick, 0);
        }
        fn on_control(&mut self, ctx: &mut Ctx, src: NodeId, payload: &[u64]) {
            self.got.push((ctx.now(), src, payload.to_vec()));
        }
        fn on_restart(&mut self, ctx: &mut Ctx) {
            self.restarts.push(ctx.now());
            self.ticks = 0;
            self.start(ctx);
        }
    }

    /// Two beacons (1 ms ticks; `x` sends every `x_every`-th, `y` every
    /// 10th) joined by nothing but a 500 µs control-only link, run to
    /// each of `stops_ms` in turn: what each received and when it
    /// restarted, plus the engine's window counts.
    type BeaconLog = Vec<(Vec<(SimTime, NodeId, Vec<u64>)>, Vec<SimTime>)>;
    fn run_beacons(
        assignment: Option<Vec<u32>>,
        x_every: u64,
        stops_ms: &[u64],
        faults: impl Fn(NodeId, NodeId) -> FaultSchedule,
    ) -> (BeaconLog, WindowEnds, u64) {
        let mut b = TopologyBuilder::new();
        let (x, y) = (b.node(), b.node());
        let mesh = LinkConfig::new(1_000_000_000, SimDuration::from_micros(500)).control_only();
        b.duplex(x, y, mesh);
        let t = b.build();
        let mut sim = match assignment {
            None => Simulator::new(t, 29),
            Some(a) => Simulator::new_sharded(t, 29, a),
        };
        let tick = SimDuration::from_millis(1);
        sim.add_app(x, Beacon::new(y, tick, x_every));
        sim.add_app(y, Beacon::new(x, tick, 10));
        sim.inject_faults(&faults(x, y));
        for &ms in stops_ms {
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
        }
        let log = [x, y]
            .iter()
            .map(|&n| {
                let app = sim
                    .app::<Beacon>(n)
                    .expect("invariant: Beacon installed on both nodes");
                (app.got.clone(), app.restarts.clone())
            })
            .collect();
        (log, sim.window_ends(), sim.cross_shard_events())
    }

    #[test]
    fn quiet_floors_open_one_window_per_control_period() {
        let single = run_beacons(None, 10, &[1000], no_faults);
        let split = run_beacons(Some(vec![0, 1]), 10, &[1000], no_faults);
        assert_eq!(single.0, split.0, "K = 2 must equal K = 1");
        // Payloads leave at 10, 20, … 1000 ms; the last lands past the end.
        assert_eq!(single.0[0].0.len(), 99);
        assert_eq!(
            single.0[1].0[0],
            (
                SimTime::from_nanos(10_500_000),
                NodeId::from_index(0),
                vec![10]
            )
        );
        assert_eq!(split.2, 200, "nothing but the payloads crossed");
        // The peer ticks every millisecond, 500 µs away: bounded by its
        // next event the run would take ~2000 windows. Bounded by its
        // floor it takes one per period (+1 to find the run over).
        let ends = split.1;
        let windows = (ends.by_peer + ends.by_own_send + ends.by_until + ends.by_floor) / 2;
        assert!(
            (100..=102).contains(&windows),
            "{windows} windows: {ends:?}"
        );
        assert!(ends.by_floor > 0, "{ends:?}");
    }

    #[test]
    fn a_crashed_control_node_restarts_shard_invariantly() {
        // y dies mid-period (its floor, declared at 40 ms for 50 ms, goes
        // stale) and comes back at 68.5 ms with a new cadence: payloads
        // at 78.5, 88.5, … ms. x, itself silent until 200 ms, has only
        // y's floor to stop it. The driver pauses the clock at 60 ms, so
        // the next window is opened on what a *downed* y publishes: the
        // stale floor must still count (x may not run past the restart
        // to its own send at 200 ms), and after the restart the new one.
        let crash = |_x: NodeId, y: NodeId| {
            let mut f = FaultSchedule::new();
            f.node_crash(
                SimTime::from_nanos(43_500_000),
                y,
                SimDuration::from_millis(25),
            );
            f
        };
        let stops = [60, 1000];
        let single = run_beacons(None, 200, &stops, crash);
        assert_eq!(single.0[1].1, vec![SimTime::from_nanos(68_500_000)]);
        let from_y: Vec<SimTime> = single.0[0].0.iter().map(|g| g.0).collect();
        assert_eq!(from_y[3], SimTime::from_nanos(40_500_000));
        assert_eq!(from_y[4], SimTime::from_nanos(79_000_000));
        assert_eq!(
            single.0,
            run_beacons(Some(vec![0, 1]), 200, &stops, crash).0
        );
        assert_eq!(
            single.0,
            run_beacons(Some(vec![1, 0]), 200, &stops, crash).0
        );
    }

    /// Runs `misuse` from a timer 5 ms in, after declaring (or not) a
    /// quiet floor in `start` — on one shard, where no window is at
    /// stake: the promises are checked in every layout.
    fn misuse_control(floor_ms: Option<u64>, misuse: fn(&mut Ctx, NodeId)) {
        struct Misuser {
            peer: NodeId,
            floor_ms: Option<u64>,
            misuse: fn(&mut Ctx, NodeId),
        }
        impl App for Misuser {
            fn start(&mut self, ctx: &mut Ctx) {
                if let Some(ms) = self.floor_ms {
                    ctx.control_quiet_until(SimTime::ZERO + SimDuration::from_millis(ms));
                }
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
                (self.misuse)(ctx, self.peer);
            }
        }
        let (t, a, z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 1);
        sim.add_app(
            a,
            Box::new(Misuser {
                peer: z,
                floor_ms,
                misuse,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "before its quiet floor")]
    fn send_control_before_the_declared_floor_panics() {
        misuse_control(Some(6), |ctx, peer| ctx.send_control(peer, Box::new([1])));
    }

    #[test]
    #[should_panic(expected = "declared no control quiet floor")]
    fn send_control_without_a_floor_panics() {
        misuse_control(None, |ctx, peer| ctx.send_control(peer, Box::new([1])));
    }

    #[test]
    #[should_panic(expected = "declared outside App::start")]
    fn a_first_floor_outside_start_panics() {
        misuse_control(None, |ctx, _| ctx.control_quiet_until(ctx.now()));
    }

    #[test]
    #[should_panic(expected = "lowered from")]
    fn lowering_a_floor_panics() {
        misuse_control(Some(6), |ctx, _| ctx.control_quiet_until(ctx.now()));
    }

    #[test]
    #[should_panic(expected = "crosses a control-only link")]
    fn open_flow_across_a_control_only_link_panics() {
        let mut b = TopologyBuilder::new();
        let (a, m, z) = (b.node(), b.node(), b.node());
        let link = LinkConfig::new(1_000_000, SimDuration::from_millis(1));
        b.duplex(a, m, link);
        b.duplex(m, z, link.control_only());
        let mut sim = Simulator::new(b.build(), 1);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 100,
                flow: None,
                drained_at: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
    }

    /// Watches a peer's flow from its first tick on and drains delivery
    /// progress on a fixed timer cadence, logging what each drain saw.
    struct ProgressWatcher {
        watched: FlowId,
        watching: bool,
        offset: SimDuration,
        period: SimDuration,
        log: Vec<(SimTime, u64)>,
        scratch: Vec<FlowId>,
    }

    impl App for ProgressWatcher {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.offset, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            // A flow can be watched once its open record has arrived:
            // by the first tick, not at start.
            if !std::mem::replace(&mut self.watching, true) {
                ctx.watch_flow(self.watched);
            }
            let mut out = std::mem::take(&mut self.scratch);
            out.clear();
            ctx.drain_progress(&mut out);
            for &f in &out {
                self.log
                    .push((ctx.now(), ctx.receiver(f).delivered_bytes()));
            }
            self.scratch = out;
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn progress_drains_are_node_local_in_every_sharding() {
        // Two disjoint sender -> watcher pairs on one shard, whose drain
        // timers are offset by 1 ms. Watches are node-keyed, so each
        // watcher's drain sees exactly its own flow's progress: a drain
        // that consumed the co-located peer's entries would read a flow
        // that terminates elsewhere (a panic) or starve the peer.
        let mut b = TopologyBuilder::new();
        let link = LinkConfig::new(1_000_000, SimDuration::from_millis(2));
        let s0 = b.node();
        let w0 = b.node();
        b.duplex(s0, w0, link);
        let s1 = b.node();
        let w1 = b.node();
        b.duplex(s1, w1, link);
        let mut sim = Simulator::new(b.build(), 47);
        for (s, w) in [(s0, w0), (s1, w1)] {
            sim.add_app(
                s,
                Box::new(Sender {
                    dst: w,
                    bytes: 30_000,
                    flow: None,
                    drained_at: None,
                }),
            );
        }
        for (i, (s, w)) in [(s0, w0), (s1, w1)].into_iter().enumerate() {
            sim.add_app(
                w,
                Box::new(ProgressWatcher {
                    watched: flow_id(s, 0),
                    watching: false,
                    offset: SimDuration::from_millis(10 + i as u64),
                    period: SimDuration::from_millis(10),
                    log: Vec::new(),
                    scratch: Vec::new(),
                }),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        for w in [w0, w1] {
            let log = &sim
                .app::<ProgressWatcher>(w)
                .expect("invariant: ProgressWatcher installed")
                .log;
            assert!(
                log.len() >= 5,
                "{w} saw steady progress: {} drains",
                log.len()
            );
            assert!(
                log.windows(2).all(|p| p[0].1 < p[1].1),
                "{w} drained a flow that had not moved: {log:?}"
            );
            assert_eq!(log.last().map(|e| e.1), Some(30_000), "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "no lookahead")]
    fn zero_delay_cross_shard_link_is_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        b.duplex(
            a,
            z,
            LinkConfig::new(1_000_000, SimDuration::ZERO).control_only(),
        );
        Simulator::new_sharded(b.build(), 1, vec![0, 1]);
    }

    // ------------------------------------------------ fault injection

    #[test]
    fn link_flap_drops_traffic_and_transfer_recovers() {
        // A bulk transfer over a link that dies for 2 s mid-flight: the
        // flap must drop packets (queue flush + doomed in-flight), the
        // loss must be attributed to the flap, and the transport must
        // still complete the transfer after recovery.
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        let (fwd, _rev) = b.duplex(
            a,
            z,
            LinkConfig::new(2_000_000, SimDuration::from_millis(10)),
        );
        let mut sim = Simulator::new(b.build(), 71);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 2_000_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(Receiver::default()));
        let mut faults = FaultSchedule::new();
        faults.link_down(SimTime::from_secs(3), fwd, SimDuration::from_secs(2));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(60));
        let stats = sim.world().link_stats(fwd);
        assert!(stats.drops_down > 0, "flap must drop packets");
        assert!(sim.total_drops() >= stats.drops_down);
        let done = sim
            .app::<Sender>(a)
            .expect("invariant: Sender installed on a")
            .drained_at
            .expect("transfer must finish after the link recovers");
        // Loss-free the transfer takes ~8.2 s; the 2 s hole plus the
        // retransmission backoff push it past 10 s but it must converge.
        assert!(done > SimTime::from_secs(10), "flap had no effect: {done}");
    }

    #[test]
    fn link_flap_leaves_loss_sampler_stream_untouched() {
        // On a lossy link, the Bernoulli stream must consume one roll
        // per *offered* packet whether or not a flap is layered on. Run
        // the same workload with and without a flap and compare the
        // post-recovery drop pattern indirectly: total sampled drops
        // (overall drops minus flap-attributed drops) must evolve from
        // the same stream, so the faulted run's sampled drops never
        // exceed what the sampler drew in the clean run by more than
        // the extra packets retransmission generates. The cheap, exact
        // check: a flap on a *loss-free* link must not panic or drop
        // anything once it is back up, and a clean rerun is identical.
        let run = |flap: bool| {
            let mut b = TopologyBuilder::new();
            let a = b.node();
            let z = b.node();
            let (fwd, _) = b.duplex(
                a,
                z,
                LinkConfig::new(5_000_000, SimDuration::from_millis(5)).drop_prob(0.05),
            );
            let mut sim = Simulator::new(b.build(), 4);
            sim.add_app(
                a,
                Box::new(Sender {
                    dst: z,
                    bytes: 500_000,
                    flow: None,
                    drained_at: None,
                }),
            );
            sim.add_app(z, Box::new(Receiver::default()));
            if flap {
                let mut faults = FaultSchedule::new();
                faults.link_down(SimTime::from_secs(1), fwd, SimDuration::from_millis(500));
                sim.inject_faults(&faults);
            }
            sim.run_until(SimTime::from_secs(120));
            let rx_done = sim.world().receiver(flow_id(a, 0)).delivered_bytes();
            (rx_done, sim.world().link_stats(fwd).drops_down)
        };
        let (clean_bytes, clean_down) = run(false);
        let (flap_bytes, flap_down) = run(true);
        assert_eq!(clean_bytes, 500_000);
        assert_eq!(flap_bytes, 500_000, "delivery survives flap + loss");
        assert_eq!(clean_down, 0);
        assert!(flap_down > 0, "the flap dropped something");
    }

    /// Fires a periodic timer and logs every fire; records restarts.
    struct Heartbeat {
        period: SimDuration,
        fires: Vec<SimTime>,
        restarts: Vec<SimTime>,
    }
    impl App for Heartbeat {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.fires.push(ctx.now());
            ctx.set_timer(self.period, 0);
        }
        fn on_restart(&mut self, ctx: &mut Ctx) {
            self.restarts.push(ctx.now());
            // Re-arm: the pre-crash timer chain died with the node.
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn crashed_node_loses_timers_and_restart_reinitializes() {
        let (t, a, _z) = two_nodes(1_000_000, 2);
        let mut sim = Simulator::new(t, 8);
        sim.add_app(
            a,
            Box::new(Heartbeat {
                period: SimDuration::from_millis(100),
                fires: vec![],
                restarts: vec![],
            }),
        );
        let mut faults = FaultSchedule::new();
        faults.node_crash(
            SimTime::from_nanos(450_000_000),
            a,
            SimDuration::from_millis(400),
        );
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(2));
        let hb = sim
            .app::<Heartbeat>(a)
            .expect("invariant: Heartbeat installed on a");
        assert_eq!(hb.restarts, vec![SimTime::from_nanos(850_000_000)]);
        // Fires at 100..400 ms, silence through the outage (the 500 ms
        // pre-crash timer dies with its incarnation), then the restart
        // re-arms: 950 ms onward.
        let expect_head: Vec<_> = (1..=4)
            .map(|i| SimTime::from_nanos(i * 100_000_000))
            .collect();
        assert_eq!(&hb.fires[..4], &expect_head[..]);
        assert_eq!(hb.fires[4], SimTime::from_nanos(950_000_000));
        assert_eq!(hb.fires.len(), 4 + 11, "steady 100 ms cadence resumes");
    }

    #[test]
    fn crashed_node_aborts_its_flows_and_notifies_peers() {
        struct CrashWatch {
            aborted: Vec<(SimTime, FlowId)>,
        }
        impl App for CrashWatch {
            fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
                self.aborted.push((ctx.now(), flow));
            }
        }
        let (t, a, z) = two_nodes(1_000_000, 5);
        let mut sim = Simulator::new(t, 9);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 10_000_000, // cannot finish before the crash
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(z, Box::new(CrashWatch { aborted: vec![] }));
        let mut faults = FaultSchedule::new();
        faults.node_crash(SimTime::from_secs(1), a, SimDuration::from_secs(1));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(5));
        let f = flow_id(a, 0);
        assert!(sim.world().tx.is_retired(f), "sender half retired");
        assert!(sim.world().rx.is_retired(f), "receiver half retired");
        let w = sim
            .app::<CrashWatch>(z)
            .expect("invariant: CrashWatch installed on z");
        // The abort record travels at path propagation delay (5 ms).
        assert_eq!(w.aborted, vec![(SimTime::from_nanos(1_005_000_000), f)]);
    }

    #[test]
    fn crash_purges_the_nodes_flow_watches() {
        // Satellite regression: watches held by a crashed node must be
        // purged (and their queued progress entries dropped) — before
        // the fix nothing removed them, so a reborn watcher inherited a
        // ghost watch and stale progress.
        let (t, a, z) = two_nodes(1_000_000, 2);
        let mut sim = Simulator::new(t, 10);
        sim.add_app(
            a,
            Box::new(Sender {
                dst: z,
                bytes: 10_000_000,
                flow: None,
                drained_at: None,
            }),
        );
        sim.add_app(
            z,
            Box::new(ProgressWatcher {
                watched: flow_id(a, 0),
                watching: false,
                offset: SimDuration::from_millis(10),
                period: SimDuration::from_millis(10),
                log: Vec::new(),
                scratch: Vec::new(),
            }),
        );
        let mut faults = FaultSchedule::new();
        faults.node_crash(SimTime::from_secs(1), z, SimDuration::from_secs(1));
        sim.inject_faults(&faults);
        sim.run_until(SimTime::from_secs(3));
        let f = flow_id(a, 0);
        let world = sim.world();
        assert!(
            world.rx.is_retired(f) && world.rx.iter().all(|(_, h)| h.watch.is_none()),
            "crash must purge the dead node's watch"
        );
        assert!(
            world.progress_rx.is_empty(),
            "queued progress for purged watches must be dropped"
        );
        let w = sim
            .app::<ProgressWatcher>(z)
            .expect("invariant: ProgressWatcher installed on z");
        // The drain timer at exactly t = 1 s still fires (node lane
        // sorts before the fault lane at equal time); nothing after.
        assert!(
            w.log.last().expect("some drains happened").0 <= SimTime::from_secs(1),
            "no progress credited after the watch died"
        );
    }

    #[test]
    fn faults_are_shard_invariant() {
        // An explicit fault schedule (one leaf link flap + one leaf
        // crash) replays exactly: fault events ride canonical lanes. A
        // star of packet-capable links is one island, so its sharded
        // counterpart is the replica-island battery in `speakup-exp`.
        let run = || {
            let (t, hub, leaves) = star(4, false);
            let flapped_link = LinkId(0); // leaves[0] -> hub
            let mut sim = Simulator::new(t, 29);
            for (i, &n) in leaves.iter().enumerate() {
                sim.add_app(
                    n,
                    Box::new(Sender {
                        dst: hub,
                        bytes: 100_000 * (i as u64 + 1),
                        flow: None,
                        drained_at: None,
                    }),
                );
            }
            sim.add_app(hub, Box::new(Receiver::default()));
            let mut faults = FaultSchedule::new();
            faults
                .link_down(
                    SimTime::from_nanos(200_000_000),
                    flapped_link,
                    SimDuration::from_millis(300),
                )
                .node_crash(SimTime::from_secs(1), leaves[1], SimDuration::from_secs(2));
            sim.inject_faults(&faults);
            sim.run_until(SimTime::from_secs(20));
            let got = sim
                .app::<Receiver>(hub)
                .expect("invariant: Receiver installed on hub")
                .got
                .clone();
            let drains: Vec<_> = leaves
                .iter()
                .map(|&n| {
                    sim.app::<Sender>(n)
                        .expect("invariant: Sender installed on every leaf")
                        .drained_at
                })
                .collect();
            (got, drains, sim.total_drops())
        };
        let first = run();
        assert!(first.2 > 0, "the schedule dropped something");
        assert_eq!(first, run());
    }

    // ---------------------------------------------- flow retirement

    /// One step of a [`Scripted`] endpoint, run when its timer fires.
    #[derive(Clone, Copy)]
    enum Step {
        /// Open the flow under test toward the node and write this much.
        Open(NodeId, u64),
        /// Write another message (tag 2) of this many bytes.
        Send(u64),
        Abort,
        Watch,
        /// Read the sender half through [`Ctx::sender`].
        Read,
    }

    /// An endpoint that plays a fixed timeline against one flow and logs
    /// every callback it hears about it.
    struct Scripted {
        flow: FlowId,
        script: Vec<(SimDuration, Step)>,
        log: Vec<(SimTime, &'static str, u64)>,
    }

    impl Scripted {
        fn new(flow: FlowId, script: &[(u64, Step)]) -> Box<Self> {
            Box::new(Scripted {
                flow,
                script: script
                    .iter()
                    .map(|&(ms, step)| (SimDuration::from_millis(ms), step))
                    .collect(),
                log: Vec::new(),
            })
        }
    }

    impl App for Scripted {
        fn start(&mut self, ctx: &mut Ctx) {
            for (i, &(after, _)) in self.script.iter().enumerate() {
                ctx.set_timer(after, i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            match self.script[token as usize].1 {
                Step::Open(dst, bytes) => {
                    let f = ctx.open_default_flow(dst);
                    assert_eq!(f, self.flow, "the script opens exactly the flow under test");
                    ctx.send(f, bytes, 1);
                }
                Step::Send(bytes) => ctx.send(self.flow, bytes, 2),
                Step::Abort => ctx.abort_flow(self.flow),
                Step::Watch => ctx.watch_flow(self.flow),
                Step::Read => {
                    let seen = ctx.sender(self.flow).written_bytes();
                    self.log.push((ctx.now(), "read", seen));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _flow: FlowId, tag: u64) {
            self.log.push((ctx.now(), "message", tag));
        }
        fn on_flow_drained(&mut self, ctx: &mut Ctx, _flow: FlowId) {
            self.log.push((ctx.now(), "drained", 0));
        }
        fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
            // The half is still there for the callback to settle accounts.
            let bytes = if opened_by(ctx.node(), flow) {
                let f = ctx.sender(flow);
                assert!(f.is_aborted());
                f.acked_bytes()
            } else {
                let f = ctx.receiver(flow);
                assert!(f.is_aborted());
                f.delivered_bytes()
            };
            self.log.push((ctx.now(), "aborted", bytes));
        }
    }

    /// What a retirement scenario left behind.
    #[derive(Debug, PartialEq)]
    struct Aftermath {
        a_log: Vec<(SimTime, &'static str, u64)>,
        z_log: Vec<(SimTime, &'static str, u64)>,
        total_drops: u64,
        /// Sender half at `a`, receiver half at `z`: tombstones?
        retired: (bool, bool),
        /// Both halves' watches and queued progress entries are gone.
        watches_purged: bool,
        /// Every straggler was popped (and dropped), none is pending.
        queues_empty: bool,
    }

    /// Run `a`'s and `z`'s scripts over the chain `a — m — z` (5 ms per
    /// hop, so control records take 10 ms end to end; 1 Mbit/s toward
    /// `z` and 50 kbit/s back, so an ACK spends 12.8 ms being serialized
    /// — longer than the 12 ms between data packets, which keeps one
    /// behind any control record racing it) for 5 s.
    fn run_scripts(
        a_script: &[(u64, Step)],
        z_script: &[(u64, Step)],
        faults: impl Fn(NodeId, NodeId) -> FaultSchedule,
    ) -> Aftermath {
        let mut b = TopologyBuilder::new();
        let (a, m, z) = (b.node(), b.node(), b.node());
        let out = LinkConfig::new(1_000_000, SimDuration::from_millis(5));
        let back = LinkConfig::new(50_000, SimDuration::from_millis(5));
        b.duplex_asym(a, m, out, back);
        b.duplex_asym(m, z, out, back);
        let mut sim = Simulator::new(b.build(), 31);
        let f = flow_id(a, 0);
        sim.add_app(a, Scripted::new(f, a_script));
        sim.add_app(z, Scripted::new(f, z_script));
        sim.inject_faults(&faults(a, z));
        sim.run_until(SimTime::from_secs(5));
        let log_of = |n| {
            sim.app::<Scripted>(n)
                .expect("invariant: Scripted installed")
                .log
                .clone()
        };
        let world = sim.world();
        Aftermath {
            a_log: log_of(a),
            z_log: log_of(z),
            total_drops: sim.total_drops(),
            retired: (world.tx.is_retired(f), world.rx.is_retired(f)),
            watches_purged: world.progress_rx.is_empty()
                && world.rx.iter().all(|(_, h)| h.watch.is_none()),
            queues_empty: world.queue.is_empty(),
        }
    }

    fn no_faults(_a: NodeId, _z: NodeId) -> FaultSchedule {
        FaultSchedule::new()
    }

    #[test]
    fn stragglers_of_an_aborted_transfer_land_on_tombstones() {
        // The receiver walks away at 300 ms, mid-window. Its half is
        // gone at once, so the data already on the wire and the boundary
        // record of the message written at 298 ms (due at 308 ms) find a
        // tombstone. The sender hears at 310 ms and is retired after the
        // callback, which cancels the RTO sentinel armed for the
        // outstanding window; the ACKs still travelling back find the
        // other tombstone. None of that is a panic, a callback, or a
        // drop.
        let out = run_scripts(
            &[
                (0, Step::Open(NodeId(2), 1_000_000)),
                (298, Step::Send(1_000)),
            ],
            &[(300, Step::Abort)],
            no_faults,
        );
        let [(at, "aborted", acked)] = out.a_log[..] else {
            panic!(
                "the sender hears one abort and nothing else: {:?}",
                out.a_log
            );
        };
        assert_eq!(at, SimTime::from_nanos(310_000_000));
        assert!(acked > 0, "the callback read the half's acked bytes");
        assert_eq!(out.z_log, vec![], "the aborter hears nothing");
        assert_eq!(out.total_drops, 0, "stragglers are not link drops");
        assert_eq!(out.retired, (true, true));
        assert!(
            out.queues_empty,
            "sentinel cancelled, stragglers all popped"
        );
    }

    #[test]
    fn simultaneous_aborts_each_find_a_tombstone() {
        let out = run_scripts(
            &[(0, Step::Open(NodeId(2), 1_000_000)), (50, Step::Abort)],
            &[(50, Step::Abort)],
            no_faults,
        );
        assert_eq!(out.a_log, vec![], "the echo found a tombstone at a");
        assert_eq!(out.z_log, vec![], "the echo found a tombstone at z");
        assert_eq!(out.retired, (true, true));
        assert!(out.queues_empty);
        assert_eq!(out.total_drops, 0);
    }

    #[test]
    fn an_aborted_flow_is_readable_in_the_callback_and_retired_after() {
        // `Scripted::on_flow_aborted` reads the flow (or this would have
        // panicked at 60 ms); reading it again at 70 ms is a bug in the
        // application and says so.
        let (t, a, z) = two_nodes(1_000_000, 10);
        let mut sim = Simulator::new(t, 33);
        let f = flow_id(a, 0);
        sim.add_app(
            a,
            Scripted::new(f, &[(0, Step::Open(z, 1_000_000)), (70, Step::Read)]),
        );
        sim.add_app(z, Scripted::new(f, &[(50, Step::Abort)]));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_secs(1));
        }))
        .expect_err("reading a retired flow must panic");
        let heard = sim
            .app::<Scripted>(a)
            .expect("invariant: Scripted installed on a")
            .log
            .len();
        assert_eq!(heard, 1, "the abort callback ran first, and read the flow");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("retired"), "{message}");
    }

    #[test]
    fn a_crash_racing_an_abort_retires_the_half_and_its_watch() {
        // a aborts at 100 ms; the record is due at z at 110 ms, but z —
        // which watches the flow — crashes at 105 ms. The sweep retires
        // z's half and with it the watch and its queued progress; the
        // record and the sweep's own echo both find tombstones, so
        // neither side ever hears `on_flow_aborted`.
        let out = run_scripts(
            &[(0, Step::Open(NodeId(2), 1_000_000)), (100, Step::Abort)],
            &[(20, Step::Watch)],
            |_a, z| {
                let mut faults = FaultSchedule::new();
                faults.node_crash(
                    SimTime::from_nanos(105_000_000),
                    z,
                    SimDuration::from_secs(1),
                );
                faults
            },
        );
        assert_eq!((&out.a_log, &out.z_log), (&vec![], &vec![]));
        assert_eq!(out.retired, (true, true));
        assert!(out.watches_purged);
        assert!(out.queues_empty);
    }

    #[test]
    fn an_abort_reaching_a_downed_node_retires_the_half_unheard() {
        // z is down from 40 ms to 1.04 s. A flow opened toward it at
        // 50 ms still gets a receiver half there (the open record is not
        // a packet); its data dies at the node. When a gives up at
        // 200 ms the abort finds that half live but nobody to tell: it
        // is retired at once, and the reborn z never hears of it.
        let out = run_scripts(
            &[(50, Step::Open(NodeId(2), 10_000)), (200, Step::Abort)],
            &[],
            |_a, z| {
                let mut faults = FaultSchedule::new();
                faults.node_crash(
                    SimTime::from_nanos(40_000_000),
                    z,
                    SimDuration::from_secs(1),
                );
                faults
            },
        );
        assert_eq!((&out.a_log, &out.z_log), (&vec![], &vec![]));
        assert_eq!(out.retired, (true, true));
        assert!(out.total_drops > 0, "the downed node ate the data");
        assert!(out.queues_empty);
    }

    #[test]
    #[should_panic(expected = "data for an unopened flow")]
    fn a_packet_for_a_flow_never_opened_still_panics() {
        // Tombstones excuse stragglers of flows that existed, nothing
        // else: an id no one ever opened is an engine bug.
        let (t, a, z) = two_nodes(1_000_000, 1);
        let mut sim = Simulator::new(t, 34);
        let packet = Packet {
            flow: flow_id(a, 7),
            src: a,
            dst: z,
            size: 100,
            kind: PacketKind::Data { offset: 0, len: 60 },
        };
        sim.shards[0].world.queue.push_lane(
            SimTime::from_nanos(1),
            lane_link(LinkId(0)),
            Event::Arrive { node: z, packet },
        );
        sim.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "barrier watchdog")]
    fn barrier_watchdog_dumps_instead_of_hanging() {
        use std::sync::atomic::AtomicBool;
        // A shard wedged inside an app callback: its peer must trip the
        // watchdog and abort the run rather than park forever. The
        // staller's release comes from a host-side thread so the scoped
        // threads can all be joined once the panic propagates.
        static RELEASED: AtomicBool = AtomicBool::new(false);
        struct Staller;
        impl App for Staller {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {
                while !RELEASED.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let (a, z) = (b.node(), b.node());
        let lane = LinkConfig::new(1_000_000, SimDuration::from_millis(5)).control_only();
        b.duplex(a, z, lane);
        let mut sim = Simulator::new_sharded(b.build(), 12, vec![0, 1]);
        sim.add_app(a, Box::new(Staller));
        // Publishing every 10 ms, z reaches a barrier every period.
        sim.add_app(z, Beacon::new(a, SimDuration::from_millis(1), 10));
        sim.set_barrier_watchdog(std::time::Duration::from_millis(200));
        let releaser = std::thread::spawn(|| {
            std::thread::sleep(std::time::Duration::from_secs(1));
            RELEASED.store(true, Ordering::Release);
        });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_secs(5));
        }));
        releaser.join().expect("releaser thread exits");
        if let Err(panic) = run {
            std::panic::resume_unwind(panic);
        }
    }
}
