//! Links: rate-limited, delayed, drop-tail-queued pipes between nodes.
//!
//! A link is unidirectional. When a packet is offered to a busy link it
//! joins a FIFO queue bounded in bytes; overflow is dropped at the tail,
//! which is how congestion manifests and what drives the transport's
//! congestion control. Links also support probabilistic fault injection
//! (random drop), in the style of smoltcp's example fault injectors.

use crate::packet::{NodeId, Packet};
use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Static configuration of a link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in bytes (drop-tail). The packet currently being
    /// transmitted does not count against the queue.
    pub queue_bytes: u64,
    /// Probability that an enqueued packet is randomly dropped (fault
    /// injection). Zero for a healthy link.
    pub drop_prob: f64,
    /// The link lends its delay to control-record paths and never
    /// carries a packet (see [`LinkConfig::control_only`]).
    pub control_only: bool,
}

impl LinkConfig {
    /// A link with the given rate (bits/s) and one-way delay, a 100-packet
    /// (150 kB) queue, and no fault injection.
    pub fn new(rate_bps: u64, delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps,
            delay,
            queue_bytes: 100 * 1500,
            drop_prob: 0.0,
            control_only: false,
        }
    }

    /// Override the queue capacity, expressed in 1500-byte packets.
    pub fn queue_packets(mut self, packets: u64) -> Self {
        self.queue_bytes = packets * 1500;
        self
    }

    /// Enable random-drop fault injection with the given probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1)`. Out-of-range probabilities used to be
    /// accepted silently (p ≥ 1 always-drops, p < 0 never-drops), which
    /// turned scenario typos into mystery results.
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "link drop_prob must be in [0, 1), got {p}"
        );
        self.drop_prob = p;
        self
    }

    /// Mark the link as a control lane: routed control payloads
    /// (`Ctx::send_control`) are delayed by it like by any other link on
    /// their path, but no packet may ever be offered to it —
    /// [`Link::enqueue`] panics, and the simulator refuses to open a
    /// flow whose route crosses one. The sharded engine rests on that
    /// promise: shards may meet only over control-only links
    /// (`Simulator::new_sharded` panics otherwise), so the sole hand-off
    /// between them is a control payload, which its sender's declared
    /// quiet floor (`Ctx::control_quiet_until`) bounds far more loosely
    /// than its next event does.
    pub fn control_only(mut self) -> Self {
        self.control_only = true;
        self
    }
}

/// Batched fault-injection sampler for a lossy link.
///
/// Replaces per-packet `rng.f64() < drop_prob` Bernoulli rolls with a
/// next-drop countdown: the sampler eagerly scans a chunk of draws from
/// the same PCG stream, records the run of survivals before each drop,
/// and then answers `offer()` from the countdown without touching the
/// RNG. The draws consumed — and therefore the decision sequence — are
/// bit-identical to the per-packet formulation, so goldens cannot move
/// (property-tested in `tests/drop_sampler_props.rs`).
#[derive(Debug)]
pub struct DropSampler {
    rng: Pcg32,
    drop_prob: f64,
    /// Packets that survive before the next recorded decision.
    survive: u32,
    /// Whether the decision after the survival run is a drop (false only
    /// when a scan chunk ended without finding one).
    drop_next: bool,
}

impl DropSampler {
    /// Draws scanned ahead per refill. Bounds refill latency at tiny
    /// drop probabilities; each scan consumes exactly the draws whose
    /// decisions it records, so chunking is unobservable.
    const CHUNK: u32 = 1024;

    /// A sampler for a link with the given drop probability, consuming
    /// the link's dedicated PCG stream. Requires `drop_prob ∈ (0, 1)`:
    /// loss-free links must skip sampling entirely rather than pay for a
    /// degenerate sampler.
    pub fn new(rng: Pcg32, drop_prob: f64) -> Self {
        assert!(
            drop_prob > 0.0 && drop_prob < 1.0,
            "DropSampler requires drop_prob in (0, 1), got {drop_prob}"
        );
        DropSampler {
            rng,
            drop_prob,
            survive: 0,
            drop_next: false,
        }
    }

    /// Decide the fate of the next offered packet: `true` means drop.
    /// Bit-identical to `self.rng.f64() < self.drop_prob` per packet.
    #[inline]
    pub fn offer(&mut self) -> bool {
        loop {
            if self.survive > 0 {
                self.survive -= 1;
                return false;
            }
            if self.drop_next {
                self.drop_next = false;
                return true;
            }
            self.refill();
        }
    }

    /// Scan up to [`Self::CHUNK`] draws, recording the survival run and
    /// the terminating drop (if one occurred within the chunk).
    fn refill(&mut self) {
        debug_assert!(self.survive == 0 && !self.drop_next);
        for _ in 0..Self::CHUNK {
            if self.rng.f64() < self.drop_prob {
                self.drop_next = true;
                return;
            }
            self.survive += 1;
        }
    }
}

/// Counters describing everything a link has done.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped because the queue was full.
    pub drops_overflow: u64,
    /// Packets dropped by fault injection.
    pub drops_fault: u64,
    /// Packets dropped because the link was down (offered, queued, or in
    /// flight during a scheduled flap).
    pub drops_down: u64,
    /// High-water mark of queued bytes.
    pub max_queued_bytes: u64,
}

/// Runtime state of a link.
#[derive(Debug)]
pub struct Link {
    /// Static configuration.
    pub cfg: LinkConfig,
    /// Node the link delivers packets to.
    pub dst: NodeId,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// Packet currently on the wire, if any.
    in_flight: Option<Packet>,
    /// Nesting depth of scheduled outages ([`Link::take_down`] /
    /// [`Link::bring_up`]); the link carries packets only at depth 0.
    down_depth: u32,
    /// Set when an outage strikes mid-transmission: the in-flight packet
    /// finishes serializing (its `TxDone` event is already scheduled) but
    /// must be discarded instead of delivered.
    doomed_in_flight: bool,
    /// Last `(size, transmission time)` computed: wire sizes repeat
    /// (full segments, pure ACKs), and the memo turns the 128-bit
    /// division in [`SimDuration::transmission`] into a compare.
    tx_memo: (u64, SimDuration),
    /// Counters.
    pub stats: LinkStats,
}

/// Outcome of offering a packet to a link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enqueue {
    /// The link was idle; transmission starts now and completes after the
    /// contained duration.
    StartTx(SimDuration),
    /// The packet joined the queue.
    Queued,
    /// The packet was dropped (queue overflow or fault injection).
    Dropped,
}

impl Link {
    /// A fresh idle link delivering to `dst`.
    pub fn new(cfg: LinkConfig, dst: NodeId) -> Self {
        // Pre-size the queue for its byte budget in full-size packets so
        // steady-state enqueues never grow the ring (capped to keep huge
        // queue configs from reserving memory they may never use).
        let cap = usize::try_from((cfg.queue_bytes / 1500 + 1).min(4096))
            .expect("invariant: min-clamped to 4096");
        Link {
            cfg,
            dst,
            queue: VecDeque::with_capacity(cap),
            queued_bytes: 0,
            in_flight: None,
            down_depth: 0,
            doomed_in_flight: false,
            tx_memo: (0, SimDuration::ZERO),
            stats: LinkStats::default(),
        }
    }

    /// Offer a packet to the link. `fault_roll` is a uniform [0,1) sample
    /// used for fault injection (passed in so the link itself holds no RNG).
    ///
    /// Callers must check [`Link::is_up`] *before* drawing `fault_roll`
    /// for a lossy link — a downed link drops without consuming the
    /// loss stream — but the guard here keeps a missed check from
    /// teleporting packets across an outage.
    ///
    /// # Panics
    ///
    /// Panics on a [control-only](LinkConfig::control_only) link: that
    /// no packet ever crosses one is what keeps every packet on the
    /// shard it started on.
    pub fn enqueue(&mut self, packet: Packet, fault_roll: f64) -> Enqueue {
        assert!(
            !self.cfg.control_only,
            "packet offered to a control-only link (toward {})",
            self.dst
        );
        if self.down_depth > 0 {
            self.stats.drops_down += 1;
            return Enqueue::Dropped;
        }
        if self.cfg.drop_prob > 0.0 && fault_roll < self.cfg.drop_prob {
            self.stats.drops_fault += 1;
            return Enqueue::Dropped;
        }
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty());
            let tx = self.tx_time(u64::from(packet.size));
            self.in_flight = Some(packet);
            return Enqueue::StartTx(tx);
        }
        if self.queued_bytes + u64::from(packet.size) > self.cfg.queue_bytes {
            self.stats.drops_overflow += 1;
            return Enqueue::Dropped;
        }
        self.queued_bytes += u64::from(packet.size);
        self.stats.max_queued_bytes = self.stats.max_queued_bytes.max(self.queued_bytes);
        self.queue.push_back(packet);
        Enqueue::Queued
    }

    /// Complete the in-flight transmission. Returns the packet that just
    /// finished (to be delivered after the propagation delay) and, if the
    /// queue was non-empty, the next packet's transmission time.
    pub fn tx_done(&mut self) -> (Packet, Option<SimDuration>) {
        let done = self.in_flight.take().expect("tx_done on idle link");
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += u64::from(done.size);
        let next = self.queue.pop_front().map(|p| {
            self.queued_bytes -= u64::from(p.size);
            let tx = self.tx_time(u64::from(p.size));
            self.in_flight = Some(p);
            tx
        });
        (done, next)
    }

    /// Transmission time for `bytes` on this link, memoized on the last
    /// distinct size seen.
    #[inline]
    fn tx_time(&mut self, bytes: u64) -> SimDuration {
        if self.tx_memo.0 != bytes {
            self.tx_memo = (bytes, SimDuration::transmission(bytes, self.cfg.rate_bps));
        }
        self.tx_memo.1
    }

    /// Whether the link is currently carrying packets (no outage active).
    pub fn is_up(&self) -> bool {
        self.down_depth == 0
    }

    /// Start an outage: flush the queue (counting each packet as a
    /// down-drop) and doom the in-flight packet, whose already-scheduled
    /// `TxDone` will discard it via [`Link::take_doomed`]. Outages nest —
    /// overlapping schedule entries keep the link down until every one
    /// has ended. Returns the number of queued packets flushed.
    pub fn take_down(&mut self) -> u64 {
        self.down_depth += 1;
        let flushed = u64::try_from(self.queue.len()).expect("queue length fits u64");
        self.queue.clear();
        self.queued_bytes = 0;
        self.stats.drops_down += flushed;
        if self.in_flight.is_some() {
            self.doomed_in_flight = true;
        }
        flushed
    }

    /// End one outage (the link comes back up when the last overlapping
    /// outage ends).
    ///
    /// # Panics
    ///
    /// Panics if the link is not down — an unmatched `bring_up` is a
    /// scheduling bug.
    pub fn bring_up(&mut self) {
        assert!(self.down_depth > 0, "bring_up on a link that is not down");
        self.down_depth -= 1;
    }

    /// Whether the packet just returned by [`Link::tx_done`] was doomed
    /// by an outage and must be dropped instead of delivered. Clears the
    /// doomed flag and counts the drop.
    pub fn take_doomed(&mut self) -> bool {
        if self.doomed_in_flight {
            self.doomed_in_flight = false;
            self.stats.drops_down += 1;
            return true;
        }
        false
    }

    /// Bytes currently waiting in the queue (excludes the in-flight packet).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a packet is currently being transmitted.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Observed utilization over `elapsed`: transmitted bits / capacity.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 || self.cfg.rate_bps == 0 {
            return 0.0;
        }
        (self.stats.tx_bytes as f64 * 8.0) / (self.cfg.rate_bps as f64 * secs)
    }
}

/// A timestamped delivery: used by the world to hand a transmitted packet
/// to the destination node after the propagation delay.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Arrival time at the destination node.
    pub at: SimTime,
    /// The packet being delivered.
    pub packet: Packet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};

    fn pkt(size: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            kind: PacketKind::Data {
                offset: 0,
                len: size - 40,
            },
        }
    }

    #[test]
    fn idle_link_starts_transmitting() {
        let mut l = Link::new(
            LinkConfig::new(8_000, SimDuration::from_millis(1)),
            NodeId(1),
        );
        // 1000 bytes at 8000 bits/s = 1 s.
        match l.enqueue(pkt(1000), 1.0) {
            Enqueue::StartTx(d) => assert_eq!(d, SimDuration::from_secs(1)),
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(l.is_busy());
    }

    #[test]
    fn busy_link_queues_then_drains() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        assert!(matches!(l.enqueue(pkt(1000), 1.0), Enqueue::StartTx(_)));
        assert_eq!(l.enqueue(pkt(500), 1.0), Enqueue::Queued);
        assert_eq!(l.queued_bytes(), 500);
        let (done, next) = l.tx_done();
        assert_eq!(done.size, 1000);
        assert!(next.is_some());
        assert_eq!(l.queued_bytes(), 0);
        let (done2, next2) = l.tx_done();
        assert_eq!(done2.size, 500);
        assert!(next2.is_none());
        assert!(!l.is_busy());
        assert_eq!(l.stats.tx_packets, 2);
        assert_eq!(l.stats.tx_bytes, 1500);
    }

    #[test]
    fn overflow_drops_at_tail() {
        let cfg = LinkConfig {
            rate_bps: 8_000,
            delay: SimDuration::ZERO,
            queue_bytes: 1000,
            drop_prob: 0.0,
            control_only: false,
        };
        let mut l = Link::new(cfg, NodeId(1));
        assert!(matches!(l.enqueue(pkt(1000), 1.0), Enqueue::StartTx(_)));
        assert_eq!(l.enqueue(pkt(600), 1.0), Enqueue::Queued);
        // 600 + 600 > 1000: dropped.
        assert_eq!(l.enqueue(pkt(600), 1.0), Enqueue::Dropped);
        assert_eq!(l.stats.drops_overflow, 1);
        // But a smaller packet still fits.
        assert_eq!(l.enqueue(pkt(400), 1.0), Enqueue::Queued);
    }

    #[test]
    #[should_panic(expected = "control-only link")]
    fn a_packet_offered_to_a_control_only_link_panics() {
        let cfg = LinkConfig::new(8_000, SimDuration::ZERO).control_only();
        Link::new(cfg, NodeId(1)).enqueue(pkt(100), 1.0);
    }

    #[test]
    fn fault_injection_drops() {
        let cfg = LinkConfig::new(8_000, SimDuration::ZERO).drop_prob(0.5);
        let mut l = Link::new(cfg, NodeId(1));
        assert_eq!(l.enqueue(pkt(100), 0.4), Enqueue::Dropped);
        assert_eq!(l.stats.drops_fault, 1);
        assert!(matches!(l.enqueue(pkt(100), 0.6), Enqueue::StartTx(_)));
    }

    #[test]
    #[should_panic(expected = "tx_done on idle link")]
    fn tx_done_on_idle_panics() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        let _ = l.tx_done();
    }

    #[test]
    fn utilization_accounting() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        assert!(matches!(l.enqueue(pkt(1000), 1.0), Enqueue::StartTx(_)));
        let _ = l.tx_done();
        // 8000 bits sent; over 2 s on an 8000 bit/s link = 0.5.
        let u = l.utilization(SimDuration::from_secs(2));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "drop_prob must be in [0, 1)")]
    fn drop_prob_rejects_one_or_more() {
        let _ = LinkConfig::new(8_000, SimDuration::ZERO).drop_prob(1.0);
    }

    #[test]
    #[should_panic(expected = "drop_prob must be in [0, 1)")]
    fn drop_prob_rejects_negative() {
        let _ = LinkConfig::new(8_000, SimDuration::ZERO).drop_prob(-0.1);
    }

    #[test]
    fn drop_sampler_matches_per_packet_bernoulli() {
        for &p in &[0.001, 0.05, 0.5, 0.999] {
            let mut sampler = DropSampler::new(Pcg32::new(7, 42), p);
            let mut reference = Pcg32::new(7, 42);
            for i in 0..20_000 {
                let expect = reference.f64() < p;
                assert_eq!(sampler.offer(), expect, "p={p} packet {i}");
            }
        }
    }

    #[test]
    fn downed_link_drops_without_consuming_the_fault_roll() {
        let mut l = Link::new(
            LinkConfig::new(8_000, SimDuration::ZERO).drop_prob(0.5),
            NodeId(1),
        );
        l.take_down();
        assert!(!l.is_up());
        // A roll that would survive fault injection still drops: the
        // outage guard runs first (and callers skip the sampler anyway).
        assert_eq!(l.enqueue(pkt(100), 0.9), Enqueue::Dropped);
        assert_eq!(l.stats.drops_down, 1);
        assert_eq!(l.stats.drops_fault, 0);
        l.bring_up();
        assert!(l.is_up());
        assert!(matches!(l.enqueue(pkt(100), 0.9), Enqueue::StartTx(_)));
    }

    #[test]
    fn take_down_flushes_queue_and_dooms_in_flight() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        assert!(matches!(l.enqueue(pkt(1000), 1.0), Enqueue::StartTx(_)));
        assert_eq!(l.enqueue(pkt(500), 1.0), Enqueue::Queued);
        assert_eq!(l.enqueue(pkt(500), 1.0), Enqueue::Queued);
        assert_eq!(l.take_down(), 2, "both queued packets flushed");
        assert_eq!(l.queued_bytes(), 0);
        assert_eq!(l.stats.drops_down, 2);
        // The in-flight packet finishes serializing but is discarded.
        let (done, next) = l.tx_done();
        assert_eq!(done.size, 1000);
        assert!(next.is_none(), "queue was flushed");
        assert!(l.take_doomed(), "in-flight packet was doomed");
        assert_eq!(l.stats.drops_down, 3);
        assert!(!l.take_doomed(), "doom flag is one-shot");
    }

    #[test]
    fn doomed_in_flight_drops_even_if_link_recovered_first() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        assert!(matches!(l.enqueue(pkt(1000), 1.0), Enqueue::StartTx(_)));
        l.take_down();
        l.bring_up();
        let (_done, _next) = l.tx_done();
        assert!(
            l.take_doomed(),
            "a packet on the wire during any outage is lost"
        );
    }

    #[test]
    fn overlapping_outages_nest() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        l.take_down();
        l.take_down();
        l.bring_up();
        assert!(!l.is_up(), "still inside the first outage");
        l.bring_up();
        assert!(l.is_up());
    }

    #[test]
    #[should_panic(expected = "bring_up on a link that is not down")]
    fn unmatched_bring_up_panics() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        l.bring_up();
    }

    #[test]
    fn max_queue_highwater() {
        let mut l = Link::new(LinkConfig::new(8_000, SimDuration::ZERO), NodeId(1));
        assert!(matches!(l.enqueue(pkt(100), 1.0), Enqueue::StartTx(_)));
        l.enqueue(pkt(200), 1.0);
        l.enqueue(pkt(300), 1.0);
        assert_eq!(l.stats.max_queued_bytes, 500);
        let _ = l.tx_done();
        assert_eq!(l.stats.max_queued_bytes, 500);
    }
}
