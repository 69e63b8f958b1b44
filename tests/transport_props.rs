//! Property tests on the substrate: the transport's reliability
//! invariants under arbitrary loss/reordering, the event queue's
//! ordering guarantees, and link conservation laws.

use proptest::prelude::*;
use speakup_net::event::EventQueue;
use speakup_net::link::{Enqueue, Link, LinkConfig};
use speakup_net::packet::{FlowId, NodeId, Packet, PacketKind};
use speakup_net::tcp::{FlowAction, FlowConfig, Receiver, Sender};
use speakup_net::time::{SimDuration, SimTime};

/// What one scripted transfer ended with.
struct Transfer {
    acked: u64,
    delivered: u64,
    /// Tags in the order the receiver delivered them.
    tags: Vec<u64>,
    /// `Drained` notices the sender raised.
    drains: usize,
}

/// Drive a [`Sender`] and a [`Receiver`] the way the engine does, over a
/// lossy, reordering "wire" encoded by `script`: for each emitted data
/// segment, the next script byte decides drop (0), deliver now (1), or
/// delay into a reorder buffer (2). Message `i` of `sizes`, tagged `i`,
/// is written at step `i * stride` and framed on the receiver with
/// `note_boundary` at once (the engine's boundary record always beats
/// the data). After every step the byte counts nest — acked ≤
/// delivered ≤ written — every tag arrives once, in write order, and
/// only when its last byte is in; `Drained` fires exactly when acked
/// reaches written, once per drain.
fn deliver_with_script(sizes: &[u64], stride: u64, script: &[u8]) -> Transfer {
    let cfg = FlowConfig::default();
    let mut tx = Sender::new(NodeId(0), NodeId(1), cfg);
    let mut rx = Receiver::new(NodeId(0), NodeId(1), cfg.ack_bytes);
    let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    let mut out = Vec::new();
    let mut now_ms = 0u64;
    // End offset of each message written so far, indexed by tag.
    let mut ends: Vec<u64> = Vec::new();
    let mut tags = Vec::new();
    let mut drains = 0;
    // A write since the last `Drained` is owed one.
    let mut owed_drain = false;

    let mut si = 0usize;
    let mut held: Vec<(u64, u32)> = Vec::new();
    let mut steps = 0u64;
    while (ends.len() < sizes.len() || !tx.is_drained()) && steps < 100_000 {
        while ends.len() < sizes.len() && ends.len() as u64 * stride <= steps {
            let tag = ends.len() as u64;
            tx.write(t(now_ms), sizes[ends.len()], &mut out);
            rx.note_boundary(tx.written_bytes(), tag);
            ends.push(tx.written_bytes());
            owed_drain = true;
        }
        steps += 1;
        now_ms += 10;
        let mut arrivals = Vec::new();
        for a in std::mem::take(&mut out) {
            if let FlowAction::SendData { offset, len } = a {
                let verdict = script.get(si).copied().unwrap_or(1) % 3;
                si += 1;
                match verdict {
                    0 => {} // dropped
                    1 => arrivals.push((offset, len)),
                    _ => held.push((offset, len)),
                }
            }
        }
        // Every few steps, flush the reorder buffer in reverse order.
        if steps.is_multiple_of(3) {
            arrivals.extend(held.drain(..).rev());
        }
        let mut acks = Vec::new();
        for (offset, len) in arrivals {
            let mut rx_out = Vec::new();
            rx.on_data(t(now_ms), offset, len, &mut rx_out);
            for r in rx_out {
                match r {
                    FlowAction::SendAck { cum } => acks.push(cum),
                    FlowAction::Deliver { tag } => {
                        assert_eq!(tag, tags.len() as u64, "tags arrive once, in write order");
                        assert!(rx.delivered_bytes() >= ends[tags.len()], "tag {tag} early");
                        tags.push(tag);
                    }
                    other => panic!("a receiver asked for {other:?}"),
                }
            }
            assert!(rx.delivered_bytes() <= tx.written_bytes());
        }
        for cum in acks {
            let mut tx_out = Vec::new();
            tx.on_ack(t(now_ms), cum, &mut tx_out);
            let drained = tx_out.contains(&FlowAction::Drained);
            let all_acked = tx.acked_bytes() == tx.written_bytes();
            assert_eq!(
                drained,
                owed_drain && all_acked,
                "Drained iff a drain is owed"
            );
            if drained {
                owed_drain = false;
                drains += 1;
            }
            assert!(tx.acked_bytes() <= rx.delivered_bytes());
            out.extend(tx_out);
        }
        // Fire the retransmission timer when progress stalls.
        if out.is_empty() && !tx.is_drained() {
            now_ms += 2000;
            tx.on_rto(t(now_ms), &mut out);
        }
    }
    Transfer {
        acked: tx.acked_bytes(),
        delivered: rx.delivered_bytes(),
        tags,
        drains,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transport_delivers_everything_despite_loss_and_reordering(
        sizes in proptest::collection::vec(1u64..16_384, 1..6),
        stride in 0u64..40,
        script in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let total: u64 = sizes.iter().sum();
        let run = deliver_with_script(&sizes, stride, &script);
        prop_assert_eq!(run.acked, total, "sender fully acked");
        prop_assert_eq!(run.delivered, total, "receiver fully delivered");
        prop_assert_eq!(run.tags, (0..sizes.len() as u64).collect::<Vec<_>>());
        prop_assert!((1..=sizes.len()).contains(&run.drains), "{} drains", run.drains);
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    #[test]
    fn event_queue_same_time_fifo(n in 1usize..200) {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn link_conserves_packets(
        sizes in proptest::collection::vec(40u32..1500, 1..200),
        queue_pkts in 1u64..64,
    ) {
        let cfg = LinkConfig::new(1_000_000, SimDuration::from_millis(1))
            .queue_packets(queue_pkts);
        let mut link = Link::new(cfg, NodeId(1));
        let mut started = 0u64;
        let mut queued = 0u64;
        let mut dropped = 0u64;
        for &size in &sizes {
            let p = Packet {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size,
                kind: PacketKind::Data { offset: 0, len: size - 40 },
            };
            match link.enqueue(p, 1.0) {
                Enqueue::StartTx(_) => started += 1,
                Enqueue::Queued => queued += 1,
                Enqueue::Dropped => dropped += 1,
            }
        }
        prop_assert_eq!(started + queued + dropped, sizes.len() as u64);
        // Drain: every started/queued packet comes out exactly once.
        let mut drained = 0u64;
        if link.is_busy() {
            loop {
                let (_, next) = link.tx_done();
                drained += 1;
                if next.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(drained, started + queued);
        prop_assert_eq!(link.stats.drops_overflow, dropped);
        prop_assert_eq!(link.queued_bytes(), 0);
    }

    #[test]
    fn rng_uniform_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = speakup_net::rng::Pcg32::seeded(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let x = rng.range_u64(lo, hi);
            prop_assert!((lo..=hi).contains(&x));
        }
    }
}
