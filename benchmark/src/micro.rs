//! Seeded micro-benchmarks of single layers, driven through each
//! crate's public functions without the simulator around them.
//!
//! Every bench builds fresh state, times one batch of a fixed number of
//! operations drawn from a seeded `Pcg32`, and repeats batches for
//! [`BATCH_SECS`]; the reported figure is the median batch. They are
//! grouped by the workload whose end-to-end number they should move,
//! and each group runs in that workload's traced run only.

use crate::spec::Metrics;
use crate::stats::{median, now};
use crate::trace::Tracer;
use speakup_core::client::ClientProfile;
use speakup_core::cohort::CohortTracker;
use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, BidDigest, DigestBoard, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestId, RequestKey};
use speakup_exp::json::Json;
use speakup_net::event::EventQueue;
use speakup_net::link::{Enqueue, Link, LinkConfig};
use speakup_net::packet::{FlowId, NodeId, Packet, PacketKind};
use speakup_net::rng::Pcg32;
use speakup_net::tcp::{Flow, FlowAction, FlowConfig};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::MemberId;
use speakup_proto::http::{ParseEvent, RequestParser};
use speakup_proto::message;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

/// Wall seconds each bench repeats its batch for.
const BATCH_SECS: f64 = 1.0;

/// One timed batch: how long it took and how many operations it did.
type Batch = (Duration, u64);

/// Median nanoseconds per operation over repeated batches.
fn ns_per_op(mut batch: impl FnMut() -> Batch) -> f64 {
    let start = now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || start.elapsed().as_secs_f64() < BATCH_SECS {
        let (took, ops) = batch();
        per_op.push(took.as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

fn key(id: u64) -> RequestKey {
    RequestKey::new(ClientId(0), RequestId(id))
}

/// Timer churn on the wheel: 4096 pending events; each step pops the
/// earliest and schedules its successor, half of them packet-scale
/// (1-100 us ahead, fire-and-forget) and half timers about `horizon`
/// ahead with a handle; every fourth timer is cancelled and re-armed,
/// as a retransmission timer is by each ACK.
fn event_queue(seed: u64, horizon: SimDuration) -> Batch {
    const PENDING: u64 = 4096;
    const STEPS: u64 = 200_000;
    let mut rng = Pcg32::new(seed, 0xe7e);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut timers = Vec::new();
    let ahead = |rng: &mut Pcg32, packet: bool| {
        let span = if packet { 100_000 } else { horizon.as_nanos() };
        SimDuration::from_nanos(rng.range_u64(span / 2, span + span / 2))
    };
    for i in 0..PENDING {
        q.push_lane(SimTime::ZERO + ahead(&mut rng, i % 2 == 0), i, i);
    }
    let mut ops = 0;
    let start = now();
    for step in 0..STEPS {
        let (at, id) = q.pop().expect("the queue never drains");
        ops += 2;
        if step % 2 == 0 {
            q.push_lane(at + ahead(&mut rng, true), id, id);
        } else {
            timers.push(q.push_lane_handle(at + ahead(&mut rng, false), id, id));
            if timers.len() == 4 {
                q.cancel(timers.swap_remove(rng.below(4) as usize));
                q.push_lane(at + ahead(&mut rng, false), id, id);
                timers.clear();
                ops += 2;
            }
        }
    }
    black_box(q.len());
    (start.elapsed(), ops)
}

/// A 100-packet drop-tail link offered slightly more than it drains:
/// the queue random-walks to its cap and sheds the excess. Full data
/// segments and bare ACKs alternate at random, so the transmission-time
/// memo misses as it does in a run. Returns the drop share too.
fn link(seed: u64) -> (Batch, f64) {
    const OFFERS: u64 = 400_000;
    let mut rng = Pcg32::new(seed, 0x11a);
    let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
    let mut link = Link::new(cfg, NodeId(1));
    let packet = |size, kind| Packet {
        flow: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        size,
        kind,
    };
    let data = packet(
        1500,
        PacketKind::Data {
            offset: 0,
            len: 1460,
        },
    );
    let ack = packet(40, PacketKind::Ack { cum: 0 });
    let mut offered = 0;
    let mut dropped = 0;
    let start = now();
    while offered < OFFERS {
        if rng.below(100) < 52 {
            offered += 1;
            let p = if rng.below(4) == 0 { ack } else { data };
            dropped += u64::from(link.enqueue(p, 1.0) == Enqueue::Dropped);
        } else if link.is_busy() {
            black_box(link.tx_done());
        }
    }
    ((start.elapsed(), offered), dropped as f64 / offered as f64)
}

/// One flow wired back to itself: each `SendData` is handed to
/// `on_data` and the resulting `SendAck` to `on_ack`, in send order. A
/// seeded 1 % of segments are lost, so fast retransmit, partial ACKs and
/// the timer run. Returns the retransmit share too.
fn tcp(seed: u64) -> (Batch, f64) {
    const MESSAGES: u64 = 48;
    let mut rng = Pcg32::new(seed, 0x7c9);
    let mut flow = Flow::new(FlowId(0), NodeId(0), NodeId(1), FlowConfig::default());
    // Sim time per ACK: a 1500-byte segment at ~100 Mbit/s.
    let tick = SimDuration::from_micros(120);
    let mut clock = SimTime::ZERO;
    let mut out = Vec::new();
    let mut wire: VecDeque<FlowAction> = VecDeque::new();
    let start = now();
    for tag in 0..MESSAGES {
        flow.write(clock, 1 << 20, tag, &mut out);
        while !flow.is_drained() {
            wire.extend(out.drain(..));
            match wire.pop_front() {
                Some(FlowAction::SendData { offset, len }) => {
                    if rng.below(100) != 0 {
                        flow.on_data(clock, offset, len, &mut out);
                    }
                }
                Some(FlowAction::SendAck { cum }) => {
                    clock += tick;
                    flow.on_ack(clock, cum, &mut out);
                }
                Some(_) => {}
                // Everything in flight was lost: only the timer is left.
                None => {
                    clock += flow.current_rto();
                    flow.on_rto(clock, &mut out);
                }
            }
        }
        out.clear();
        wire.clear();
    }
    let took = start.elapsed();
    let s = flow.stats;
    (
        (took, s.segments_sent),
        s.segments_retransmitted as f64 / s.segments_sent as f64,
    )
}

/// A busy auction front end with `n` contenders.
fn auction(n: u64) -> (AuctionFrontEnd, Vec<Directive>) {
    let mut fe = AuctionFrontEnd::new(AuctionConfig::default());
    let mut out = Vec::new();
    for id in 0..=n {
        fe.on_request(SimTime::ZERO, key(id), &mut out);
    }
    assert_eq!(fe.contender_count() as u64, n);
    (fe, out)
}

/// Payment events against `n` contenders, MSS-sized as the simulator
/// delivers them.
fn auction_payments(seed: u64, n: u64) -> Batch {
    const PAYMENTS: u64 = 200_000;
    let mut rng = Pcg32::new(seed, 0xa0c);
    let (mut fe, mut out) = auction(n);
    let start = now();
    for i in 0..PAYMENTS {
        let at = SimTime::from_nanos(i * 1000);
        fe.on_payment(at, key(rng.range_u64(1, n)), 1460, &mut out);
    }
    black_box(fe.outstanding_bid_bytes());
    (start.elapsed(), PAYMENTS)
}

/// Admissions with `n` contenders standing: the server finishes, the
/// auction picks the top bidder, and a newcomer takes the winner's
/// place with a first payment, which keeps `n` and the heaps steady.
fn auction_admits(seed: u64, n: u64) -> Batch {
    const ADMITS: u64 = 20_000;
    let mut rng = Pcg32::new(seed, 0xad1);
    let (mut fe, mut out) = auction(n);
    for id in 1..=n {
        fe.on_payment(SimTime::ZERO, key(id), rng.range_u64(1, 1 << 20), &mut out);
    }
    let mut on_server = key(0);
    let start = now();
    for i in 0..ADMITS {
        let at = SimTime::from_nanos((i + 1) * 1000);
        out.clear();
        fe.on_server_done(at, on_server, &mut out);
        on_server = out
            .iter()
            .find_map(|d| match d {
                Directive::Admit(k) => Some(*k),
                _ => None,
            })
            .expect("a standing contender wins");
        let newcomer = key(n + 1 + i);
        fe.on_request(at, newcomer, &mut out);
        fe.on_payment(at, newcomer, rng.range_u64(1, 1 << 20), &mut out);
    }
    (start.elapsed(), ADMITS)
}

/// Digests of 8 replicas at rising epochs, delivered in seeded random
/// order with duplicates, as the mesh delivers them.
fn digests(seed: u64) -> Vec<BidDigest> {
    let mut rng = Pcg32::new(seed, 0xd16);
    let mut all = Vec::new();
    for epoch in 1..=2_000u64 {
        for replica in 0..8u32 {
            let mut d = BidDigest::new(replica);
            d.epoch = epoch;
            d.note_payment(rng.range_u64(1, 1 << 20));
            d.contenders = rng.range_u64(0, 100);
            all.push(d);
        }
    }
    let last = all.len() as u64 - 1;
    let dupes: Vec<BidDigest> = (0..all.len() / 8)
        .map(|_| all[rng.range_u64(0, last) as usize])
        .collect();
    all.extend(dupes);
    rng.shuffle(&mut all);
    all
}

fn digest_merge(all: &[BidDigest]) -> Batch {
    let mut board = DigestBoard::new();
    let start = now();
    let kept = all.iter().filter(|d| board.merge(**d)).count();
    black_box((kept, board.total_paid()));
    (start.elapsed(), all.len() as u64)
}

fn digest_codec(all: &[BidDigest]) -> Batch {
    let start = now();
    for d in all {
        let back = BidDigest::decode(black_box(&d.encode())).expect("a digest decodes");
        assert_eq!(back.epoch, d.epoch);
    }
    (start.elapsed(), all.len() as u64)
}

/// A 999-member cohort: a random member fires; once 500 requests are
/// outstanding the oldest is served, which pulls the member's backlog.
fn cohort(seed: u64) -> Batch {
    const FIRES: u64 = 200_000;
    let mut rng = Pcg32::new(seed, 0xc04);
    let mut tracker = CohortTracker::new(ClientProfile::good(), 999);
    let mut outstanding = VecDeque::new();
    let start = now();
    for i in 0..FIRES {
        let at = SimTime::from_nanos(i * 1_000_000);
        outstanding.extend(tracker.on_fire(MemberId(rng.below(999)), at));
        if outstanding.len() > 500 {
            let oldest = outstanding.pop_front().expect("not empty");
            outstanding.extend(tracker.on_served(at, oldest));
        }
    }
    black_box(tracker.outstanding_total());
    (start.elapsed(), FIRES)
}

/// One 1 MiB payment POST pushed through the parser in the 16 KiB reads
/// the proxy's connection loop makes. Operations are bytes.
fn http_body() -> Batch {
    const POSTS: u64 = 64;
    let chunk = [0x5au8; 16 * 1024];
    let mut parser = RequestParser::new();
    let mut credited = 0;
    let start = now();
    for id in 0..POSTS {
        parser.push(&message::encode_payment_head(id, 1 << 20));
        for _ in 0..(1 << 20) / chunk.len() {
            parser.push(&chunk);
            while let Some(event) = parser.next_event().expect("well-formed POST") {
                if let ParseEvent::BodyChunk(n) = event {
                    credited += n;
                }
            }
        }
    }
    assert_eq!(credited, POSTS << 20);
    (start.elapsed(), credited)
}

/// Service GETs through the parser, head by head.
fn http_heads() -> Batch {
    const HEADS: u64 = 50_000;
    let mut parser = RequestParser::new();
    let mut heads = 0;
    let start = now();
    for id in 0..HEADS {
        parser.push(&message::encode_service_request(id));
        while let Some(event) = parser.next_event().expect("well-formed GET") {
            heads += u64::from(matches!(event, ParseEvent::Head(_)));
        }
    }
    assert_eq!(heads, HEADS);
    (start.elapsed(), HEADS)
}

/// One of each message the exchange uses.
fn encoders() -> Batch {
    const ROUNDS: u64 = 20_000;
    let start = now();
    for id in 0..ROUNDS {
        black_box(message::encode_service_request(id));
        black_box(message::encode_payment_head(id, 1 << 20));
        black_box(message::encode_served(b"<html>ok</html>"));
        black_box(message::encode_encourage(id));
        black_box(message::encode_continue());
        black_box(message::encode_dropped());
    }
    (start.elapsed(), 6 * ROUNDS)
}

/// Parse and re-render the largest committed golden report.
fn json(golden: &str) -> (f64, f64) {
    let doc = Json::parse(golden).expect("the golden report parses");
    let parse = ns_per_op(|| {
        let start = now();
        black_box(Json::parse(black_box(golden)).expect("parses"));
        (start.elapsed(), golden.len() as u64)
    });
    let pretty = ns_per_op(|| {
        let start = now();
        let text = black_box(&doc).pretty();
        (start.elapsed(), text.len() as u64)
    });
    // ns per byte to MB/s.
    (1e3 / parse, 1e3 / pretty)
}

/// Timing wheel at LAN horizons, link queue, TCP flow and the 50-contender
/// auction: what `fig2_packet` spends its time in.
pub fn packet_path(t: &mut Tracer, parent: usize, seed: u64, m: &mut Metrics) {
    let at = Some(parent);
    let lan = SimDuration::from_millis(1);
    m.set(
        "net.event.ns_per_op.lan",
        t.span("micro.net.event.lan", at, || {
            ns_per_op(|| event_queue(seed, lan))
        }),
    );
    let mut share = 0.0;
    m.set(
        "net.link.ns_per_packet",
        t.span("micro.net.link", at, || {
            ns_per_op(|| {
                let (batch, drops) = link(seed);
                share = drops;
                batch
            })
        }),
    );
    m.set("net.link.drop_share", share);
    m.set(
        "net.tcp.ns_per_segment",
        t.span("micro.net.tcp", at, || {
            ns_per_op(|| {
                let (batch, retransmits) = tcp(seed);
                share = retransmits;
                batch
            })
        }),
    );
    m.set("net.tcp.retransmit_share", share);
    t.span("micro.core.auction.n50", at, || {
        m.set(
            "core.auction.ns_per_payment.n50",
            ns_per_op(|| auction_payments(seed, 50)),
        );
        m.set(
            "core.auction.ns_per_admit.n50",
            ns_per_op(|| auction_admits(seed, 50)),
        );
    });
}

/// Timing wheel at 500 ms horizons: `fig7_longrtt`'s timers.
pub fn long_timers(t: &mut Tracer, parent: usize, seed: u64, m: &mut Metrics) {
    let long = SimDuration::from_millis(500);
    m.set(
        "net.event.ns_per_op.longrtt",
        t.span("micro.net.event.longrtt", Some(parent), || {
            ns_per_op(|| event_queue(seed, long))
        }),
    );
}

/// The 50 000-contender auction, the cohort tracker, and the JSON a
/// 10^5-client report goes through: `fig2_xl_crowd`'s layers.
pub fn crowd(t: &mut Tracer, parent: usize, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let at = Some(parent);
    t.span("micro.core.auction.n50k", at, || {
        m.set(
            "core.auction.ns_per_payment.n50k",
            ns_per_op(|| auction_payments(seed, 50_000)),
        );
        m.set(
            "core.auction.ns_per_admit.n50k",
            ns_per_op(|| auction_admits(seed, 50_000)),
        );
    });
    m.set(
        "core.cohort.ns_per_request",
        t.span("micro.core.cohort", at, || ns_per_op(|| cohort(seed))),
    );
    let golden = std::fs::read_to_string("golden/fig2_faults.json")
        .map_err(|e| format!("golden/fig2_faults.json (run from the repo root): {e}"))?;
    let (parse, pretty) = t.span("micro.exp.json", at, || json(&golden));
    m.set("exp.json.parse_mb_per_s", parse);
    m.set("exp.json.pretty_mb_per_s", pretty);
    Ok(())
}

/// Digest merge and codec: only `fig2_sharded`'s replicas exchange them.
pub fn digest(t: &mut Tracer, parent: usize, seed: u64, m: &mut Metrics) {
    t.span("micro.core.digest", Some(parent), || {
        let all = digests(seed);
        m.set("core.digest.ns_per_merge", ns_per_op(|| digest_merge(&all)));
        m.set("core.digest.ns_per_codec", ns_per_op(|| digest_codec(&all)));
    });
}

/// Request heads and the message encoders: `proxy_serve`'s share of proto.
pub fn request_path(t: &mut Tracer, parent: usize, m: &mut Metrics) {
    t.span("micro.proto.heads", Some(parent), || {
        // ns per head to heads/s.
        m.set("proto.http.heads_per_s", 1e9 / ns_per_op(http_heads));
        m.set("proto.message.encode_ns", ns_per_op(encoders));
    });
}

/// POST bodies through the parser: `proxy_pay`'s share of proto.
pub fn payment_body(t: &mut Tracer, parent: usize, m: &mut Metrics) {
    // ns per byte to MB/s.
    m.set(
        "proto.http.body_mb_per_s",
        t.span("micro.proto.body", Some(parent), || {
            1e3 / ns_per_op(http_body)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_seeded_and_do_what_they_claim() {
        // Same seed, same operation mix: counts and shares repeat exactly.
        let ((_, offered), drops) = link(3);
        assert_eq!((offered, drops), (link(3).0 .1, link(3).1));
        assert!(
            drops > 0.01 && drops < 0.2,
            "link sheds its excess: {drops}"
        );
        let ((_, segments), retransmits) = tcp(3);
        assert_eq!((segments, retransmits), (tcp(3).0 .1, tcp(3).1));
        assert!(
            retransmits > 0.005 && retransmits < 0.2,
            "loss is retransmitted: {retransmits}"
        );
        assert!(segments >= 48 * ((1 << 20) / 1460));
        assert_eq!(
            event_queue(3, SimDuration::from_millis(1)).1,
            event_queue(3, SimDuration::from_millis(1)).1
        );
        assert_eq!(auction_admits(3, 50).1, 20_000);
        assert_eq!(digest_merge(&digests(3)).1, 18_000);
        assert_eq!(http_body().1, 64 << 20);
    }
}
