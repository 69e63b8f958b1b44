//! [`AuctionFrontEnd`] against a full-scan oracle that states §3.3
//! directly.
//!
//! The oracle keeps contenders in one ordered map and answers every
//! question by scanning it: the winner is the arg-max of `paid`, ties
//! to the earliest `seq`; a tick expires every contender with
//! `now − last_payment ≥ timeout`, in key order; the next expiry is the
//! minimum deadline. The front end answers the same questions from an
//! arena, a hash index and two indexed heaps, one of them filed lazily.
//! Driven side by side through random op sequences, the two must emit
//! the same directives and report the same observable state after
//! every single op.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use proptest::prelude::*;
use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestId, RequestKey};
use speakup_net::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

const TIMEOUT: SimDuration = SimDuration::from_secs(10);

#[derive(Clone, Copy)]
struct Contender {
    paid: u64,
    seq: u64,
    opened: SimTime,
    last_payment: SimTime,
}

/// §3.3 by full scan. Mirrors the front end's public behaviour with
/// none of its data structures.
#[derive(Default)]
struct Oracle {
    busy: Option<RequestKey>,
    contenders: BTreeMap<RequestKey, Contender>,
    next_seq: u64,
    going_rate: u64,
    auctions: u64,
    free_admissions: u64,
    channel_timeouts: u64,
    winning_bids: Vec<f64>,
    contention_time: Vec<f64>,
}

impl Oracle {
    fn top(&self) -> Option<(RequestKey, Contender)> {
        self.contenders
            .iter()
            .max_by(|(_, a), (_, b)| a.paid.cmp(&b.paid).then(b.seq.cmp(&a.seq)))
            .map(|(k, c)| (*k, *c))
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.contenders
            .values()
            .map(|c| c.last_payment + TIMEOUT)
            .min()
    }

    fn hold_auction(&mut self, now: SimTime, out: &mut Vec<Directive>) {
        let Some((winner, c)) = self.top() else {
            return;
        };
        self.contenders.remove(&winner);
        self.going_rate = c.paid;
        self.auctions += 1;
        self.winning_bids.push(c.paid as f64);
        self.contention_time
            .push(now.saturating_since(c.opened).as_secs_f64());
        self.busy = Some(winner);
        out.push(Directive::TerminateChannel(winner));
        out.push(Directive::Admit(winner));
    }

    fn on_request(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>) {
        if self.contenders.contains_key(&req) || self.busy == Some(req) {
            return;
        }
        if self.busy.is_none() && self.contenders.is_empty() {
            self.busy = Some(req);
            self.going_rate = 0;
            self.free_admissions += 1;
            self.winning_bids.push(0.0);
            self.contention_time.push(0.0);
            out.push(Directive::Admit(req));
            return;
        }
        let c = Contender {
            paid: 0,
            seq: self.next_seq,
            opened: now,
            last_payment: now,
        };
        self.next_seq += 1;
        self.contenders.insert(req, c);
        out.push(Directive::Encourage(req));
        if self.busy.is_none() {
            self.hold_auction(now, out);
        }
    }

    fn on_payment(&mut self, now: SimTime, req: RequestKey, bytes: u64) {
        if let Some(c) = self.contenders.get_mut(&req) {
            c.paid += bytes;
            c.last_payment = now;
        }
    }

    fn on_server_done(&mut self, now: SimTime, out: &mut Vec<Directive>) {
        self.busy = None;
        self.hold_auction(now, out);
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Vec<Directive>) -> Option<SimTime> {
        let expired: Vec<RequestKey> = self
            .contenders
            .iter()
            .filter(|(_, c)| now.saturating_since(c.last_payment) >= TIMEOUT)
            .map(|(k, _)| *k)
            .collect();
        for k in expired {
            self.contenders.remove(&k);
            self.channel_timeouts += 1;
            out.push(Directive::TerminateChannel(k));
            out.push(Directive::Drop(k));
        }
        self.next_expiry()
    }

    fn reset(&mut self) {
        self.busy = None;
        self.contenders.clear();
        self.next_seq = 0;
        self.going_rate = 0;
    }
}

fn key(c: u32) -> RequestKey {
    RequestKey::new(ClientId(c % 7), RequestId(u64::from(c)))
}

/// The front end and the oracle, driven in lockstep.
struct Pair {
    fe: AuctionFrontEnd,
    oracle: Oracle,
    now: SimTime,
    fe_out: Vec<Directive>,
    oracle_out: Vec<Directive>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            fe: AuctionFrontEnd::new(AuctionConfig {
                channel_timeout: TIMEOUT,
            }),
            oracle: Oracle::default(),
            now: SimTime::ZERO,
            fe_out: Vec::new(),
            oracle_out: Vec::new(),
        }
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    fn request(&mut self, k: RequestKey) {
        self.fe.on_request(self.now, k, &mut self.fe_out);
        self.oracle.on_request(self.now, k, &mut self.oracle_out);
    }

    fn pay(&mut self, k: RequestKey, bytes: u64) {
        self.fe.on_payment(self.now, k, bytes, &mut self.fe_out);
        self.oracle.on_payment(self.now, k, bytes);
    }

    fn cancel(&mut self, k: RequestKey) {
        self.fe.on_cancel(self.now, k, &mut self.fe_out);
        self.oracle.contenders.remove(&k);
    }

    fn server_done(&mut self) {
        if let Some(k) = self.oracle.busy {
            self.fe.on_server_done(self.now, k, &mut self.fe_out);
            self.oracle.on_server_done(self.now, &mut self.oracle_out);
        }
    }

    /// Tick at `at` (or now, if `at` is already past).
    fn tick(&mut self, at: SimTime) {
        self.now = self.now.max(at);
        let a = self.fe.on_tick(self.now, &mut self.fe_out);
        let b = self.oracle.on_tick(self.now, &mut self.oracle_out);
        assert_eq!(a, b, "on_tick's next deadline");
    }

    fn reset(&mut self) {
        self.fe.reset(self.now);
        self.oracle.reset();
    }

    /// Everything observable must agree. `hint` also asks for the next
    /// expiry, which makes the front end re-file lazy deadline entries:
    /// callers vary it so sequences with and without that side effect
    /// are both covered. `bids_of` lists the keys to compare `bid_of` on.
    fn check(&mut self, hint: bool, bids_of: &[RequestKey]) {
        assert_eq!(self.fe_out, self.oracle_out, "directive stream");
        self.fe_out.clear();
        self.oracle_out.clear();
        let o = &self.oracle;
        assert_eq!(self.fe.is_busy(), o.busy.is_some());
        assert_eq!(self.fe.top_bid(), o.top().map(|(_, c)| (c.paid, c.seq)));
        assert_eq!(self.fe.going_rate(), Some(o.going_rate));
        assert_eq!(self.fe.contender_count(), o.contenders.len());
        assert_eq!(
            self.fe.outstanding_bid_bytes(),
            o.contenders.values().map(|c| c.paid).sum::<u64>()
        );
        for &k in bids_of {
            assert_eq!(self.fe.bid_of(k), o.contenders.get(&k).map(|c| c.paid));
        }
        let s = &self.fe.stats;
        assert_eq!(s.auctions, o.auctions);
        assert_eq!(s.free_admissions, o.free_admissions);
        assert_eq!(s.channel_timeouts, o.channel_timeouts);
        assert_eq!(s.winning_bids.values(), &o.winning_bids[..]);
        assert_eq!(s.contention_time.values(), &o.contention_time[..]);
        if hint {
            assert_eq!(self.fe.next_expiry_hint(), o.next_expiry());
        }
    }
}

/// Keys the random sequences draw from: few enough that duplicates,
/// re-registrations after a win and payments to leavers all happen.
const POOL: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_end_matches_the_full_scan_oracle(
        ops in proptest::collection::vec(
            (0u8..12, 0u32..POOL, 1u64..40_000, any::<bool>()),
            8..160,
        ),
    ) {
        let pool: Vec<RequestKey> = (0..POOL).map(key).collect();
        let mut p = Pair::new();
        for (op, c, amount, hint) in ops {
            let k = key(c);
            match op {
                // Request: new, duplicate, or the one on the server.
                0..=2 => p.request(k),
                3 | 4 => p.pay(k, amount),
                // Two payments at one instant: same payer, then two.
                5 => {
                    p.pay(k, amount);
                    p.pay(k, 1);
                    p.pay(key((c + 1) % POOL), amount);
                }
                // Payment for a key that never contends.
                6 => p.pay(key(c + POOL), amount),
                7 => p.cancel(k),
                8 => p.server_done(),
                // Tick just before, at, and just after the earliest
                // deadline (or now, with nothing pending).
                9 => {
                    let due = p.oracle.next_expiry().unwrap_or(p.now);
                    let at = match amount % 3 {
                        0 => SimTime::from_nanos(due.as_nanos().saturating_sub(1)),
                        1 => due,
                        _ => due + SimDuration::from_nanos(1),
                    };
                    p.tick(at);
                }
                10 => p.tick(p.now),
                11 if amount % 8 == 0 => p.reset(),
                // Let time pass: up to 4 s, so idle contenders come due
                // within a few ops while paying ones do not.
                _ => p.advance(SimDuration::from_nanos(amount * 100_000)),
            }
            p.check(hint, &pool);
        }
    }
}

/// 12 000 standing contenders, registered over 8 s so their deadlines
/// spread out, then churn: winners, cancellations and expiries free
/// arena slots that later registrations reuse, while payments and ticks
/// keep both heaps moving.
#[test]
fn ten_thousand_contenders_with_slot_reuse() {
    const N: u32 = 12_000;
    let mut rng = proptest::TestRng::from_name("ten_thousand_contenders_with_slot_reuse");
    let mut below = |n: u64| rng.below(n);
    let mut p = Pair::new();
    for c in 0..=N {
        p.request(key(c));
        p.advance(SimDuration::from_nanos(666_000));
    }
    p.check(true, &[]);
    assert_eq!(p.fe.contender_count(), 12_000);
    let mut next = N + 1;
    for step in 0..3_000u32 {
        let c = u32::try_from(below(u64::from(next))).expect("fits");
        match below(10) {
            0..=4 => p.pay(key(c), 1 + below(1 << 20)),
            5 => p.cancel(key(c)),
            6 | 7 => p.server_done(),
            8 => {
                // A newcomer takes a freed slot.
                p.request(key(next));
                p.pay(key(next), below(1 << 20));
                next += 1;
            }
            _ => {
                // Now, or at the earliest deadline: once time has caught
                // up with the deadlines every tick expires whoever has
                // not paid for 10 s.
                let due = p.oracle.next_expiry().unwrap_or(p.now);
                let at = if below(4) == 0 { due } else { p.now };
                p.tick(at);
            }
        }
        p.advance(SimDuration::from_nanos(1 + below(2_000_000)));
        p.check(step % 3 == 0, &[key(c)]);
    }
    assert!(p.oracle.channel_timeouts > 0, "some contenders expired");
    assert!(p.oracle.auctions > 300, "auctions were held");
}
