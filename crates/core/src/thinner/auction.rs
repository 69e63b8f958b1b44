//! §3.3 — the explicit payment channel and virtual auction.
//!
//! When the server is overloaded, the thinner asks each requesting client
//! to open a payment channel and stream dummy bytes. Contending clients'
//! bytes are tallied; when the server is ready for a new request, a
//! *virtual auction* admits the contender that has paid the most and
//! terminates its channel. The price emerges on its own: the going rate is
//! the winning bid of the most recent auction, averaging `(G+B)/c` bytes
//! per request when everyone spends everything (§3.3).
//!
//! Channels that pay without producing an admissible request are timed out
//! after a configurable period (the prototype uses 10 s — §7.3), which is
//! what makes bad clients waste bytes.
//!
//! ## Scaling
//!
//! With 10^5-client crowds the thinner carries 10^4–10^5 live channels
//! and credits payment to one of them every few hundred nanoseconds, so
//! nothing on the payment or admission path may cost more than
//! O(log contenders). Contenders live in an arena (a `Vec` plus a free
//! list of reusable slots) reached through a lookup-only hash index;
//! two indexed heaps (`SlotHeap`) order the arena's slots:
//!
//! * **Bids**, on `(paid desc, seq asc)`. `seq` is unique, so the order
//!   is total and the top is §3.3's winner: the highest payer, ties to
//!   the earliest registrant. A payment is one index lookup plus a
//!   sift-up of the payer's entry; an auction reads the top.
//! * **Idle deadlines**, one entry per contender, filed at registration
//!   under `last_payment + timeout`. A payment moves the contender's
//!   true deadline later but leaves the entry where it is, so an entry
//!   is never later than the deadline it stands for. Whoever needs the
//!   earliest true deadline re-files the top entry at its true deadline
//!   until the top is exact; everything below it is filed no earlier,
//!   hence due no earlier. A contender that keeps paying costs the
//!   deadline heap nothing until its old entry surfaces.
//!
//! A contender that wins, cancels or expires is withdrawn from the
//! index and both heaps at once, so neither heap ever holds an entry
//! for a request that has left the auction.
//!
//! ## Replication
//!
//! Each replica of a `--thinners R` deployment runs its own front end
//! over its own contenders and admits to its own slice of the server.
//! Replicas never gate one another's admissions: they coordinate only
//! through the capacity shares their digests set (see `digest`).

use super::slot_heap::SlotHeap;
use super::FrontEnd;
use crate::types::{Directive, RequestKey};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Configuration for the auction front end.
#[derive(Clone, Copy, Debug)]
pub struct AuctionConfig {
    /// Time out a payment channel that goes *idle* (no bytes) for this
    /// long, dropping its request. The prototype times out channels after
    /// 10 s of accepting payment with no admissible request (§7.3); a
    /// channel that keeps paying is never expired, since a slow-but-honest
    /// client may legitimately need longer than 10 s to win when the
    /// going rate is high (e.g. `c` = 50 with 100 Kbit/s per channel).
    pub channel_timeout: SimDuration,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            channel_timeout: SimDuration::from_secs(10),
        }
    }
}

/// A request contending in the auction.
#[derive(Clone, Copy, Debug)]
struct Contender {
    req: RequestKey,
    /// Bytes paid so far.
    paid: u64,
    /// When the contender registered (tie-break: earlier wins).
    seq: u64,
    /// When its channel was opened (for contention-time metrics).
    opened: SimTime,
    /// Last time bytes arrived (for the idle timeout).
    last_payment: SimTime,
}

/// Bid-heap key: the smallest is the highest payer, ties to the
/// smallest (earliest) `seq`.
type BidKey = (Reverse<u64>, u64);

/// Observable counters for the auction front end.
#[derive(Clone, Debug, Default)]
pub struct AuctionStats {
    /// Auctions held (admissions while contenders existed).
    pub auctions: u64,
    /// Requests admitted without contention (server was free).
    pub free_admissions: u64,
    /// Channels expired by the timeout.
    pub channel_timeouts: u64,
    /// Winning bids, bytes (the price of each served request).
    pub winning_bids: Samples,
    /// Time each winner spent contending, seconds.
    pub contention_time: Samples,
}

/// The §3.3 front end. See module docs.
pub struct AuctionFrontEnd {
    cfg: AuctionConfig,
    busy: Option<RequestKey>,
    /// Contender arena. A slot is live while `index` maps its request
    /// to it and dead (its contents meaningless) while it is on `free`.
    arena: Vec<Contender>,
    /// Dead arena slots, reused before the arena grows.
    free: Vec<usize>,
    /// Request → live arena slot. Only ever probed by key, so the
    /// hasher's per-process seed cannot reach an output; it stays std's
    /// keyed default because the proxy feeds wire-chosen ids in here.
    index: HashMap<RequestKey, usize>,
    /// Live slots by bid; the top is the auction winner.
    bids: SlotHeap<BidKey>,
    /// Live slots by filed idle deadline (see the module docs).
    expiries: SlotHeap<SimTime>,
    next_seq: u64,
    going_rate: u64,
    /// Counters and price samples.
    pub stats: AuctionStats,
}

impl AuctionFrontEnd {
    /// An auction thinner with the given configuration.
    pub fn new(cfg: AuctionConfig) -> Self {
        AuctionFrontEnd {
            cfg,
            busy: None,
            arena: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            bids: SlotHeap::new(),
            expiries: SlotHeap::new(),
            next_seq: 0,
            going_rate: 0,
            stats: AuctionStats::default(),
        }
    }

    /// Whether a request currently occupies the server.
    pub fn is_busy(&self) -> bool {
        self.busy.is_some()
    }

    /// The current top bid `(paid, seq)`. `None` when no contender is
    /// registered.
    pub fn top_bid(&self) -> Option<(u64, u64)> {
        self.bids
            .peek()
            .map(|((Reverse(paid), seq), _)| (paid, seq))
    }

    /// The next pending channel expiry, if any.
    pub fn next_expiry_hint(&mut self) -> Option<SimTime> {
        self.next_channel_expiry()
    }

    /// Number of clients currently streaming payment.
    pub fn contender_count(&self) -> usize {
        self.index.len()
    }

    /// Total bytes currently bid across all contenders.
    pub fn outstanding_bid_bytes(&self) -> u64 {
        self.bids
            .entries()
            .iter()
            .map(|((Reverse(paid), _), _)| paid)
            .sum()
    }

    /// Cumulative bytes a specific contender has paid, if contending.
    pub fn bid_of(&self, req: RequestKey) -> Option<u64> {
        self.index.get(&req).map(|&slot| self.arena[slot].paid)
    }

    /// Enter `req` into the auction at `now` with nothing paid.
    fn register(&mut self, now: SimTime, req: RequestKey) {
        let c = Contender {
            req,
            paid: 0,
            seq: self.next_seq,
            opened: now,
            last_payment: now,
        };
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.arena[slot] = c;
                slot
            }
            None => {
                self.arena.push(c);
                self.arena.len() - 1
            }
        };
        self.index.insert(req, slot);
        self.bids.push(slot, (Reverse(c.paid), c.seq));
        self.expiries.push(slot, now + self.cfg.channel_timeout);
    }

    /// Take the live contender in `slot` out of the auction.
    fn withdraw(&mut self, slot: usize) -> Contender {
        let c = self.arena[slot];
        self.index.remove(&c.req);
        self.bids.remove(slot);
        self.expiries.remove(slot);
        self.free.push(slot);
        c
    }

    /// Hold the auction: admit the top payer (max paid; ties to the
    /// earliest registrant), terminate its channel.
    fn hold_auction(&mut self, now: SimTime, out: &mut Vec<Directive>) {
        debug_assert!(self.busy.is_none());
        let Some((_, slot)) = self.bids.peek() else {
            return;
        };
        let c = self.withdraw(slot);
        self.going_rate = c.paid;
        self.stats.auctions += 1;
        self.stats.winning_bids.push(c.paid as f64);
        self.stats
            .contention_time
            .push(now.saturating_since(c.opened).as_secs_f64());
        self.busy = Some(c.req);
        out.push(Directive::TerminateChannel(c.req));
        out.push(Directive::Admit(c.req));
    }

    /// The earliest true idle deadline: re-file the top entry until it
    /// is exact (see the module docs).
    fn next_channel_expiry(&mut self) -> Option<SimTime> {
        loop {
            let (filed, slot) = self.expiries.peek()?;
            let due = self.arena[slot].last_payment + self.cfg.channel_timeout;
            if due == filed {
                return Some(due);
            }
            self.expiries.set_key(slot, due);
        }
    }
}

impl FrontEnd for AuctionFrontEnd {
    fn on_request(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>) {
        if self.index.contains_key(&req) || self.busy == Some(req) {
            return; // duplicate
        }
        if self.busy.is_none() && self.index.is_empty() {
            // Unloaded server: serve immediately, price zero.
            self.busy = Some(req);
            self.going_rate = 0;
            self.stats.free_admissions += 1;
            self.stats.winning_bids.push(0.0);
            self.stats.contention_time.push(0.0);
            out.push(Directive::Admit(req));
            return;
        }
        self.register(now, req);
        out.push(Directive::Encourage(req));
        // If the server is actually idle (possible when every prior
        // contender timed out between completions), hold an auction now.
        if self.busy.is_none() {
            self.hold_auction(now, out);
        }
    }

    fn on_payment(&mut self, now: SimTime, req: RequestKey, bytes: u64, out: &mut Vec<Directive>) {
        let _ = out;
        if let Some(&slot) = self.index.get(&req) {
            let c = &mut self.arena[slot];
            c.paid += bytes;
            c.last_payment = now;
            self.bids.set_key(slot, (Reverse(c.paid), c.seq));
        }
        // Payment for a non-contender (late bytes after termination) is
        // ignored — exactly the "wasted bytes" effect of §7.3.
    }

    fn on_server_done(&mut self, now: SimTime, req: RequestKey, out: &mut Vec<Directive>) {
        assert_eq!(self.busy, Some(req), "done for a request not on the server");
        self.busy = None;
        self.hold_auction(now, out);
    }

    fn on_cancel(&mut self, _now: SimTime, req: RequestKey, out: &mut Vec<Directive>) {
        let _ = out;
        if let Some(&slot) = self.index.get(&req) {
            self.withdraw(slot);
        }
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Vec<Directive>) -> Option<SimTime> {
        // Expire channels that stopped paying (`now - last_payment >=
        // timeout`). Every entry filed at or before `now` is looked at:
        // its contender either is due, or paid since and is re-filed at
        // its true deadline.
        let mut expired: Vec<RequestKey> = Vec::new();
        while let Some((filed, slot)) = self.expiries.peek() {
            if filed > now {
                break;
            }
            let due = self.arena[slot].last_payment + self.cfg.channel_timeout;
            if due > now {
                self.expiries.set_key(slot, due);
            } else {
                expired.push(self.withdraw(slot).req);
            }
        }
        expired.sort();
        for k in expired {
            self.stats.channel_timeouts += 1;
            out.push(Directive::TerminateChannel(k));
            out.push(Directive::Drop(k));
        }
        self.next_channel_expiry()
    }

    fn reset(&mut self, _now: SimTime) {
        self.busy = None;
        self.arena.clear();
        self.free.clear();
        self.index.clear();
        self.bids.clear();
        self.expiries.clear();
        self.next_seq = 0;
        self.going_rate = 0;
    }

    fn name(&self) -> &'static str {
        "auction"
    }

    fn going_rate(&self) -> Option<u64> {
        Some(self.going_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thinner::testutil::{admitted, dropped, encouraged, key, t};

    fn fe() -> AuctionFrontEnd {
        AuctionFrontEnd::new(AuctionConfig::default())
    }

    #[test]
    fn unloaded_server_admits_immediately_at_price_zero() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(1, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(1, 1)]);
        assert_eq!(f.going_rate(), Some(0));
        assert_eq!(f.stats.free_admissions, 1);
    }

    #[test]
    fn busy_server_encourages() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(1, 1), &mut out);
        out.clear();
        f.on_request(t(1), key(2, 1), &mut out);
        assert!(admitted(&out).is_empty());
        assert_eq!(encouraged(&out), vec![key(2, 1)]);
        assert_eq!(f.contender_count(), 1);
    }

    #[test]
    fn auction_admits_highest_payer() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out); // occupies server
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_request(t(1), key(2, 1), &mut out);
        f.on_request(t(1), key(3, 1), &mut out);
        f.on_payment(t(2), key(1, 1), 5_000, &mut out);
        f.on_payment(t(2), key(2, 1), 9_000, &mut out);
        f.on_payment(t(3), key(3, 1), 8_999, &mut out);
        out.clear();
        f.on_server_done(t(4), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(2, 1)]);
        assert!(out.contains(&Directive::TerminateChannel(key(2, 1))));
        assert_eq!(f.going_rate(), Some(9_000));
        assert_eq!(f.contender_count(), 2);
        assert_eq!(f.stats.auctions, 1);
    }

    #[test]
    fn tie_breaks_to_earlier_contender() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_request(t(2), key(2, 1), &mut out);
        f.on_payment(t(3), key(1, 1), 100, &mut out);
        f.on_payment(t(3), key(2, 1), 100, &mut out);
        out.clear();
        f.on_server_done(t(4), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(1, 1)]);
    }

    #[test]
    fn cumulative_payment_across_events() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_payment(t(2), key(1, 1), 100, &mut out);
        f.on_payment(t(3), key(1, 1), 250, &mut out);
        assert_eq!(f.bid_of(key(1, 1)), Some(350));
        assert_eq!(f.outstanding_bid_bytes(), 350);
    }

    #[test]
    fn payment_after_admission_is_wasted() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_payment(t(2), key(1, 1), 100, &mut out);
        f.on_server_done(t(3), key(0, 1), &mut out);
        // key(1,1) now on the server; stray payment bytes are ignored.
        f.on_payment(t(4), key(1, 1), 10_000, &mut out);
        assert_eq!(f.bid_of(key(1, 1)), None);
        assert_eq!(f.outstanding_bid_bytes(), 0);
    }

    #[test]
    fn idle_channel_drops_request() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(100), key(1, 1), &mut out);
        out.clear();
        // Before the timeout: nothing.
        let next = f.on_tick(t(5_000), &mut out);
        assert!(out.is_empty());
        assert_eq!(next, Some(t(10_100)));
        // After 10 s of silence: channel terminated, request dropped.
        let next = f.on_tick(t(10_100), &mut out);
        assert_eq!(dropped(&out), vec![key(1, 1)]);
        assert!(out.contains(&Directive::TerminateChannel(key(1, 1))));
        assert_eq!(f.stats.channel_timeouts, 1);
        assert_eq!(next, None);
    }

    #[test]
    fn paying_channel_survives_past_ten_seconds() {
        // A slow-but-paying contender must not be expired: at c = 50 the
        // going rate is 250 KB and a 100 Kbit/s channel needs ~20 s.
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(100), key(1, 1), &mut out);
        for s in 1..=25u64 {
            f.on_payment(t(s * 1000), key(1, 1), 12_500, &mut out);
            f.on_tick(t(s * 1000 + 1), &mut out);
        }
        assert_eq!(f.stats.channel_timeouts, 0);
        assert_eq!(f.contender_count(), 1);
        out.clear();
        f.on_server_done(t(26_000), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(1, 1)]);
    }

    #[test]
    fn auction_after_idle_gap() {
        // Server goes idle with no contenders; a later request is served
        // instantly; then another contends and wins when done.
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_server_done(t(5), key(0, 1), &mut out);
        out.clear();
        f.on_request(t(10), key(1, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(1, 1)]);
        out.clear();
        f.on_request(t(11), key(2, 1), &mut out);
        f.on_payment(t(12), key(2, 1), 10, &mut out);
        out.clear();
        f.on_server_done(t(15), key(1, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(2, 1)]);
        assert_eq!(f.going_rate(), Some(10));
    }

    #[test]
    fn cancel_withdraws_contender() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_request(t(2), key(2, 1), &mut out);
        f.on_payment(t(3), key(1, 1), 1000, &mut out);
        f.on_payment(t(3), key(2, 1), 10, &mut out);
        f.on_cancel(t(4), key(1, 1), &mut out);
        out.clear();
        f.on_server_done(t(5), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(2, 1)]);
    }

    #[test]
    fn re_registering_after_cancel_queues_behind_earlier_equal_bids() {
        // A request that withdraws and comes back is a newcomer: it must
        // not keep the tie-break rank of its first registration.
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_request(t(2), key(2, 1), &mut out);
        f.on_cancel(t(3), key(1, 1), &mut out);
        f.on_request(t(4), key(1, 1), &mut out);
        assert_eq!(f.top_bid(), Some((0, 1)));
        out.clear();
        f.on_server_done(t(5), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(2, 1)]);
    }

    #[test]
    fn duplicate_request_ignored() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        out.clear();
        f.on_request(t(2), key(1, 1), &mut out);
        assert!(out.is_empty());
        assert_eq!(f.contender_count(), 1);
    }

    #[test]
    fn zero_payers_still_admitted_in_arrival_order() {
        // Contenders who never pay still win eventually (arrival order).
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_request(t(2), key(2, 1), &mut out);
        out.clear();
        f.on_server_done(t(3), key(0, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(1, 1)]);
        out.clear();
        f.on_server_done(t(4), key(1, 1), &mut out);
        assert_eq!(admitted(&out), vec![key(2, 1)]);
    }

    #[test]
    fn stats_track_prices() {
        let mut f = fe();
        let mut out = Vec::new();
        f.on_request(t(0), key(0, 1), &mut out);
        f.on_request(t(1), key(1, 1), &mut out);
        f.on_payment(t(2), key(1, 1), 4_000, &mut out);
        f.on_server_done(t(3), key(0, 1), &mut out);
        assert_eq!(f.stats.winning_bids.len(), 2); // free admission + auction
        assert_eq!(f.stats.winning_bids.values()[1], 4_000.0);
    }
}
