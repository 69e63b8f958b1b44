//! Aggregated payment state for replicated thinners.
//!
//! The paper notes thinners can be replicated (behind DNS round-robin,
//! §3.1) but never measures how the allocation behaves when each replica
//! sees only its own contenders. To measure that, replicas periodically
//! exchange a [`BidDigest`]: a four-word summary of one replica's
//! auction state — its id, its sync epoch, the cumulative payment bytes
//! it has accepted, and its live contender count. Replicas coordinate
//! one way only: each re-rates its slice of the server to its share of
//! the merged paid totals (`paid_total`), and a peer whose `epoch` stops
//! advancing is declared stale and drops out of those shares. Admission
//! stays local to each replica; no digest field gates it.
//!
//! Digests are *state-based*: each carries the replica's full cumulative
//! counters stamped with a monotone epoch, and [`DigestBoard::merge`]
//! keeps, per replica, the entry with the highest epoch. Merge is
//! therefore commutative, associative, and idempotent over any delivery
//! order (the property battery in `crates/core/tests/bid_digest_props.rs`
//! drives random reorderings), which is what lets the simulation ship
//! digests as ordinary delayed control packets without any delivery
//! guarantees beyond eventual arrival.

use std::collections::{BTreeMap, BTreeSet};

/// The number of `u64` words [`BidDigest::encode`] produces. Fixed so
/// the control-lane payload can be sized without allocation surprises.
pub const DIGEST_WORDS: usize = 4;

/// One replica's aggregated auction state at an epoch boundary.
///
/// `paid_total` is cumulative since the start of the run, so a lost or
/// reordered digest costs staleness, never double counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BidDigest {
    /// Which replica published this digest.
    pub replica: u32,
    /// The replica's sync epoch, strictly increasing per publish.
    pub epoch: u64,
    /// Cumulative payment bytes accepted from contenders.
    pub paid_total: u64,
    /// Live contenders at publish time. No replica reads it and the
    /// simulator's thinner leaves it at zero; it stays in the codec
    /// because the benchmark's digest micro-workload fills it.
    pub contenders: u64,
}

impl BidDigest {
    /// A zeroed digest for `replica` (epoch 0, nothing seen).
    pub fn new(replica: u32) -> Self {
        BidDigest {
            replica,
            epoch: 0,
            paid_total: 0,
            contenders: 0,
        }
    }

    /// Record one payment event of `bytes` (delta, not cumulative).
    pub fn note_payment(&mut self, bytes: u64) {
        self.paid_total += bytes;
    }

    /// Serialize to the fixed [`DIGEST_WORDS`]-word wire form carried by
    /// the simulator's control lane.
    pub fn encode(&self) -> Vec<u64> {
        vec![
            u64::from(self.replica),
            self.epoch,
            self.paid_total,
            self.contenders,
        ]
    }

    /// Inverse of [`BidDigest::encode`]. `None` on a malformed payload.
    pub fn decode(words: &[u64]) -> Option<Self> {
        let &[replica, epoch, paid_total, contenders] = words else {
            return None;
        };
        Some(BidDigest {
            replica: u32::try_from(replica).ok()?,
            epoch,
            paid_total,
            contenders,
        })
    }
}

/// What one replica knows about its peers: the latest digest per
/// replica, merged by epoch, plus which peers it currently considers
/// *stale* (silent past the failover threshold — see
/// [`DigestBoard::mark_stale`]).
#[derive(Clone, Debug, Default)]
pub struct DigestBoard {
    entries: BTreeMap<u32, BidDigest>,
    stale: BTreeSet<u32>,
}

impl DigestBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `d` in: kept iff it is the newest epoch seen from its
    /// replica (ties keep the incumbent — digests are deterministic per
    /// `(replica, epoch)`, so the tie is between identical values).
    /// This single rule makes merging commutative, associative, and
    /// idempotent across arbitrary delivery orders.
    ///
    /// A digest from a replica currently marked stale is ALWAYS kept and
    /// clears the mark: a crashed replica restarts with its epoch reset,
    /// so its fresh digests would lose the epoch race against its own
    /// pre-crash ghost forever. Hearing from a stale peer at all *is*
    /// the recovery signal; the max-epoch rule resumes from the accepted
    /// entry onward. Returns `true` iff the digest was kept.
    pub fn merge(&mut self, d: BidDigest) -> bool {
        let rejoining = self.stale.remove(&d.replica);
        match self.entries.get(&d.replica) {
            Some(have) if !rejoining && have.epoch >= d.epoch => false,
            _ => {
                self.entries.insert(d.replica, d);
                true
            }
        }
    }

    /// Merge every entry of `other` into `self`.
    pub fn merge_board(&mut self, other: &DigestBoard) {
        for d in other.entries.values() {
            self.merge(*d);
        }
    }

    /// Failover detection, run by replica `own` at its own epoch
    /// boundary: every peer whose latest digest lags `own_epoch` by more
    /// than `k` epochs has missed `k` consecutive sync periods (replicas
    /// publish in the same cadence) and is marked stale. Marked peers
    /// drop out of the live-share accessors until a digest from them
    /// arrives again ([`Self::merge`] clears the mark), so the survivors
    /// absorb their contender load.
    /// Returns the replicas *newly* marked by this call, in id order.
    pub fn mark_stale(&mut self, own: u32, own_epoch: u64, k: u64) -> Vec<u32> {
        let mut newly = Vec::new();
        for d in self.entries.values() {
            if d.replica != own
                && own_epoch.saturating_sub(d.epoch) > k
                && self.stale.insert(d.replica)
            {
                newly.push(d.replica);
            }
        }
        newly
    }

    /// Whether `replica` is currently marked stale.
    pub fn is_stale(&self, replica: u32) -> bool {
        self.stale.contains(&replica)
    }

    /// Number of replicas currently marked stale.
    pub fn stale_count(&self) -> usize {
        self.stale.len()
    }

    /// All entries, in replica order.
    pub fn entries(&self) -> impl Iterator<Item = &BidDigest> {
        self.entries.values()
    }

    /// Cumulative paid bytes summed over every replica's latest digest.
    pub fn total_paid(&self) -> u64 {
        self.entries.values().map(|d| d.paid_total).sum()
    }

    /// Cumulative paid bytes in `replica`'s latest digest (0 if unseen).
    pub fn paid_of(&self, replica: u32) -> u64 {
        self.entries.get(&replica).map_or(0, |d| d.paid_total)
    }

    /// [`Self::total_paid`] over live (non-stale) replicas only: the
    /// denominator of the capacity-share rebalance, so survivors absorb
    /// a dead peer's slice instead of leaving it reserved for a ghost.
    pub fn live_total_paid(&self) -> u64 {
        self.entries
            .values()
            .filter(|d| !self.stale.contains(&d.replica))
            .map(|d| d.paid_total)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(replica: u32, epoch: u64, paid: u64) -> BidDigest {
        let mut d = BidDigest::new(replica);
        d.epoch = epoch;
        d.note_payment(paid);
        d
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut d = digest(3, 7, 5_000);
        d.note_payment(1_000_000);
        d.contenders = 4;
        assert_eq!(d.paid_total, 1_005_000);
        let w = d.encode();
        assert_eq!(w, vec![3, 7, 1_005_000, 4]);
        assert_eq!(w.len(), DIGEST_WORDS);
        assert_eq!(BidDigest::decode(&w), Some(d));
    }

    #[test]
    fn malformed_payloads_do_not_decode() {
        let w = digest(3, 7, 5_000).encode();
        assert_eq!(BidDigest::decode(&w[1..]), None);
        assert_eq!(BidDigest::decode(&[w.as_slice(), &[0]].concat()), None);
        assert_eq!(BidDigest::decode(&[]), None);
        // A replica id beyond u32 is not a digest any replica sent.
        assert_eq!(BidDigest::decode(&[1 << 32, 7, 5_000, 0]), None);
    }

    #[test]
    fn merge_keeps_newest_epoch_per_replica() {
        let mut b = DigestBoard::new();
        b.merge(digest(0, 2, 100));
        b.merge(digest(0, 1, 50)); // stale: ignored
        b.merge(digest(1, 1, 30));
        assert_eq!(b.paid_of(0), 100);
        assert_eq!(b.paid_of(1), 30);
        assert_eq!(b.total_paid(), 130);
        b.merge(digest(0, 3, 200));
        assert_eq!(b.paid_of(0), 200);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut b = DigestBoard::new();
        let d = digest(2, 5, 77);
        b.merge(d);
        let snapshot = b.entries.clone();
        b.merge(d);
        assert_eq!(b.entries, snapshot);
    }

    #[test]
    fn stale_marking_detects_silence_and_rejoin_clears_it() {
        let mut b = DigestBoard::new();
        b.merge(digest(0, 10, 100)); // self
        b.merge(digest(1, 9, 50)); // one epoch behind: live
        b.merge(digest(2, 5, 70)); // silent for 5 epochs

        // k = 3: replica 2 crossed the threshold, replica 1 did not,
        // and self (replica 0) is never marked.
        assert_eq!(b.mark_stale(0, 10, 3), vec![2]);
        assert!(b.is_stale(2) && !b.is_stale(1) && !b.is_stale(0));
        assert_eq!(b.mark_stale(0, 10, 3), Vec::<u32>::new(), "no re-report");
        assert_eq!(b.stale_count(), 1);
        // The stale peer drops out of the live aggregates but its last
        // digest stays on the board (cumulative history is still real).
        assert_eq!(b.total_paid(), 220);
        assert_eq!(b.live_total_paid(), 150);
        assert_eq!(b.paid_of(2), 70);
        // Re-join: the restarted replica publishes with a RESET epoch.
        // Plain max-epoch would reject 1 < 5 forever; the stale mark
        // forces acceptance and clears.
        assert!(b.merge(digest(2, 1, 5)), "stale re-join must be kept");
        assert!(!b.is_stale(2));
        assert_eq!(b.paid_of(2), 5);
        assert_eq!(b.live_total_paid(), 155);
        // Ordinary epoch discipline resumes after the re-join.
        assert!(!b.merge(digest(2, 0, 99)));
        assert_eq!(b.paid_of(2), 5);
    }
}
