//! Property battery for the replicated-thinner digest machinery.
//!
//! [`DigestBoard::merge`] must be a join: commutative, associative, and
//! idempotent over *any* delivery order of any set of digests. That is
//! what lets the simulation ship digests as ordinary delayed control
//! packets with no ordering or exactly-once guarantees — every
//! replica's board converges to the same per-replica max-epoch state no
//! matter how the network interleaved delivery.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use proptest::prelude::*;
use speakup_core::thinner::{BidDigest, DigestBoard};

/// The canonical digest a replica publishes at an epoch: a pure
/// function of `(replica, epoch)`, exactly as in the real system, where
/// a digest's content is determined by the publisher's state at the
/// epoch boundary. The merge tie rule (equal epochs keep the
/// incumbent) is only sound under this determinism.
fn canonical(replica: u32, epoch: u64) -> BidDigest {
    let mut d = BidDigest::new(replica);
    d.epoch = epoch;
    for k in 0..=epoch {
        d.note_payment(1 + 1_000 * u64::from(replica) + 137 * k);
    }
    d.contenders = epoch % 5;
    d
}

/// Deterministic shuffle of `items` keyed by `seed` (splitmix-style
/// index mixing; the stub has no `Shuffle` strategy).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

fn board_state(b: &DigestBoard) -> Vec<BidDigest> {
    b.entries().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_converges_over_any_delivery_order(
        publishes in proptest::collection::vec((0u32..5, 0u64..8), 1..48),
        seed in any::<u64>(),
        dup in 0usize..8,
        split in any::<u64>(),
    ) {
        // Delivery order A: as published. Order B: shuffled, with a
        // prefix redelivered (duplicates model the epoch cadence
        // re-sending cumulative state).
        let a_order: Vec<BidDigest> =
            publishes.iter().map(|&(r, e)| canonical(r, e)).collect();
        let mut b_order = a_order.clone();
        let redelivered: Vec<BidDigest> =
            b_order.iter().take(dup).copied().collect();
        b_order.extend(redelivered);
        shuffle(&mut b_order, seed);

        let mut board_a = DigestBoard::new();
        for d in &a_order {
            board_a.merge(*d);
        }
        let mut board_b = DigestBoard::new();
        for d in &b_order {
            board_b.merge(*d);
        }
        // Commutativity + idempotence: same converged state.
        prop_assert_eq!(board_state(&board_a), board_state(&board_b));

        // Associativity: folding through an intermediate board at an
        // arbitrary split point changes nothing.
        let cut = (split as usize) % (b_order.len() + 1);
        let mut left = DigestBoard::new();
        for d in &b_order[..cut] {
            left.merge(*d);
        }
        let mut right = DigestBoard::new();
        for d in &b_order[cut..] {
            right.merge(*d);
        }
        left.merge_board(&right);
        prop_assert_eq!(board_state(&board_a), board_state(&left));

        // Merging a board into itself is a no-op.
        let snapshot = board_state(&left);
        let copy = left.clone();
        left.merge_board(&copy);
        prop_assert_eq!(board_state(&left), snapshot);

        // The board keeps exactly the max epoch seen per replica.
        for d in board_a.entries() {
            let max_epoch = publishes
                .iter()
                .filter(|&&(r, _)| r == d.replica)
                .map(|&(_, e)| e)
                .max()
                .expect("entry implies a publish");
            prop_assert_eq!(d.epoch, max_epoch);
            prop_assert_eq!(*d, canonical(d.replica, max_epoch));
        }
    }
}
