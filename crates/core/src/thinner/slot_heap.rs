//! An indexed binary min-heap over arena slots.
//!
//! Each slot of some caller-owned arena files at most one `(key, slot)`
//! entry. The heap remembers where every slot's entry sits, so a caller
//! holding only the slot can re-key or withdraw that entry in O(log n)
//! — no searching, and no stale entries left behind to skip later. Keys
//! are stored inline: a sift compares neighbours in the heap array and
//! never touches the arena.

/// Position marker for a slot with no entry filed.
const ABSENT: usize = usize::MAX;

/// See the module docs. The smallest key is on top; ties between equal
/// keys surface in an unspecified (but deterministic) order.
pub(super) struct SlotHeap<K> {
    /// Heap-ordered entries.
    heap: Vec<(K, usize)>,
    /// `pos[slot]` is the index of `slot`'s entry in `heap`, or
    /// [`ABSENT`].
    pos: Vec<usize>,
}

impl<K: Ord + Copy> SlotHeap<K> {
    pub fn new() -> Self {
        SlotHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// The entry with the smallest key.
    pub fn peek(&self) -> Option<(K, usize)> {
        self.heap.first().copied()
    }

    /// Every filed entry, in heap (not key) order.
    pub fn entries(&self) -> &[(K, usize)] {
        &self.heap
    }

    /// File `slot` under `key`. The slot must not already be filed.
    pub fn push(&mut self, slot: usize, key: K) {
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[slot], ABSENT, "slot filed twice");
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Re-file `slot` (which must be filed) under `key`.
    pub fn set_key(&mut self, slot: usize, key: K) {
        let i = self.pos[slot];
        let old = self.heap[i].0;
        self.heap[i].0 = key;
        if key < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Withdraw `slot`'s entry (which must be filed).
    pub fn remove(&mut self, slot: usize) {
        let i = self.pos[slot];
        self.pos[slot] = ABSENT;
        let removed = self.heap[i].0;
        let last = self
            .heap
            .pop()
            .expect("invariant: a filed slot has an entry");
        if i < self.heap.len() {
            self.heap[i] = last;
            if last.0 < removed {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Withdraw every entry.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1] = i;
            i = parent;
        }
        self.heap[i] = entry;
        self.pos[entry.1] = i;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].0 < self.heap[child].0 {
                child += 1;
            }
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1] = i;
            i = child;
        }
        self.heap[i] = entry;
        self.pos[entry.1] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakup_net::rng::Pcg32;

    /// Every entry sits where `pos` says and no child outranks its parent.
    fn check(h: &SlotHeap<u64>) {
        for (i, &(key, slot)) in h.heap.iter().enumerate() {
            assert_eq!(h.pos[slot], i);
            if i > 0 {
                assert!(h.heap[(i - 1) / 2].0 <= key);
            }
        }
        let filed = h.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(filed, h.heap.len());
    }

    #[test]
    fn random_ops_match_a_full_scan() {
        let mut rng = Pcg32::new(7, 0x510f);
        let mut h: SlotHeap<u64> = SlotHeap::new();
        // The model: key per slot, `None` when not filed.
        let mut model: Vec<Option<u64>> = vec![None; 64];
        for _ in 0..20_000 {
            let slot = usize::try_from(rng.below(64)).expect("small");
            let key = rng.range_u64(0, 50);
            match (model[slot], rng.below(3)) {
                (None, _) => {
                    h.push(slot, key);
                    model[slot] = Some(key);
                }
                (Some(_), 0) => {
                    h.remove(slot);
                    model[slot] = None;
                }
                (Some(_), _) => {
                    h.set_key(slot, key);
                    model[slot] = Some(key);
                }
            }
            check(&h);
            let min = model.iter().flatten().min().copied();
            assert_eq!(h.peek().map(|(k, _)| k), min);
            if let Some((k, s)) = h.peek() {
                assert_eq!(model[s], Some(k));
            }
        }
        h.clear();
        assert_eq!(h.peek(), None);
        h.push(3, 9);
        assert_eq!(h.peek(), Some((9, 3)));
    }
}
