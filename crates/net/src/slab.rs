//! Dense flow-keyed tables.
//!
//! [`FlowId`]s are packed — high bits name the opening node, low bits a
//! per-node counter (see [`crate::sim::flow_id`]) — so a per-node *lane*
//! indexed by the counter replaces the `BTreeMap`s the per-packet hot
//! path used to walk. A lane holds one `u32` per flow the node ever
//! opened: an index into the slab's single dense arena (a `Vec` plus a
//! LIFO free list), or a marker for "nothing here". A lookup is three
//! array indexings — lane, index, arena cell — with no comparisons.
//!
//! Flow ids are never reused within a run, so the lanes only grow; the
//! arena does not. It holds the values stored *now*, and a value leaves
//! it one of two ways:
//!
//! * [`FlowSlab::take`] empties the slot: the id may be inserted again.
//! * [`FlowSlab::retire`] leaves a tombstone: the flow is over. Later
//!   lookups miss, [`FlowSlab::is_retired`] says why (so a caller can
//!   tell a straggler for a finished flow from an id that never
//!   existed), and inserting over it panics.
//!
//! Either way the cell goes back on the free list, so memory follows the
//! number of values stored at once — 4 bytes, not `size_of::<T>()`, is
//! what a flow costs once it is over.

use crate::packet::{FlowId, NodeId, FLOW_NTH_BITS};

/// Recompose the packed [`FlowId`] from slab coordinates (inverse of
/// [`FlowId::node_index`] / [`FlowId::per_node_index`]).
fn compose(node: usize, nth: usize) -> FlowId {
    let node = u32::try_from(node).expect("invariant: node index fits u32");
    let nth = u32::try_from(nth).expect("invariant: per-node flow index fits u32");
    FlowId((node << FLOW_NTH_BITS) | nth)
}

/// Lane marker: nothing stored, the id may be inserted.
const VACANT: u32 = u32::MAX;
/// Lane marker: the value was retired, the id is spent.
const RETIRED: u32 = u32::MAX - 1;

/// Widen a lane entry to an arena index. The two markers land past any
/// arena (`insert` keeps it shorter), so a plain bounds-checked `get`
/// turns them into a miss.
#[inline]
fn cell_index(entry: u32) -> usize {
    // lint: allow(cast) — u32 -> usize widening on 64-bit targets
    entry as usize
}

/// A two-level slab keyed by packed [`FlowId`]: per-node lanes of `u32`
/// indices (outer index the opening node, inner index the node's flow
/// counter) into one arena of values.
pub struct FlowSlab<T> {
    lanes: Vec<Vec<u32>>,
    /// The arena. A cell is `None` exactly while it is on `free`.
    cells: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> FlowSlab<T> {
    /// An empty slab for a topology of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        FlowSlab {
            lanes: vec![Vec::new(); nodes],
            cells: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn entry(&self, id: FlowId) -> Option<u32> {
        self.lanes
            .get(id.node_index())?
            .get(id.per_node_index())
            .copied()
    }

    /// The value stored for `id`, if any.
    #[inline]
    pub fn get(&self, id: FlowId) -> Option<&T> {
        self.cells.get(cell_index(self.entry(id)?))?.as_ref()
    }

    /// Mutable access to the value stored for `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let entry = self.entry(id)?;
        self.cells.get_mut(cell_index(entry))?.as_mut()
    }

    /// Whether `id`'s value was [retired](FlowSlab::retire) — as opposed
    /// to taken, or never stored.
    pub fn is_retired(&self, id: FlowId) -> bool {
        self.entry(id) == Some(RETIRED)
    }

    /// Store `value` for `id`, growing the node's lane as needed.
    /// Returns the previous value, if any. Panics if `id` was retired:
    /// flow ids are never reused.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        let lane = self
            .lanes
            .get_mut(id.node_index())
            .expect("flow id names a node outside the topology");
        let nth = id.per_node_index();
        if lane.len() <= nth {
            lane.resize(nth + 1, VACANT);
        }
        match lane[nth] {
            VACANT => {
                let entry = match self.free.pop() {
                    Some(entry) => entry,
                    None => {
                        let entry = u32::try_from(self.cells.len())
                            .ok()
                            .filter(|&e| e < RETIRED)
                            .expect("flow slab arena is full");
                        self.cells.push(None);
                        entry
                    }
                };
                lane[nth] = entry;
                self.cells[cell_index(entry)] = Some(value);
                None
            }
            RETIRED => panic!("insert over the retired flow {id}"),
            entry => self.cells[cell_index(entry)].replace(value),
        }
    }

    /// Empty `id`'s slot, leaving `marker` behind, and free its cell.
    fn remove(&mut self, id: FlowId, marker: u32) -> Option<T> {
        let slot = self
            .lanes
            .get_mut(id.node_index())?
            .get_mut(id.per_node_index())?;
        let entry = *slot;
        let value = self.cells.get_mut(cell_index(entry))?.take();
        debug_assert!(value.is_some(), "a lane entry names a free cell");
        *slot = marker;
        self.free.push(entry);
        value
    }

    /// Remove and return the value stored for `id`, if any. The slot is
    /// vacant again: `id` may be inserted anew.
    pub fn take(&mut self, id: FlowId) -> Option<T> {
        self.remove(id, VACANT)
    }

    /// Remove and return the value stored for `id`, if any, leaving a
    /// tombstone: every later lookup misses, [`FlowSlab::is_retired`]
    /// answers `true`, and inserting `id` again panics. An id that holds
    /// nothing is left as it is.
    pub fn retire(&mut self, id: FlowId) -> Option<T> {
        self.remove(id, RETIRED)
    }

    /// The stored `(id, value)` pairs of one lane, in counter order.
    /// Walks the lane, never the arena: arena order is free-list history.
    fn lane_iter<'a>(
        &'a self,
        node: usize,
        lane: &'a [u32],
    ) -> impl Iterator<Item = (FlowId, &'a T)> {
        lane.iter().enumerate().filter_map(move |(nth, &entry)| {
            let value = self.cells.get(cell_index(entry))?.as_ref()?;
            Some((compose(node, nth), value))
        })
    }

    /// Iterate every stored `(id, value)` pair, in `(node, counter)`
    /// order — deterministic, so callers may act on entries in iteration
    /// order without breaking shard-count invariance.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.lanes
            .iter()
            .enumerate()
            .flat_map(|(node, lane)| self.lane_iter(node, lane))
    }

    /// Iterate the stored `(id, value)` pairs whose ids were allocated
    /// by `node`, in counter order.
    pub fn node_iter(&self, node: NodeId) -> impl Iterator<Item = (FlowId, &T)> {
        let idx = usize::try_from(node.0).expect("invariant: node index fits usize");
        let lane = self.lanes.get(idx).map_or(&[][..], Vec::as_slice);
        self.lane_iter(idx, lane)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// Whether the slab stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most values the slab ever stored at once: the arena's length,
    /// which never shrinks (its memory high-water mark, in cells).
    pub fn peak_len(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;
    use crate::sim::flow_id;

    #[test]
    fn insert_get_take_roundtrip() {
        let mut s: FlowSlab<u64> = FlowSlab::new(4);
        let a = flow_id(NodeId(1), 0);
        let b = flow_id(NodeId(1), 7); // sparse within the node's lane
        let c = flow_id(NodeId(3), 0);
        assert!(s.is_empty());
        assert_eq!(s.insert(a, 10), None);
        assert_eq!(s.insert(b, 11), None);
        assert_eq!(s.insert(c, 12), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get(b), Some(&11));
        assert_eq!(s.get(flow_id(NodeId(1), 3)), None, "gap stays empty");
        *s.get_mut(c).expect("invariant: c was just inserted") += 1;
        assert_eq!(s.get(c), Some(&13));
        assert_eq!(s.take(b), Some(11));
        assert_eq!(s.take(b), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut s: FlowSlab<&str> = FlowSlab::new(2);
        let id = flow_id(NodeId(0), 5);
        assert_eq!(s.insert(id, "x"), None);
        assert_eq!(s.insert(id, "y"), Some("x"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id), Some(&"y"));
    }

    #[test]
    fn lookups_outside_the_node_range_are_none() {
        let s: FlowSlab<u8> = FlowSlab::new(1);
        assert_eq!(s.get(flow_id(NodeId(3), 0)), None);
    }

    #[test]
    fn iteration_is_ordered_and_node_scoped() {
        let mut s: FlowSlab<u32> = FlowSlab::new(4);
        let ids = [
            flow_id(NodeId(2), 1),
            flow_id(NodeId(0), 0),
            flow_id(NodeId(2), 0),
            flow_id(NodeId(3), 5),
        ];
        for (i, &id) in ids.iter().enumerate() {
            s.insert(id, u32::try_from(i).expect("small"));
        }
        s.take(flow_id(NodeId(2), 0));
        let all: Vec<_> = s.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(
            all,
            vec![
                (flow_id(NodeId(0), 0), 1),
                (flow_id(NodeId(2), 1), 0),
                (flow_id(NodeId(3), 5), 3),
            ]
        );
        let of_2: Vec<_> = s.node_iter(NodeId(2)).map(|(id, &v)| (id, v)).collect();
        assert_eq!(of_2, vec![(flow_id(NodeId(2), 1), 0)]);
        assert_eq!(s.node_iter(NodeId(9)).count(), 0, "out of range is empty");
    }

    #[test]
    fn take_vacates_and_retire_entombs() {
        let mut s: FlowSlab<u32> = FlowSlab::new(2);
        let taken = flow_id(NodeId(0), 0);
        let retired = flow_id(NodeId(0), 2);
        let gap = flow_id(NodeId(0), 1);
        s.insert(taken, 1);
        s.insert(retired, 2);
        assert_eq!(s.take(taken), Some(1));
        assert_eq!(s.insert(taken, 3), None, "a taken id may come back");
        assert_eq!(s.get(taken), Some(&3));
        assert_eq!(s.retire(retired), Some(2));
        assert_eq!(s.get(retired), None);
        assert_eq!(s.get_mut(retired), None);
        assert_eq!(s.take(retired), None);
        assert_eq!(s.retire(retired), None);
        assert!(s.is_retired(retired));
        assert!(!s.is_retired(taken), "live");
        assert!(!s.is_retired(gap), "a never-opened gap is not a tombstone");
        assert!(!s.is_retired(flow_id(NodeId(0), 9)), "past the lane");
        assert!(!s.is_retired(flow_id(NodeId(7), 0)), "past the topology");
        assert_eq!(s.retire(gap), None);
        assert!(!s.is_retired(gap), "retiring nothing entombs nothing");
        assert_eq!(s.len(), 1, "len counts live values only");
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn insert_over_a_tombstone_panics() {
        let mut s: FlowSlab<u32> = FlowSlab::new(1);
        let id = flow_id(NodeId(0), 0);
        s.insert(id, 1);
        s.retire(id);
        s.insert(id, 2);
    }

    #[test]
    fn iteration_follows_ids_not_free_list_history() {
        let mut s: FlowSlab<u32> = FlowSlab::new(3);
        for nth in 0..4 {
            s.insert(flow_id(NodeId(1), nth), nth);
        }
        // Free two cells out of order, then hand them to ids that sort
        // on either side of the survivors: arena order is now 0, 20, 21, 3.
        s.retire(flow_id(NodeId(1), 2));
        s.take(flow_id(NodeId(1), 1));
        s.insert(flow_id(NodeId(2), 0), 20);
        s.insert(flow_id(NodeId(0), 5), 21);
        assert_eq!(s.peak_len(), 4, "freed cells were reused");
        let all: Vec<_> = s.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(
            all,
            vec![
                (flow_id(NodeId(0), 5), 21),
                (flow_id(NodeId(1), 0), 0),
                (flow_id(NodeId(1), 3), 3),
                (flow_id(NodeId(2), 0), 20),
            ]
        );
        let of_1: Vec<_> = s.node_iter(NodeId(1)).map(|(_, &v)| v).collect();
        assert_eq!(of_1, vec![0, 3], "retired and taken cells are skipped");
    }

    #[test]
    fn memory_follows_live_flows_not_history() {
        const LIVE: usize = 64;
        let mut s: FlowSlab<[u64; 8]> = FlowSlab::new(4);
        let mut live = std::collections::VecDeque::new();
        for round in 0..100_000u32 {
            let id = flow_id(NodeId(round % 4), round / 4);
            s.insert(id, [u64::from(round); 8]);
            live.push_back(id);
            if live.len() == LIVE {
                // Retire from the middle so the free list is not a queue.
                let victim = live
                    .remove(LIVE / 2)
                    .expect("invariant: LIVE entries queued");
                assert!(s.retire(victim).is_some());
            }
        }
        assert!(s.len() < LIVE);
        assert!(
            s.peak_len() <= LIVE,
            "{} arena cells for at most {LIVE} live values",
            s.peak_len()
        );
        assert_eq!(s.iter().count(), s.len());
    }
}
