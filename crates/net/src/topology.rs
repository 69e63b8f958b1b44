//! Topology construction and static routing.
//!
//! Topologies are small (tens of nodes): clients, optional aggregation
//! switches, a thinner, a server. Routing is computed once at build time
//! with per-destination BFS next-hop tables; ties break on the smaller
//! link id so routes are deterministic.

use crate::ids::Ident;
use crate::link::LinkConfig;
use crate::packet::{LinkId, NodeId};
use std::collections::VecDeque;

/// A directed edge in the topology under construction.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Link parameters.
    pub cfg: LinkConfig,
}

/// Builder for a [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: u32,
    edges: Vec<Edge>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node and return its id.
    pub fn node(&mut self) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        id
    }

    /// Add `n` nodes and return their ids.
    pub fn nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.node()).collect()
    }

    /// Add a unidirectional link and return its id.
    pub fn link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.0 < self.nodes && to.0 < self.nodes, "unknown node");
        assert_ne!(from, to, "self-links are not allowed");
        let id = LinkId::from_index(self.edges.len());
        self.edges.push(Edge { from, to, cfg });
        id
    }

    /// Add a symmetric pair of links and return `(forward, reverse)` ids.
    pub fn duplex(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.link(a, b, cfg), self.link(b, a, cfg))
    }

    /// Add an asymmetric pair of links: `a -> b` with `up`, `b -> a` with
    /// `down`. Returns `(up_id, down_id)`.
    pub fn duplex_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        up: LinkConfig,
        down: LinkConfig,
    ) -> (LinkId, LinkId) {
        (self.link(a, b, up), self.link(b, a, down))
    }

    /// Finalize: compute routes. Panics if any node pair connected by the
    /// application later turns out unreachable — unreachable pairs are
    /// permitted here and only fail if a flow is opened across one.
    pub fn build(self) -> Topology {
        let n = usize::try_from(self.nodes).expect("invariant: u32 node count fits usize");
        // adjacency: per node, outgoing (link, to) sorted by link id.
        let mut adj: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.from.index()].push((LinkId::from_index(i), e.to));
        }
        // next_hop[src * n + dst] = first link on a shortest path.
        let mut next_hop = vec![None; n * n];
        for src in 0..n {
            // BFS from src over directed edges.
            let mut dist = vec![u32::MAX; n];
            let mut first_link: Vec<Option<LinkId>> = vec![None; n];
            dist[src] = 0;
            let mut q = VecDeque::new();
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(lid, v) in &adj[u] {
                    let v = v.index();
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        first_link[v] = if u == src { Some(lid) } else { first_link[u] };
                        q.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                if dst != src {
                    next_hop[src * n + dst] = first_link[dst];
                }
            }
        }
        // Memoize end-to-end propagation delays along the exact
        // forwarding chain (each hop re-consults its own next-hop row,
        // which may differ from the source's BFS tree).
        let mut path_delays = vec![None; n * n];
        let mut packet_routes = vec![false; n * n];
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let mut at = src;
                let mut d = crate::time::SimDuration::ZERO;
                let mut packets = true;
                while at != dst {
                    let Some(lid) = next_hop[at * n + dst] else {
                        break;
                    };
                    let e = &self.edges[lid.index()];
                    d += e.cfg.delay;
                    packets &= !e.cfg.control_only;
                    at = e.to.index();
                }
                if at == dst {
                    path_delays[src * n + dst] = Some(d);
                    packet_routes[src * n + dst] = packets;
                }
            }
        }
        Topology {
            node_count: self.nodes,
            edges: self.edges,
            next_hop,
            path_delays,
            packet_routes,
        }
    }
}

/// A finished topology: edges plus routing tables.
pub struct Topology {
    node_count: u32,
    edges: Vec<Edge>,
    /// `next_hop[src * n + dst]`: the first link on the route, if
    /// reachable (flat row-major matrix: one bounds check + no pointer
    /// chase on the per-packet forwarding lookup).
    next_hop: Vec<Option<LinkId>>,
    /// `path_delays[src * n + dst]`: total propagation delay along the
    /// forwarding route, memoized at build time. The engine consults
    /// this on every control record (flow open, message boundary,
    /// abort), so it must not walk the route — or allocate — per call.
    path_delays: Vec<Option<crate::time::SimDuration>>,
    /// `packet_routes[src * n + dst]`: the forwarding route exists and
    /// crosses no control-only link, memoized with the delays (every
    /// flow open asks, once per direction).
    packet_routes: Vec<bool>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Node count as a vec-index bound.
    pub fn node_slots(&self) -> usize {
        // lint: allow(cast) — u32 -> usize widening on 64-bit targets
        self.node_count as usize
    }

    /// All directed edges, indexed by `LinkId`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The outgoing link `at` should use to forward toward `dst`.
    #[inline]
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        self.next_hop[at.index() * self.node_slots() + dst.index()]
    }

    /// Whether `dst` is reachable from `src`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.next_hop(src, dst).is_some()
    }

    /// Whether packets can travel `src -> dst`: the forwarding route
    /// exists and none of its links is control-only
    /// ([`LinkConfig::control_only`]).
    pub fn carries_packets(&self, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.packet_routes[src.index() * self.node_slots() + dst.index()]
    }

    /// The full ordered list of links a packet from `src` to `dst` will
    /// traverse. Useful for tests and for computing path RTTs.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut at = src;
        let mut links = Vec::new();
        while at != dst {
            let lid = self.next_hop(at, dst)?;
            links.push(lid);
            at = self.edges[lid.index()].to;
            if links.len() > self.node_slots() {
                return None; // routing loop; cannot happen with BFS tables
            }
        }
        Some(links)
    }

    /// Sum of propagation delays along `src -> dst` (excludes transmission
    /// and queueing time).
    pub fn path_delay(&self, src: NodeId, dst: NodeId) -> Option<crate::time::SimDuration> {
        let n = self.node_slots();
        if src == dst {
            return Some(crate::time::SimDuration::ZERO);
        }
        self.path_delays[src.index() * n + dst.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn cfg() -> LinkConfig {
        LinkConfig::new(1_000_000, SimDuration::from_millis(5))
    }

    #[test]
    fn direct_route() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let c = b.node();
        let (up, down) = b.duplex(a, c, cfg());
        let t = b.build();
        assert_eq!(t.next_hop(a, c), Some(up));
        assert_eq!(t.next_hop(c, a), Some(down));
        assert_eq!(
            t.path(a, c)
                .expect("invariant: star topology connects all leaves"),
            vec![up]
        );
    }

    #[test]
    fn star_routes_through_hub() {
        let mut b = TopologyBuilder::new();
        let hub = b.node();
        let leaves: Vec<_> = (0..5).map(|_| b.node()).collect();
        for &leaf in &leaves {
            b.duplex(leaf, hub, cfg());
        }
        let t = b.build();
        // Leaf to leaf goes through the hub: two hops.
        let p = t
            .path(leaves[0], leaves[4])
            .expect("invariant: star topology connects all leaves");
        assert_eq!(p.len(), 2);
        assert_eq!(
            t.path_delay(leaves[0], leaves[4]),
            Some(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let c = b.node();
        let d = b.node();
        b.link(a, c, cfg()); // one-way only; nothing touches d
        let t = b.build();
        assert!(t.reachable(a, c));
        assert!(!t.reachable(c, a));
        assert!(!t.reachable(a, d));
        assert_eq!(t.path(a, d), None);
        assert!(t.reachable(d, d));
    }

    #[test]
    fn a_control_only_hop_carries_delay_but_no_packets() {
        // a <-> m packet-capable, m <-> z control-only: the routed delay
        // sums over both, but only the first hop carries packets.
        let mut b = TopologyBuilder::new();
        let (a, m, z) = (b.node(), b.node(), b.node());
        b.duplex(a, m, cfg());
        b.duplex(m, z, cfg().control_only());
        let t = b.build();
        assert_eq!(t.path_delay(a, z), Some(SimDuration::from_millis(10)));
        assert!(t.carries_packets(a, m) && t.carries_packets(m, a));
        assert!(!t.carries_packets(m, z) && !t.carries_packets(z, m));
        assert!(!t.carries_packets(a, z) && !t.carries_packets(z, a));
        assert!(t.carries_packets(z, z));
    }

    #[test]
    fn shortest_path_chosen() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let m1 = b.node();
        let m2 = b.node();
        let z = b.node();
        // Long path a -> m1 -> m2 -> z, short path a -> z.
        b.link(a, m1, cfg());
        b.link(m1, m2, cfg());
        b.link(m2, z, cfg());
        let direct = b.link(a, z, cfg());
        let t = b.build();
        assert_eq!(
            t.path(a, z)
                .expect("invariant: a and z are directly linked"),
            vec![direct]
        );
    }

    #[test]
    fn deterministic_tie_break() {
        // Two parallel equal-length routes; the smaller link id wins.
        let mut b = TopologyBuilder::new();
        let a = b.node();
        let z = b.node();
        let l0 = b.link(a, z, cfg());
        let _l1 = b.link(a, z, cfg());
        let t = b.build();
        assert_eq!(t.next_hop(a, z), Some(l0));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new();
        let a = b.node();
        b.link(a, a, cfg());
    }

    #[test]
    fn bottleneck_topology_path() {
        // clients -> gateway -> (bottleneck) -> hub -> thinner
        let mut b = TopologyBuilder::new();
        let hub = b.node();
        let thinner = b.node();
        b.duplex(hub, thinner, cfg());
        let gw = b.node();
        b.duplex(gw, hub, cfg());
        let c1 = b.node();
        b.duplex(c1, gw, cfg());
        let t = b.build();
        assert_eq!(
            t.path(c1, thinner)
                .expect("invariant: client reaches thinner via hub")
                .len(),
            3
        );
        assert_eq!(
            t.path(thinner, c1)
                .expect("invariant: thinner reaches client via hub")
                .len(),
            3
        );
    }
}
