//! Next-hop tables toward the processors that host protocol state.
//!
//! The counting network and the toggle tree place their balancers and
//! toggles on processors round-robin, and tokens walk to each one's host
//! along shortest paths. [`HostRoutes`] holds one BFS predecessor array per
//! distinct host — `O(hosts · n)` entries, no per-token routes — stored
//! flat as `u32`, which halves the table against `NodeId` rows (periodic
//! networks on a few thousand processors have hundreds of hosts).

use ccq_graph::{bfs, Graph, NodeId, NO_NODE};

/// Shortest-path next hops from every processor toward each host.
pub(crate) struct HostRoutes {
    n: usize,
    /// Node → row of `next` (`usize::MAX` = not a host).
    row: Vec<usize>,
    /// `next[row * n + u]` = first hop of a shortest path from `u` to the
    /// row's host (the host itself at the host; `u32::MAX` = unreachable).
    next: Vec<u32>,
}

impl HostRoutes {
    /// Tables toward every distinct node of `hosts`, rows in first
    /// appearance order.
    pub(crate) fn new(graph: &Graph, hosts: impl IntoIterator<Item = NodeId>) -> Self {
        let n = graph.n();
        assert!(n <= u32::MAX as usize, "HostRoutes stores node ids as u32; n = {n}");
        let mut row = vec![usize::MAX; n];
        let mut order = Vec::new();
        for h in hosts {
            if row[h] == usize::MAX {
                row[h] = order.len();
                order.push(h);
            }
        }
        let mut next = Vec::with_capacity(order.len() * n);
        for h in order {
            // One BFS from h gives, for each u, the first hop of a shortest
            // path u → h.
            let (_, pred) = bfs::bfs_tree_arrays(graph, h);
            next.extend(pred.iter().map(|&p| if p == NO_NODE { u32::MAX } else { p as u32 }));
        }
        HostRoutes { n, row, next }
    }

    /// The next hop from `at` toward `host` (`host` itself at `host`).
    #[inline]
    pub(crate) fn next_hop(&self, at: NodeId, host: NodeId) -> NodeId {
        match self.next[self.row[host] * self.n + at] {
            u32::MAX => NO_NODE,
            v => v as NodeId,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_graph::topology;

    #[test]
    fn every_entry_is_the_bfs_predecessor() {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut rand = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for case in 0..60 {
            let n = 1 + rand(40);
            let graph = match case % 3 {
                0 => topology::random_connected(n, rand(60) as f64 / 100.0, case as u64),
                1 => topology::torus(&[3 + rand(4), 3 + rand(4)]),
                _ => topology::path(n),
            };
            let n = graph.n();
            let hosts: Vec<NodeId> = (0..rand(2 * n) + 1).map(|_| rand(n)).collect();
            let routes = HostRoutes::new(&graph, hosts.iter().copied());
            let mut distinct = hosts.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(routes.next.len(), distinct.len() * n, "case {case}");
            for &h in &distinct {
                let (_, pred) = bfs::bfs_tree_arrays(&graph, h);
                for (u, &p) in pred.iter().enumerate() {
                    assert_eq!(routes.next_hop(u, h), p, "case {case}: ({h}, {u})");
                }
            }
        }
    }
}
