//! Compact undirected graph representation (CSR) and its builder.
//!
//! Graphs in this project are static: they are generated once by
//! [`crate::topology`] and then only queried. CSR (compressed sparse row)
//! keeps neighbour lists contiguous, which matters because the simulator and
//! the TSP analysis iterate neighbourhoods in hot loops.

use crate::NodeId;

/// An undirected graph stored in compressed-sparse-row form.
///
/// Invariants (enforced by [`GraphBuilder::build`]):
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted ascending, so [`Graph::has_edge`] is a binary
///   search;
/// * symmetric: `v ∈ adj(u)` iff `u ∈ adj(v)`.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Whether the graph is connected (the paper assumes connected `G`).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        crate::bfs::bfs_distances(self, 0).iter().all(|&d| d != u32::MAX)
    }

    /// Sum of degrees; handy sanity value for tests.
    pub fn degree_sum(&self) -> usize {
        self.adj.len()
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order; duplicates and reversed duplicates are merged,
/// self-loops are rejected at [`GraphBuilder::build`] time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` vertices and no edges yet.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Builder with room for `edges` edges, so a generator that knows its
    /// edge count never regrows the list.
    pub(crate) fn with_capacity(n: usize, edges: usize) -> Self {
        Self { n, edges: Vec::with_capacity(edges) }
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range — topology
    /// generators are deterministic, so a bad edge is a programming error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u != v, "self-loop {u}");
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range n={}", self.n);
        self.edges.push((u.min(v), u.max(v)));
        self
    }

    /// Number of (possibly duplicated) edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into a [`Graph`], deduplicating edges.
    ///
    /// `O(n + m)` apart from sorting each vertex's short bucket: count both
    /// directions of every edge per source vertex, scatter each edge into its
    /// source's bucket, then sort, deduplicate and compact the buckets in
    /// place.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, edges } = self;
        // `offsets[u + 1]` counts u's edge ends; the prefix sum turns it into
        // the start of u's bucket, which then serves as u's scatter cursor.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut adj = vec![0 as NodeId; offsets[n]];
        for &(u, v) in &edges {
            adj[offsets[u]] = v;
            offsets[u] += 1;
            adj[offsets[v]] = u;
            offsets[v] += 1;
        }
        drop(edges);
        // Each cursor now sits at the end of its bucket, i.e. the start of
        // the next one: shifting by one slot restores the bucket starts.
        offsets.rotate_right(1);
        offsets[0] = 0;
        let mut kept = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            adj[start..end].sort_unstable();
            offsets[v] = kept;
            for i in start..end {
                if i == start || adj[i] != adj[kept - 1] {
                    adj[kept] = adj[i];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        adj.truncate(kept);
        adj.shrink_to_fit();
        Graph { n, offsets, adj }
    }
}

impl Graph {
    /// Build directly from an edge list (convenience for tests).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The global-sort build that the bucketed [`GraphBuilder::build`]
    /// replaced, kept as its reference.
    fn reference_build(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        let mut edges: Vec<_> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        edges.sort_unstable();
        edges.dedup();
        let mut deg = vec![0usize; n];
        for &(u, v) in &edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as NodeId; acc];
        for &(u, v) in &edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { n, offsets, adj }
    }

    #[test]
    fn bucketed_build_matches_the_global_sort_build() {
        let mut rng = StdRng::seed_from_u64(0x6ea9);
        for _ in 0..500 {
            let n = rng.random_range(0..40usize);
            // Endpoints come from a prefix of the vertices, so the rest are
            // isolated.
            let span = rng.random_range(0..n + 1);
            let mut edges = Vec::new();
            if span >= 2 {
                for _ in 0..rng.random_range(0..3 * span) {
                    let u = rng.random_range(0..span);
                    let v = rng.random_range(0..span);
                    if u == v {
                        continue;
                    }
                    edges.push((u, v));
                    match rng.random_range(0..4) {
                        0 => edges.push((u, v)),
                        1 => edges.push((v, u)),
                        _ => {}
                    }
                }
            }
            edges.shuffle(&mut rng);
            let got = Graph::from_edges(n, &edges);
            let want = reference_build(n, &edges);
            assert_eq!(got.m(), want.m(), "n={n} edges={edges:?}");
            for v in 0..n {
                assert_eq!(got.neighbors(v), want.neighbors(v), "n={n} v={v} edges={edges:?}");
            }
            assert_eq!(got.offsets, want.offsets);
            assert_eq!(got.adj, want.adj);
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 4);
        for (u, v) in es {
            assert!(u < v);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }
}
