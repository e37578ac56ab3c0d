//! Combining-tree queuing baseline.
//!
//! The natural tree-based alternative to the arrow protocol: requester ids
//! aggregate up a rooted spanning tree in preorder lists, the root
//! concatenates them into a total order, and predecessor assignments
//! distribute back down. Correct and `O(depth)` per operation — but unlike
//! the arrow protocol it always pays the full up/down traversal and gains
//! nothing from locality between requesters, which is exactly the
//! comparison the t9 ablations quantify.

use crate::order::INITIAL_TOKEN;
use ccq_graph::{NodeId, Tree};
use ccq_sim::{NodeSliced, Protocol, SimApi, SliceApi};

/// Messages of the combining queue.
#[derive(Clone, Debug)]
pub enum CombiningQueueMsg {
    /// Requesters of the sender's subtree, in preorder.
    Up(Vec<NodeId>),
    /// `(requester, predecessor)` assignments for the receiver's subtree.
    Down(Vec<(NodeId, u64)>),
}

/// One node's combining-wave state — everything a handler at the node
/// touches, making the protocol [`NodeSliced`].
#[derive(Debug)]
pub struct CombiningQueueSlice {
    waiting: usize,
    /// Preorder requester lists reported by children, by child slot;
    /// consumed when the node reports upward.
    child_lists: Vec<Vec<NodeId>>,
    /// Lengths of the consumed child lists, by child slot: the Down wave
    /// returns the node's list in the same order, so each child's share is
    /// the next `child_len[slot]` assignments.
    child_len: Vec<usize>,
    requesting: bool,
    /// Whether the node's own operation has been injected (deferred mode).
    issued: bool,
}

/// Read-only tree shape every combining-queue handler shares.
#[derive(Debug)]
pub struct CombiningQueueShared {
    parent: Vec<NodeId>,
    children: Vec<Vec<NodeId>>,
    root: NodeId,
    /// Deferred-issue mode: a requester holds its subtree's Up report until
    /// its own operation has been injected.
    defer_issue: bool,
}

/// Combining-queue protocol state.
pub struct CombiningQueueProtocol {
    shared: CombiningQueueShared,
    nodes: Vec<CombiningQueueSlice>,
}

impl CombiningQueueProtocol {
    /// Set up on `tree` with the given request set.
    pub fn new(tree: &Tree, requests: &[NodeId]) -> Self {
        let n = tree.n();
        let mut requesting = vec![false; n];
        for &r in requests {
            assert!(r < n, "request out of range");
            requesting[r] = true;
        }
        let nodes = (0..n)
            .map(|v| CombiningQueueSlice {
                waiting: tree.children(v).len(),
                child_lists: vec![Vec::new(); tree.children(v).len()],
                child_len: Vec::new(),
                requesting: requesting[v],
                issued: false,
            })
            .collect();
        CombiningQueueProtocol {
            shared: CombiningQueueShared {
                parent: (0..n).map(|v| tree.parent(v)).collect(),
                children: (0..n).map(|v| tree.children(v).to_vec()).collect(),
                root: tree.root(),
                defer_issue: false,
            },
            nodes,
        }
    }

    /// Deferred-issue mode (`on` = true): `on_start` starts the up phase
    /// only at non-requesting leaves; a requester joins the wave when its
    /// operation is injected via [`ccq_sim::OnlineProtocol::issue`]. The
    /// single combining wave then completes once every scheduled request
    /// has arrived — the batch protocol's honest behaviour under open
    /// arrivals (early requesters wait for stragglers).
    pub fn deferred(mut self, on: bool) -> Self {
        self.shared.defer_issue = on;
        self
    }

    /// Whether `v` may report upward: all children in, and (in deferred
    /// mode) its own request — if any — already injected.
    fn ready(shared: &CombiningQueueShared, slice: &CombiningQueueSlice) -> bool {
        slice.waiting == 0 && (!shared.defer_issue || !slice.requesting || slice.issued)
    }

    /// Preorder requester list of `v`'s subtree (own request first),
    /// consuming the child lists and keeping their lengths.
    fn take_subtree_list(slice: &mut CombiningQueueSlice, v: NodeId) -> Vec<NodeId> {
        let mut list = Vec::new();
        if slice.requesting {
            list.push(v);
        }
        for cl in std::mem::take(&mut slice.child_lists) {
            slice.child_len.push(cl.len());
            list.extend(cl);
        }
        list
    }

    fn aggregated(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        v: NodeId,
    ) {
        let list = Self::take_subtree_list(slice, v);
        if v == shared.root {
            // Form the total order: initial token, then preorder.
            let assignments: Vec<(NodeId, u64)> = list
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let pred = if i == 0 { INITIAL_TOKEN } else { list[i - 1] as u64 };
                    (node, pred)
                })
                .collect();
            Self::distribute(shared, slice, api, v, assignments);
        } else {
            api.send(shared.parent[v], CombiningQueueMsg::Up(list));
        }
    }

    /// Complete `v`'s own operation and pass each child its share of the
    /// assignments. They arrive in the order of the list `v` reported up
    /// (own request first, then each child's list by slot), so the split
    /// is by contiguous runs.
    fn distribute(
        shared: &CombiningQueueShared,
        slice: &CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        v: NodeId,
        assignments: Vec<(NodeId, u64)>,
    ) {
        let mut rest = assignments.into_iter();
        if slice.requesting {
            let (node, pred) = rest.next().expect("own assignment comes first");
            debug_assert_eq!(node, v);
            api.complete(v, pred);
        }
        for (&c, &len) in shared.children[v].iter().zip(&slice.child_len) {
            if len > 0 {
                api.send(c, CombiningQueueMsg::Down(rest.by_ref().take(len).collect()));
            }
        }
        debug_assert!(rest.next().is_none(), "assignments beyond the subtree");
    }
}

impl ccq_sim::OnlineProtocol for CombiningQueueProtocol {
    fn issue(&mut self, api: &mut SimApi<CombiningQueueMsg>, node: NodeId) {
        debug_assert!(self.nodes[node].requesting, "node {node} is not a requester");
        ccq_sim::with_slice(self, api, node, |shared, slice, sapi| {
            slice.issued = true;
            if Self::ready(shared, slice) {
                Self::aggregated(shared, slice, sapi, node);
            }
        });
    }

    fn cancel(&mut self, api: &mut SimApi<CombiningQueueMsg>, node: NodeId) {
        debug_assert!(self.nodes[node].requesting, "node {node} is not a requester");
        debug_assert!(!self.nodes[node].issued, "cancel after issue");
        // Strike the requester from the wave; if its Up report was the
        // last thing the subtree waited for, release it now.
        ccq_sim::with_slice(self, api, node, |shared, slice, sapi| {
            slice.requesting = false;
            if Self::ready(shared, slice) {
                Self::aggregated(shared, slice, sapi, node);
            }
        });
    }
}

impl Protocol for CombiningQueueProtocol {
    type Msg = CombiningQueueMsg;

    fn on_start(&mut self, api: &mut SimApi<CombiningQueueMsg>) {
        for v in 0..self.nodes.len() {
            ccq_sim::with_slice(self, api, v, |shared, slice, sapi| {
                if Self::ready(shared, slice) {
                    Self::aggregated(shared, slice, sapi, v);
                }
            });
        }
    }

    fn on_message(
        &mut self,
        api: &mut SimApi<CombiningQueueMsg>,
        node: NodeId,
        from: NodeId,
        msg: CombiningQueueMsg,
    ) {
        ccq_sim::dispatch_sliced(self, api, node, from, msg);
    }
}

impl NodeSliced for CombiningQueueProtocol {
    type Slice = CombiningQueueSlice;
    type Shared = CombiningQueueShared;

    fn split(&mut self) -> (&CombiningQueueShared, &mut [CombiningQueueSlice]) {
        (&self.shared, &mut self.nodes)
    }

    fn on_message_sliced(
        shared: &CombiningQueueShared,
        slice: &mut CombiningQueueSlice,
        api: &mut SliceApi<CombiningQueueMsg>,
        node: NodeId,
        from: NodeId,
        msg: CombiningQueueMsg,
    ) {
        match msg {
            CombiningQueueMsg::Up(list) => {
                let slot = shared.children[node]
                    .iter()
                    .position(|&c| c == from)
                    .expect("Up from a non-child");
                slice.child_lists[slot] = list;
                slice.waiting -= 1;
                if Self::ready(shared, slice) {
                    Self::aggregated(shared, slice, api, node);
                }
            }
            CombiningQueueMsg::Down(assignments) => {
                Self::distribute(shared, slice, api, node, assignments);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::verify_total_order;
    use ccq_graph::spanning;
    use ccq_sim::{run_protocol, SimConfig};

    fn run_cq(tree: &Tree, requests: &[NodeId]) -> (ccq_sim::SimReport, Vec<NodeId>) {
        let g = tree.to_graph();
        let proto = CombiningQueueProtocol::new(tree, requests);
        let rep = run_protocol(&g, proto, SimConfig::strict()).unwrap();
        let pred_of: Vec<(NodeId, u64)> =
            rep.completions.iter().map(|c| (c.node, c.value)).collect();
        let order = verify_total_order(requests, &pred_of).unwrap();
        (rep, order)
    }

    #[test]
    fn all_request_on_binary_tree() {
        let t = spanning::balanced_binary_tree(15);
        let (_, order) = run_cq(&t, &(0..15).collect::<Vec<_>>());
        assert_eq!(order.len(), 15);
        // Preorder: root first.
        assert_eq!(order[0], 0);
    }

    #[test]
    fn subset_on_list() {
        let t = spanning::path_tree_from_order(&(0..12).collect::<Vec<_>>());
        let (_, order) = run_cq(&t, &[2, 7, 11]);
        assert_eq!(order, vec![2, 7, 11]); // preorder on a rooted path
    }

    #[test]
    fn empty_and_single() {
        let t = spanning::balanced_binary_tree(7);
        let (_, order) = run_cq(&t, &[]);
        assert!(order.is_empty());
        let (rep, order) = run_cq(&t, &[4]);
        assert_eq!(order, vec![4]);
        assert_eq!(rep.completions[0].value, INITIAL_TOKEN);
    }

    /// Records the Down assignments each node receives, then hands the
    /// message to the protocol.
    struct DownLog {
        inner: CombiningQueueProtocol,
        downs: Vec<Option<Vec<(NodeId, u64)>>>,
    }

    impl Protocol for DownLog {
        type Msg = CombiningQueueMsg;

        fn on_start(&mut self, api: &mut SimApi<CombiningQueueMsg>) {
            self.inner.on_start(api);
        }

        fn on_message(
            &mut self,
            api: &mut SimApi<CombiningQueueMsg>,
            node: NodeId,
            from: NodeId,
            msg: CombiningQueueMsg,
        ) {
            if let CombiningQueueMsg::Down(a) = &msg {
                assert!(self.downs[node].replace(a.clone()).is_none(), "second Down at {node}");
            }
            self.inner.on_message(api, node, from, msg);
        }
    }

    impl ccq_sim::OnlineProtocol for DownLog {
        fn issue(&mut self, api: &mut SimApi<CombiningQueueMsg>, node: NodeId) {
            self.inner.issue(api, node);
        }

        fn cancel(&mut self, api: &mut SimApi<CombiningQueueMsg>, node: NodeId) {
            self.inner.cancel(api, node);
        }
    }

    /// Reference Down split: index the assignments by node, then look up
    /// each child's recorded list. Returns the own predecessor and each
    /// child's share, by slot.
    fn hashmap_split(
        child_lists: &[Vec<NodeId>],
        requesting: bool,
        v: NodeId,
        assignments: &[(NodeId, u64)],
    ) -> (Option<u64>, Vec<Vec<(NodeId, u64)>>) {
        use std::collections::HashMap;
        let by_node: HashMap<NodeId, u64> = assignments.iter().copied().collect();
        let own = requesting.then(|| by_node[&v]);
        let shares = child_lists
            .iter()
            .map(|list| list.iter().map(|&node| (node, by_node[&node])).collect())
            .collect();
        (own, shares)
    }

    /// On random trees with random request subsets, open arrivals and a
    /// drop-tail bound that cancels the late requesters, every Down the
    /// protocol delivers and every completion equal what the HashMap split
    /// produces from the same Up lists.
    #[test]
    fn contiguous_down_split_matches_the_hashmap_split() {
        use ccq_graph::topology;
        use ccq_sim::{AdmissionPolicy, Paced, Simulator};
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut rand = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for case in 0..40 {
            let n = 1 + rand(40);
            let root = rand(n);
            let t = spanning::bfs_tree(&topology::random_connected(n, 0.08, case), root);
            let requests: Vec<NodeId> = (0..n).filter(|_| rand(3) > 0).collect();
            let schedule: Vec<(ccq_sim::Round, NodeId)> =
                requests.iter().map(|&v| (rand(6) as ccq_sim::Round, v)).collect();
            let bound = 1 + rand(requests.len() + 1);
            let log = DownLog {
                inner: CombiningQueueProtocol::new(&t, &requests).deferred(true),
                downs: vec![None; n],
            };
            let paced =
                Paced::new(log, schedule).with_admission(AdmissionPolicy::DropTail { bound });
            let g = t.to_graph();
            let (rep, paced) =
                Simulator::new(&g, paced, SimConfig::strict()).run_with_state().unwrap();
            let mut issued = vec![false; n];
            for i in &rep.issues {
                issued[i.node] = true;
            }
            assert_eq!(rep.issues.len() + rep.dropped.len(), requests.len());

            // Up wave: each node's preorder list over the issued requesters.
            fn up(
                t: &Tree,
                v: NodeId,
                issued: &[bool],
                lists: &mut [Vec<Vec<NodeId>>],
            ) -> Vec<NodeId> {
                let mut list: Vec<NodeId> = if issued[v] { vec![v] } else { Vec::new() };
                for &c in t.children(v) {
                    let child = up(t, c, issued, lists);
                    list.extend_from_slice(&child);
                    lists[v].push(child);
                }
                list
            }
            let mut child_lists = vec![Vec::new(); n];
            let order = up(&t, root, &issued, &mut child_lists);
            let chain: Vec<(NodeId, u64)> = order
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, if i == 0 { INITIAL_TOKEN } else { order[i - 1] as u64 }))
                .collect();

            // Down wave through the reference split.
            let mut want_downs: Vec<Option<Vec<(NodeId, u64)>>> = vec![None; n];
            let mut want_completions = Vec::new();
            let mut stack = vec![(root, chain)];
            while let Some((v, assignments)) = stack.pop() {
                let (own, shares) = hashmap_split(&child_lists[v], issued[v], v, &assignments);
                if let Some(pred) = own {
                    want_completions.push((v, pred));
                }
                for (&c, share) in t.children(v).iter().zip(shares) {
                    if !share.is_empty() {
                        want_downs[c] = Some(share.clone());
                        stack.push((c, share));
                    }
                }
            }
            assert_eq!(paced.inner().downs, want_downs, "case {case}");
            let mut got: Vec<(NodeId, u64)> =
                rep.completions.iter().map(|c| (c.node, c.value)).collect();
            got.sort_unstable();
            want_completions.sort_unstable();
            assert_eq!(got, want_completions, "case {case}");
        }
    }

    #[test]
    fn agrees_with_combining_counter_order() {
        // The combining queue's chain equals the combining counter's rank
        // order (both are preorder).
        let t = spanning::balanced_binary_tree(31);
        let requests: Vec<NodeId> = (0..31).step_by(2).collect();
        let (_, qorder) = run_cq(&t, &requests);
        // Direct preorder computation:
        let mut pre = Vec::new();
        fn preorder(t: &Tree, v: NodeId, req: &[bool], out: &mut Vec<NodeId>) {
            if req[v] {
                out.push(v);
            }
            for &c in t.children(v) {
                preorder(t, c, req, out);
            }
        }
        let mut req = vec![false; 31];
        for &r in &requests {
            req[r] = true;
        }
        preorder(&t, 0, &req, &mut pre);
        assert_eq!(qorder, pre);
    }
}
