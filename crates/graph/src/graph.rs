//! Immutable CSR graph.

use crate::error::GraphError;
use crate::node::NodeId;
use crate::storage::{NodeStore, U32Store};

/// Runs `out` on the calling thread and `inn` on one scoped thread, and
/// returns both results. The out-CSR and the in-CSR are independent
/// halves of equal size, so every whole-graph pass (build, image encode,
/// image checksum, validation) splits this way: always exactly two
/// threads, whatever the graph size. A panic on either side resumes on
/// the caller.
pub(crate) fn per_orientation<A, B: Send>(
    out: impl FnOnce() -> A,
    inn: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|scope| {
        let inn = scope.spawn(inn);
        let out = out();
        (out, inn.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// Lays out one CSR orientation of `edges` by counting sort. `row` maps
/// an edge to `(list, entry)`: `(from, to)` for the out-lists, `(to,
/// from)` for the in-lists. Self-loops are dropped; every list comes out
/// sorted and free of repeats.
///
/// Count by list, prefix-sum, scatter in input order, then one pass that
/// sorts only the lists that arrived out of order, drops repeats and
/// closes the gaps they leave. Input sorted by `(from, to)` scatters
/// both orientations' lists already in order, so that pass only checks.
///
/// # Panics
/// Panics when an edge references a node id `>= node_count`.
fn csr_orientation(
    node_count: usize,
    edges: &[(u32, u32)],
    row: impl Fn((u32, u32)) -> (u32, u32),
) -> (Vec<u32>, Vec<u32>) {
    // `offsets[r + 2]` counts list `r`; after the prefix sum `offsets[r +
    // 1]` is where list `r` starts, and the scatter advances it to where
    // list `r` ends — which is where list `r + 1` starts.
    let mut offsets = vec![0u32; node_count + 2];
    for &e in edges {
        let (r, v) = row(e);
        let hi = r.max(v);
        assert!(
            (hi as usize) < node_count,
            "{}",
            GraphError::NodeOutOfRange { node: hi, node_count }
        );
        if r != v {
            offsets[r as usize + 2] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut entries = vec![0u32; offsets[node_count + 1] as usize];
    for &e in edges {
        let (r, v) = row(e);
        if r != v {
            let slot = &mut offsets[r as usize + 1];
            entries[*slot as usize] = v;
            *slot += 1;
        }
    }
    offsets.pop();

    let mut kept = 0usize;
    let mut start = 0usize;
    for r in 0..node_count {
        let end = offsets[r + 1] as usize;
        let list = &mut entries[start..end];
        let mut len = list.len();
        if list.windows(2).any(|w| w[0] >= w[1]) {
            list.sort_unstable();
            len = 1;
            for i in 1..list.len() {
                if list[i] != list[len - 1] {
                    list[len] = list[i];
                    len += 1;
                }
            }
        }
        if kept != start {
            entries.copy_within(start..start + len, kept);
        }
        kept += len;
        offsets[r + 1] = kept as u32;
        start = end;
    }
    entries.truncate(kept);
    entries.shrink_to_fit();
    (offsets, entries)
}

/// Patches one CSR orientation row by row: list `r` of the result is old
/// list `r` (empty at or beyond the old list count) with the entry `v` of
/// every `(r, v)` in `add` inserted and of every `(r, v)` in `remove`
/// dropped. A run of lists that no edit names is copied in bulk, its
/// offsets shifted by what the edits so far added or dropped; a list an
/// edit names is merged with its sorted adds and removes. Returns the new
/// offsets and entries, plus how many adds and removes took effect.
///
/// `add` and `remove` are sorted by `(list, entry)`, free of repeats and
/// disjoint; `add` names only ids below `node_count`, `remove` may name
/// anything — a remove of an absent entry is a no-op, like an add of a
/// present one.
///
/// # Panics
/// Panics when the result holds more than `u32::MAX` entries.
fn patch_orientation(
    node_count: usize,
    old_offsets: &[u32],
    old_entries: &[u32],
    add: &[(u32, u32)],
    remove: &[(u32, u32)],
) -> (Vec<u32>, Vec<u32>, usize, usize) {
    let old_lists = old_offsets.len() - 1;
    let remove = &remove[..remove.partition_point(|&(r, _)| (r as usize) < node_count)];
    let mut offsets = Vec::with_capacity(node_count + 1);
    let mut entries = Vec::with_capacity(old_entries.len() + add.len());
    offsets.push(0u32);
    let (mut a, mut d, mut added, mut removed) = (0usize, 0usize, 0usize, 0usize);
    // `offsets` holds the start of every list below `r`, and of `r`.
    let mut r = 0usize;
    while r < node_count {
        let next_edit = |edits: &[(u32, u32)], at: usize| edits.get(at).map(|e| e.0 as usize);
        let next = match (next_edit(add, a), next_edit(remove, d)) {
            (Some(x), Some(y)) => x.min(y),
            (x, y) => x.or(y).unwrap_or(node_count),
        };
        if next > r {
            // Lists `r..next` are unchanged: copy the old ones whole and
            // leave the rest empty.
            let copied = next.min(old_lists).max(r);
            if copied > r {
                let (lo, hi) = (old_offsets[r], old_offsets[copied]);
                let shift = (entries.len() as u32).wrapping_sub(lo);
                entries.extend_from_slice(&old_entries[lo as usize..hi as usize]);
                offsets.extend(old_offsets[r + 1..=copied].iter().map(|&o| o.wrapping_add(shift)));
            }
            offsets.resize(next + 1, entries.len() as u32);
            r = next;
            continue;
        }
        let old: &[u32] = if r < old_lists {
            &old_entries[old_offsets[r] as usize..old_offsets[r + 1] as usize]
        } else {
            &[]
        };
        let a_end = a + add[a..].partition_point(|e| e.0 as usize == r);
        let d_end = d + remove[d..].partition_point(|e| e.0 as usize == r);
        let (mut adds, mut removes) = (add[a..a_end].iter().peekable(), remove[d..d_end].iter());
        let mut pending_remove = removes.next();
        for &v in old {
            while let Some(&&(_, x)) = adds.peek() {
                if x > v {
                    break;
                }
                adds.next();
                if x < v {
                    entries.push(x);
                    added += 1;
                }
                // `x == v`: already present, the add is a no-op.
            }
            while pending_remove.is_some_and(|&(_, x)| x < v) {
                pending_remove = removes.next(); // absent: a no-op
            }
            if pending_remove.is_some_and(|&(_, x)| x == v) {
                pending_remove = removes.next();
                removed += 1;
                continue;
            }
            entries.push(v);
        }
        for &(_, x) in adds {
            entries.push(x);
            added += 1;
        }
        offsets.push(entries.len() as u32);
        (a, d, r) = (a_end, d_end, r + 1);
    }
    if entries.len() > u32::MAX as usize {
        panic!("{}", GraphError::TooManyEdges { count: entries.len() });
    }
    (offsets, entries, added, removed)
}

/// An immutable directed graph in compressed-sparse-row form.
///
/// Both orientations are materialized:
///
/// * the **out** CSR drives the PageRank sweep
///   `p[i] ← c·Tᵀ·p[i−1] + (1−c)·v` (Algorithm 1 scatters each node's score
///   along its out-edges), and
/// * the **in** CSR serves spam analysis, which inspects a node's
///   in-neighbourhood (the naive schemes of Section 3.1 and the manual
///   sample inspection of Section 4.4.1 both look at who links *to* a node).
///
/// Adjacency lists are sorted by neighbour id, enabling binary-search edge
/// lookups ([`has_edge`](Graph::has_edge)).
#[derive(Clone)]
pub struct Graph {
    node_count: usize,
    edge_count: usize,
    /// CSR offsets for out-edges; length `node_count + 1`.
    out_offsets: U32Store,
    /// Concatenated out-neighbour lists.
    out_targets: NodeStore,
    /// CSR offsets for in-edges; length `node_count + 1`.
    in_offsets: U32Store,
    /// Concatenated in-neighbour lists.
    in_sources: NodeStore,
}

impl Graph {
    /// Builds a graph from `edges` in any order, dropping self-loops and
    /// collapsing repeats — the one CSR construction behind
    /// [`GraphBuilder`](crate::GraphBuilder) and the sorted-input
    /// constructors. The out-lists are laid out on the calling thread and
    /// the in-lists on one scoped thread (see [`per_orientation`]).
    ///
    /// # Panics
    /// Panics when `edges` holds more than `u32::MAX` entries or an id
    /// `>= node_count`.
    pub(crate) fn from_edge_list(node_count: usize, edges: &[(u32, u32)]) -> Graph {
        if edges.len() > u32::MAX as usize {
            panic!("{}", GraphError::TooManyEdges { count: edges.len() });
        }
        let ((out_offsets, out_targets), (in_offsets, in_sources)) = per_orientation(
            || csr_orientation(node_count, edges, |(f, t)| (f, t)),
            || csr_orientation(node_count, edges, |(f, t)| (t, f)),
        );
        debug_assert_eq!(out_targets.len(), in_sources.len());
        Graph {
            node_count,
            edge_count: out_targets.len(),
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
        }
    }

    /// Builds a graph from an edge list that is already sorted by
    /// `(from, to)` and free of duplicates and self-loops — what
    /// [`filter_edges`](Graph::filter_edges) holds.
    ///
    /// # Preconditions
    /// `edges` must be sorted by `(from, to)`, free of duplicates and
    /// self-loops, and reference only ids below `node_count`. A debug
    /// assertion checks the order in test builds; in release builds
    /// unsorted input still yields the same graph as
    /// [`GraphBuilder::build`] would. Out-of-range ids and edge counts
    /// above `u32::MAX` panic; callers that cannot guarantee their input
    /// (e.g. lenient ingest of adversarial files) should use
    /// [`try_from_sorted_unique_edges`](Graph::try_from_sorted_unique_edges)
    /// for a typed error instead.
    ///
    /// [`GraphBuilder::build`]: crate::GraphBuilder::build
    pub fn from_sorted_unique_edges(node_count: usize, edges: &[(u32, u32)]) -> Graph {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted by (from, to) and duplicate-free"
        );
        Graph::from_edge_list(node_count, edges)
    }

    /// This graph on `node_count` nodes with the edges `add` inserted and
    /// `remove` deleted, patched row by row in both orientations (the
    /// out-lists on the calling thread, the in-lists from the transposed
    /// edits on one scoped thread, see [`per_orientation`]): the rows no
    /// edit touches are copied in bulk. The result is the graph
    /// [`from_sorted_unique_edges`](Graph::from_sorted_unique_edges)
    /// builds from the patched edge set. Also returns how many adds and
    /// removes took effect: an add of a present edge and a remove of an
    /// absent one — including one naming a node that does not exist —
    /// are no-ops.
    ///
    /// # Preconditions
    /// `add` and `remove` are sorted by `(from, to)`, free of repeats and
    /// disjoint; `add` holds no self-loops and only ids below
    /// `node_count`, which is at least [`node_count`](Graph::node_count).
    ///
    /// # Panics
    /// Panics when `node_count` is below the current node count, an added
    /// edge names an id `>= node_count`, or the result holds more than
    /// `u32::MAX` edges.
    pub fn patched(
        &self,
        node_count: usize,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> (Graph, usize, usize) {
        assert!(node_count >= self.node_count, "a patch never drops nodes");
        if let Some(&(f, t)) = add.iter().find(|&&(f, t)| f.max(t) as usize >= node_count) {
            panic!("{}", GraphError::NodeOutOfRange { node: f.max(t), node_count });
        }
        debug_assert!(
            add.windows(2).all(|w| w[0] < w[1]) && remove.windows(2).all(|w| w[0] < w[1])
        );
        let transposed = |edits: &[(u32, u32)]| {
            let mut flipped: Vec<(u32, u32)> = edits.iter().map(|&(f, t)| (t, f)).collect();
            flipped.sort_unstable();
            flipped
        };
        let (
            (out_offsets, out_targets, added, removed),
            (in_offsets, in_sources, in_added, in_removed),
        ) = per_orientation(
            || patch_orientation(node_count, &self.out_offsets, &self.out_targets.0, add, remove),
            || {
                let (add, remove) = (transposed(add), transposed(remove));
                patch_orientation(node_count, &self.in_offsets, &self.in_sources.0, &add, &remove)
            },
        );
        debug_assert_eq!((added, removed), (in_added, in_removed));
        let graph = Graph {
            node_count,
            edge_count: out_targets.len(),
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
        };
        (graph, added, removed)
    }

    /// Fallible [`from_sorted_unique_edges`](Graph::from_sorted_unique_edges):
    /// validates the edge list **before** the counting passes run and
    /// returns a typed error instead of panicking.
    ///
    /// Checks, in order: the edge count fits `u32`
    /// ([`GraphError::TooManyEdges`] — the counting pass increments `u32`
    /// cells, so an oversized list would overflow them), every endpoint
    /// is in range ([`GraphError::NodeOutOfRange`]), the list is sorted
    /// and duplicate-free ([`GraphError::Corrupt`] — unlike the
    /// infallible constructor this is checked in release builds too,
    /// because callers reaching for this entry point are handling
    /// untrusted input), and no self-loops ([`GraphError::SelfLoop`]).
    ///
    /// # Errors
    /// See above; the graph is only constructed when all checks pass.
    pub fn try_from_sorted_unique_edges(
        node_count: usize,
        edges: &[(u32, u32)],
    ) -> Result<Graph, GraphError> {
        validate_edge_slice(node_count, edges)?;
        if let Some(w) = edges.windows(2).find(|w| w[0] >= w[1]) {
            return Err(GraphError::Corrupt(format!(
                "edge list not sorted/unique at ({}, {}) .. ({}, {})",
                w[0].0, w[0].1, w[1].0, w[1].1
            )));
        }
        if let Some(&(f, _)) = edges.iter().find(|&&(f, t)| f == t) {
            return Err(GraphError::SelfLoop { node: f });
        }
        Ok(Graph::from_edge_list(node_count, edges))
    }

    /// Assembles a graph directly from its four CSR arrays — the entry
    /// point of the zero-copy image load path, where the arrays may be
    /// views into a shared file buffer.
    ///
    /// The arrays are fully validated (read-only, `O(n + m)`): offset
    /// shapes, monotonicity, agreement of both orientations on the edge
    /// count, id ranges, strictly sorted adjacency lists, and absence of
    /// self-loops in the out-lists. Anything inconsistent yields
    /// [`GraphError::Corrupt`] rather than a malformed graph. Each
    /// orientation is checked on its own thread ([`per_orientation`]);
    /// the error returned is the first in the fixed order out-structure,
    /// in-structure, edge count, self-loops, however the threads finish.
    ///
    /// # Errors
    /// [`GraphError::Corrupt`] describing the first failed check.
    pub fn from_csr_parts(
        node_count: usize,
        out_offsets: U32Store,
        out_targets: NodeStore,
        in_offsets: U32Store,
        in_sources: NodeStore,
    ) -> Result<Graph, GraphError> {
        let (out_check, in_check) = per_orientation(
            // The out-lists' self-loop scan runs on this thread too, but
            // its finding is reported after the in-orientation's checks.
            || -> Result<Option<usize>, GraphError> {
                validate_csr(node_count, &out_offsets, &out_targets, "out")?;
                Ok((0..node_count).find(|&x| {
                    let list = &out_targets[out_offsets[x] as usize..out_offsets[x + 1] as usize];
                    list.iter().any(|&t| t.index() == x)
                }))
            },
            || validate_csr(node_count, &in_offsets, &in_sources, "in"),
        );
        let self_loop = out_check?;
        in_check?;
        let m = out_targets.len();
        if in_sources.len() != m {
            return Err(GraphError::Corrupt(format!(
                "orientations disagree on edge count: {m} out vs {} in",
                in_sources.len()
            )));
        }
        if let Some(x) = self_loop {
            return Err(GraphError::SelfLoop { node: x as u32 });
        }
        Ok(Graph { node_count, edge_count: m, out_offsets, out_targets, in_offsets, in_sources })
    }

    /// Whether all four CSR arrays are zero-copy views into a shared
    /// buffer (true only for graphs loaded through the v3 image path).
    pub fn is_zero_copy(&self) -> bool {
        self.out_offsets.is_shared()
            && self.out_targets.is_shared()
            && self.in_offsets.is_shared()
            && self.in_sources.is_shared()
    }

    /// Raw out-CSR offsets, length `node_count + 1` (counterpart of
    /// [`in_offsets`](Graph::in_offsets), used by image serialization
    /// and node-ordering heuristics).
    #[inline]
    pub fn out_offsets(&self) -> &[u32] {
        &self.out_offsets
    }

    /// Concatenated out-neighbour lists in CSR order.
    #[inline]
    pub fn out_targets(&self) -> &[NodeId] {
        &self.out_targets
    }

    /// Concatenated in-neighbour lists in CSR order.
    #[inline]
    pub fn in_sources(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Out-neighbours of `x`, sorted by id.
    #[inline]
    pub fn out_neighbors(&self, x: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[x.index()] as usize;
        let hi = self.out_offsets[x.index() + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `x`, sorted by id.
    #[inline]
    pub fn in_neighbors(&self, x: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[x.index()] as usize;
        let hi = self.in_offsets[x.index() + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree `out(x)`.
    #[inline]
    pub fn out_degree(&self, x: NodeId) -> usize {
        (self.out_offsets[x.index() + 1] - self.out_offsets[x.index()]) as usize
    }

    /// In-degree of `x`.
    #[inline]
    pub fn in_degree(&self, x: NodeId) -> usize {
        (self.in_offsets[x.index() + 1] - self.in_offsets[x.index()]) as usize
    }

    /// Raw in-CSR offsets, length `node_count + 1`: node `y`'s in-edges
    /// occupy positions `in_offsets[y]..in_offsets[y+1]` of the source
    /// array. The prefix-sum shape makes `in_offsets[y]` the number of
    /// in-edges of all nodes before `y`, which is what edge-balanced
    /// partitioning of gather kernels needs.
    #[inline]
    pub fn in_offsets(&self) -> &[u32] {
        &self.in_offsets
    }

    /// Whether `x` is a dangling node (`out(x) = 0`); such nodes make the
    /// transition matrix substochastic (Section 2.2).
    #[inline]
    pub fn is_dangling(&self, x: NodeId) -> bool {
        self.out_degree(x) == 0
    }

    /// Whether the directed edge `(from, to)` exists (binary search).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out_neighbors(from).binary_search(&to).is_ok()
    }

    /// Iterator over all edges in `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |f| self.out_neighbors(f).iter().map(move |&t| (f, t)))
    }

    /// Iterator over dangling nodes.
    pub fn dangling_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&x| self.is_dangling(x))
    }

    /// Returns a new graph with every edge reversed.
    pub fn reversed(&self) -> Graph {
        Graph {
            node_count: self.node_count,
            edge_count: self.edge_count,
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Builds a new graph containing only edges for which `keep` returns
    /// `true`. Node ids are preserved.
    pub fn filter_edges<F: FnMut(NodeId, NodeId) -> bool>(&self, mut keep: F) -> Graph {
        // Filters usually keep most edges; reserving the upper bound up
        // front avoids O(m) reallocation churn on large graphs.
        let mut edges = Vec::with_capacity(self.edge_count);
        for (f, t) in self.edges() {
            if keep(f, t) {
                edges.push((f.0, t.0));
            }
        }
        // `edges()` yields in sorted unique order already.
        Graph::from_sorted_unique_edges(self.node_count, &edges)
    }
}

/// Pre-counting validation of the fallible CSR constructor: edge count
/// fits `u32` and every endpoint is in range. Runs **before** any `u32`
/// counting cell is incremented, so a duplicate-heavy adversarial list
/// cannot overflow the counts first.
fn validate_edge_slice(node_count: usize, edges: &[(u32, u32)]) -> Result<(), GraphError> {
    if edges.len() > u32::MAX as usize {
        return Err(GraphError::TooManyEdges { count: edges.len() });
    }
    for &(f, t) in edges {
        let hi = f.max(t);
        if hi as usize >= node_count {
            return Err(GraphError::NodeOutOfRange { node: hi, node_count });
        }
    }
    Ok(())
}

/// Structural validation of one CSR orientation (shared with the image
/// loader's orientation-rebuild path in [`crate::io`]).
pub(crate) fn validate_csr(
    node_count: usize,
    offsets: &[u32],
    targets: &[NodeId],
    orientation: &str,
) -> Result<(), GraphError> {
    if offsets.len() != node_count + 1 {
        return Err(GraphError::Corrupt(format!(
            "{orientation}-offsets length {} != node_count + 1 = {}",
            offsets.len(),
            node_count + 1
        )));
    }
    if offsets[0] != 0 {
        return Err(GraphError::Corrupt(format!(
            "{orientation}-offsets must start at 0, got {}",
            offsets[0]
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Corrupt(format!("{orientation}-offsets not monotone")));
    }
    if offsets[node_count] as usize != targets.len() {
        return Err(GraphError::Corrupt(format!(
            "{orientation}-offsets end at {} but {} adjacency entries present",
            offsets[node_count],
            targets.len()
        )));
    }
    if targets.iter().any(|t| t.index() >= node_count) {
        return Err(GraphError::Corrupt(format!("{orientation}-adjacency id out of range")));
    }
    for x in 0..node_count {
        let list = &targets[offsets[x] as usize..offsets[x + 1] as usize];
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GraphError::Corrupt(format!(
                "{orientation}-adjacency list of node {x} not strictly sorted"
            )));
        }
    }
    Ok(())
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count)
            .field("edges", &self.edge_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert!(g.is_dangling(NodeId(3)));
        assert!(!g.is_dangling(NodeId(0)));
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = GraphBuilder::from_edges(4, &[(0, 3), (0, 1), (0, 2), (2, 0), (1, 0)]);
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(g.in_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn has_edge_lookup() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn dangling_nodes_iterator() {
        let g = diamond();
        let d: Vec<_> = g.dangling_nodes().collect();
        assert_eq!(d, vec![NodeId(3)]);
    }

    #[test]
    fn reversed_swaps_orientations() {
        let g = diamond().reversed();
        assert_eq!(g.out_degree(NodeId(3)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 0);
        assert!(g.has_edge(NodeId(3), NodeId(1)));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn filter_edges_removes_selected() {
        let g = diamond().filter_edges(|f, _| f != NodeId(0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(NodeId(0)), 0);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn filter_edges_keeps_ids_and_isolated_nodes() {
        // Keep only the edges into node 3: nodes 0..3 keep their ids,
        // node 0 is left with no edges at all, and the in-CSR is rebuilt
        // for the kept edges.
        let g = diamond().filter_edges(|_, t| t == NodeId(3));
        assert_eq!((g.node_count(), g.edge_count()), (4, 2));
        assert!(g.has_edge(NodeId(1), NodeId(3)) && g.has_edge(NodeId(2), NodeId(3)));
        assert_eq!((g.out_degree(NodeId(0)), g.in_degree(NodeId(0))), (0, 0));
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert_eq!(g.dangling_nodes().collect::<Vec<_>>(), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn in_lists_sorted_after_scatter() {
        // Edges arriving at node 5 from many sources, inserted shuffled.
        let g = GraphBuilder::from_edges(6, &[(4, 5), (0, 5), (2, 5), (1, 5), (3, 5)]);
        let ins: Vec<u32> = g.in_neighbors(NodeId(5)).iter().map(|n| n.0).collect();
        assert_eq!(ins, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_patch_is_the_build_of_the_patched_edges() {
        // Adds before, between and after a row's entries, into a new
        // node's row and an old row that had none; removes of present,
        // absent, self-loop and out-of-range edges; an add of a present
        // edge.
        let g = diamond();
        let add = [(0, 3), (1, 0), (2, 3), (3, 1), (4, 0), (5, 4)];
        let remove = [(0, 1), (1, 2), (2, 2), (3, 0), (9, 1)];
        let (patched, added, removed) = g.patched(6, &add, &remove);
        let kept = [(0, 2), (0, 3), (1, 0), (1, 3), (2, 3), (3, 1), (4, 0), (5, 4)];
        let built = Graph::from_sorted_unique_edges(6, &kept);
        assert_eq!((added, removed), (5, 1));
        assert_eq!(patched.edge_count(), built.edge_count());
        assert_eq!(patched.out_offsets(), built.out_offsets());
        assert_eq!(patched.out_targets(), built.out_targets());
        assert_eq!(patched.in_offsets(), built.in_offsets());
        assert_eq!(patched.in_sources(), built.in_sources());
        // No edits: the same graph.
        let (same, ..) = g.patched(4, &[], &[]);
        assert_eq!(same.in_sources(), g.in_sources());
        assert_eq!(same.out_offsets(), g.out_offsets());
    }

    #[test]
    fn removing_last_out_edge_makes_node_dangling_on_every_path() {
        // Node 1's only out-edge is (1, 3). After removing it, the
        // row-wise patch the delta applier uses and the rebuilt CSR must
        // agree that node 1 is dangling.
        let g = diamond();
        let kept: Vec<(u32, u32)> =
            g.edges().map(|(f, t)| (f.0, t.0)).filter(|&e| e != (1, 3)).collect();
        let (patched, ..) = g.patched(g.node_count(), &[], &[(1, 3)]);
        assert!(patched.is_dangling(NodeId(1)), "the patch sees node 1 as dangling");
        let filtered = g.filter_edges(|f, t| (f.0, t.0) != (1, 3));
        assert!(filtered.is_dangling(NodeId(1)), "filter_edges agrees");
        let rebuilt = Graph::from_sorted_unique_edges(g.node_count(), &kept);
        assert!(rebuilt.is_dangling(NodeId(1)), "direct CSR build agrees");
        assert_eq!(
            filtered.dangling_nodes().collect::<Vec<_>>(),
            rebuilt.dangling_nodes().collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_constructor_accepts_valid_input() {
        let g = Graph::try_from_sorted_unique_edges(4, &[(0, 1), (0, 2), (1, 3)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(1), NodeId(3)));
        assert!(!g.is_zero_copy(), "built graphs own their arrays");
    }

    #[test]
    fn try_constructor_rejects_bad_input_with_typed_errors() {
        assert!(matches!(
            Graph::try_from_sorted_unique_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, node_count: 2 })
        ));
        assert!(matches!(
            Graph::try_from_sorted_unique_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            Graph::try_from_sorted_unique_edges(3, &[(1, 2), (0, 1)]),
            Err(GraphError::Corrupt(_))
        ));
        assert!(matches!(
            Graph::try_from_sorted_unique_edges(3, &[(0, 1), (0, 1)]),
            Err(GraphError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn infallible_constructor_panics_on_out_of_range() {
        let _ = Graph::from_sorted_unique_edges(2, &[(0, 9)]);
    }

    #[test]
    fn csr_parts_round_trip() {
        let g = diamond();
        let rebuilt = Graph::from_csr_parts(
            g.node_count(),
            g.out_offsets().to_vec().into(),
            g.out_targets().iter().map(|t| t.0).collect::<Vec<_>>().into(),
            g.in_offsets().to_vec().into(),
            g.in_sources().iter().map(|s| s.0).collect::<Vec<_>>().into(),
        )
        .unwrap();
        assert_eq!(rebuilt.node_count(), g.node_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for (f, t) in g.edges() {
            assert!(rebuilt.has_edge(f, t));
        }
    }

    #[test]
    fn csr_parts_rejects_inconsistent_arrays() {
        let g = diamond();
        let out_off = g.out_offsets().to_vec();
        let out_tgt: Vec<u32> = g.out_targets().iter().map(|t| t.0).collect();
        let in_off = g.in_offsets().to_vec();
        let in_src: Vec<u32> = g.in_sources().iter().map(|s| s.0).collect();

        // Wrong offset length.
        let short: Vec<u32> = out_off[..out_off.len() - 1].to_vec();
        assert!(matches!(
            Graph::from_csr_parts(
                g.node_count(),
                short.into(),
                out_tgt.clone().into(),
                in_off.clone().into(),
                in_src.clone().into(),
            ),
            Err(GraphError::Corrupt(_))
        ));

        // Non-monotone offsets.
        let mut bad_off = out_off.clone();
        bad_off[1] = bad_off[2] + 1;
        assert!(Graph::from_csr_parts(
            g.node_count(),
            bad_off.into(),
            out_tgt.clone().into(),
            in_off.clone().into(),
            in_src.clone().into(),
        )
        .is_err());

        // Out-of-range target id.
        let mut bad_tgt = out_tgt.clone();
        bad_tgt[0] = 99;
        assert!(Graph::from_csr_parts(
            g.node_count(),
            out_off.clone().into(),
            bad_tgt.into(),
            in_off.clone().into(),
            in_src.clone().into(),
        )
        .is_err());

        // Orientations disagreeing on edge count.
        let trimmed_in_off: Vec<u32> = in_off.iter().map(|&o| o.min(3)).collect();
        let trimmed_in_src: Vec<u32> = in_src[..3].to_vec();
        assert!(Graph::from_csr_parts(
            g.node_count(),
            out_off.into(),
            out_tgt.into(),
            trimmed_in_off.into(),
            trimmed_in_src.into(),
        )
        .is_err());
    }
}
