//! The precedence graph `G(H_m, H_b)` of Section 2.1 (after Davidson 1984).
//!
//! Given a tentative history `H_m` and a base history `H_b` that started
//! from the same database state, the graph has one node per transaction and
//! three kinds of edges:
//!
//! 1. `T_i → T_j` for tentative `T_i`, `T_j` with conflicting operations,
//!    `T_i` preceding `T_j` in `H_m`;
//! 2. `T_i → T_j` for base transactions likewise (order in `H_b`);
//! 3. cross edges: `T_m → T_b` if tentative `T_m` read an item that base
//!    `T_b` updated (the tentative read saw the pre-base value, so `T_m`
//!    must serialize before `T_b`), and symmetrically `T_b → T_m`.
//!
//! **Theorem 1**: `G(H_m, H_b)` is acyclic iff `H_m` and `H_b` are
//! serializable, i.e. equivalent to some merged history `H` — which
//! [`PrecedenceGraph::merged_history`] then produces by topological sort.
//!
//! A build from a [`BaseEdgeCache`] materializes only the **conflict
//! cone**: `H_m`, every base transaction with a rule-3 edge to or from
//! `H_m`, and every base transaction on a rule-2 path between them. Every
//! cycle lies inside the cone, so back-out sets are the same as on the
//! full graph (see [`PrecedenceGraph::build_with_base_cache`]).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;

use histmerge_txn::{TxnId, TxnKind};

use crate::arena::TxnArena;
use crate::footprint::DenseBits;
use crate::schedule::SerialHistory;

/// Why an edge is in the precedence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Conflicting tentative transactions, ordered by `H_m` (rule 1).
    MobileConflict,
    /// Conflicting base transactions, ordered by `H_b` (rule 2).
    BaseConflict,
    /// A tentative transaction read an item a base transaction updated
    /// (rule 3, `T_m → T_b`).
    MobileReadBase,
    /// A base transaction read an item a tentative transaction updated
    /// (rule 3, `T_b → T_m`).
    BaseReadMobile,
}

impl EdgeKind {
    /// The rule's stable label, as rendered in traces and merge
    /// autopsies.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::MobileConflict => "mobile-conflict",
            EdgeKind::BaseConflict => "base-conflict",
            EdgeKind::MobileReadBase => "mobile-read-base",
            EdgeKind::BaseReadMobile => "base-read-mobile",
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable scratch for repeated graph builds: per-base-position buffers
/// (cone marks and node indices), so back-to-back merges stop allocating
/// them per build.
#[derive(Debug, Clone, Default)]
pub struct GraphScratch {
    /// Base position → cone membership bits (`ENTRY`, `EXIT`, `FWD`,
    /// `BWD`), cleared per cached build.
    marks: Vec<u8>,
    /// Base position → node index, for the positions that are nodes.
    node_of: Vec<usize>,
}

impl GraphScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        GraphScratch::default()
    }
}

/// Incrementally maintained rule-2 (base-conflict) edges of one epoch's
/// base history.
///
/// [`PrecedenceGraph::build`] recomputes the `O(|H_b|²)` pairwise base
/// conflicts on every merge, even though within a window `H_b` only ever
/// *grows*. A `BaseEdgeCache` is kept per epoch: appending a suffix of `k`
/// new base transactions costs `O(k · |H_b|)` comparisons once, and every
/// merge in the window (serial or batched) then reads, for any prefix of
/// the cached history, only the rule-2 edges of its conflict cone.
///
/// Edge counts are tracked cumulatively per prefix, so graphs built from
/// the cache report the from-scratch build's full edge count.
#[derive(Debug, Clone, Default)]
pub struct BaseEdgeCache {
    txns: Vec<TxnId>,
    /// Conflicting index pairs `(i, j)` with `i < j`, grouped by `j` in
    /// append order (so the pairs among any prefix form a prefix of this
    /// vector).
    pairs: Vec<(usize, usize)>,
    /// `edges_upto[k]` = number of pairs whose later member is `< k`.
    edges_upto: Vec<usize>,
    /// Union of every cached transaction's read∪write bitset — the whole
    /// epoch slice's footprint. A pending history disjoint from this union
    /// cannot draw a single cross edge against *any* cached prefix, which
    /// is the gate for the conflict-free merge fast path.
    footprint: DenseBits,
}

impl BaseEdgeCache {
    /// Creates an empty cache (start of a window).
    pub fn new() -> Self {
        BaseEdgeCache {
            txns: Vec::new(),
            pairs: Vec::new(),
            edges_upto: vec![0],
            footprint: DenseBits::new(),
        }
    }

    /// Number of base transactions cached.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Drops all cached state (window rollover).
    pub fn clear(&mut self) {
        self.txns.clear();
        self.pairs.clear();
        self.edges_upto.clear();
        self.edges_upto.push(0);
        self.footprint.clear();
    }

    /// Appends base transactions, computing their conflicts against every
    /// earlier cached transaction.
    pub fn extend(&mut self, arena: &TxnArena, suffix: impl IntoIterator<Item = TxnId>) {
        for id in suffix {
            let j = self.txns.len();
            self.txns.push(id);
            for (i, &earlier) in self.txns[..j].iter().enumerate() {
                if arena.conflicts(earlier, id) {
                    self.pairs.push((i, j));
                }
            }
            self.edges_upto.push(self.pairs.len());
            self.footprint.union_with(arena.read_bits(id));
            self.footprint.union_with(arena.write_bits(id));
        }
    }

    /// Brings the cache up to date with `hb`, which must extend the cached
    /// prefix (the invariant of an epoch's growing base history).
    pub fn sync(&mut self, arena: &TxnArena, hb: &SerialHistory) {
        debug_assert!(
            hb.iter().take(self.txns.len()).eq(self.txns.iter().copied()),
            "base history is not an extension of the cached prefix"
        );
        let known = self.txns.len();
        let suffix: Vec<TxnId> = hb.iter().skip(known).collect();
        self.extend(arena, suffix);
    }

    /// Number of rule-2 edges among the first `prefix` cached transactions.
    pub fn edge_count(&self, prefix: usize) -> usize {
        self.edges_upto[prefix.min(self.txns.len())]
    }

    /// Union of every cached transaction's read∪write footprint. Only
    /// meaningful for the *full* cached length (prefix unions are not
    /// derivable), so fast-path gates must also check
    /// `cache.len() == hb.len()`.
    pub fn footprint_bits(&self) -> &DenseBits {
        &self.footprint
    }

    /// The conflicting pairs whose later member lies in `lo..hi` (both
    /// clamped to the cached length), in append order.
    fn pairs_ending_in(&self, lo: usize, hi: usize) -> &[(usize, usize)] {
        &self.pairs[self.edge_count(lo)..self.edge_count(hi)]
    }
}

/// Cone marks of a base position: it has a rule-3 edge from `H_m`
/// (entry), to `H_m` (exit), is reachable from an entry over rule-2 edges
/// (forward), or reaches an exit (backward).
const ENTRY: u8 = 1;
const EXIT: u8 = 2;
const FWD: u8 = 4;
const BWD: u8 = 8;

/// Whether marks put a base position in the conflict cone: a rule-3
/// neighbour of `H_m`, or on a rule-2 path from an entry to an exit.
fn in_cone(mark: u8) -> bool {
    mark & (ENTRY | EXIT) != 0 || mark & (FWD | BWD) == FWD | BWD
}

/// The base positions of the conflict cone over the first `prefix` cached
/// transactions, ascending, and the cached rule-2 pairs among them in
/// `(i asc, j asc)` order. `cross` holds the rule-3 edges as
/// `(tentative position, base position, kind)`.
///
/// Pairs are grouped by ascending later member, so one forward pass marks
/// everything reachable from an entry and one reverse pass everything that
/// reaches an exit. Only pairs ending after the first entry and no later
/// than the last exit can lie on an entry-to-exit path. The cone's own
/// pairs are then read from the groups of its members alone.
fn cone(
    cache: &BaseEdgeCache,
    prefix: usize,
    cross: &[(usize, usize, EdgeKind)],
    marks: &mut Vec<u8>,
) -> (Vec<usize>, Vec<(usize, usize)>) {
    marks.clear();
    marks.resize(prefix, 0);
    for &(_, b, kind) in cross {
        marks[b] |= match kind {
            EdgeKind::MobileReadBase => ENTRY | FWD,
            _ => EXIT | BWD,
        };
    }
    let first_entry = marks.iter().position(|m| m & ENTRY != 0);
    let last_exit = marks.iter().rposition(|m| m & EXIT != 0);
    if let (Some(lo), Some(hi)) = (first_entry, last_exit) {
        if lo < hi {
            let span = cache.pairs_ending_in(lo + 1, hi + 1);
            for &(i, j) in span {
                if marks[i] & FWD != 0 {
                    marks[j] |= FWD;
                }
            }
            for &(i, j) in span.iter().rev() {
                if marks[j] & BWD != 0 {
                    marks[i] |= BWD;
                }
            }
        }
    }
    let base: Vec<usize> = (0..prefix).filter(|&b| in_cone(marks[b])).collect();
    let mut pairs: Vec<(usize, usize)> = base
        .iter()
        .flat_map(|&j| cache.pairs_ending_in(j, j + 1))
        .copied()
        .filter(|&(i, _)| in_cone(marks[i]))
        .collect();
    pairs.sort_unstable();
    (base, pairs)
}

/// How a [`PrecedenceGraph`] build obtains the rule-2 (base-conflict)
/// edges.
enum Rule2<'a> {
    /// Pairwise comparison over `H_b` (the from-scratch path).
    Compute,
    /// Read them from a [`BaseEdgeCache`] whose prefix matches `H_b`.
    Cached(&'a BaseEdgeCache),
}

/// The precedence graph over the transactions of `H_m ∪ H_b` — or, for a
/// cached build, over its conflict cone.
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    /// Node order: `H_m` transactions first, then `H_b` transactions.
    nodes: Vec<TxnId>,
    kinds: Vec<TxnKind>,
    /// Id → node index.
    positions: HashMap<TxnId, usize>,
    /// Adjacency: `succs[i]` holds the node indices `i` points to, sorted
    /// ascending after the build (membership tests binary-search).
    succs: Vec<Vec<usize>>,
    /// Every materialized edge with its reason, for diagnostics and
    /// Figure 1 rendering.
    edges: Vec<(TxnId, TxnId, EdgeKind)>,
    /// Edge count of the full `G(H_m, H_b)`, cone builds included.
    edge_count: usize,
    /// Built from a [`BaseEdgeCache`]: only the conflict cone is present.
    cone: bool,
}

impl PrecedenceGraph {
    /// Builds the graph from a tentative and a base history over one arena.
    ///
    /// Conflicts are determined from static read/write sets: two
    /// transactions conflict on an item if both access it and at least one
    /// writes it.
    pub fn build(arena: &TxnArena, hm: &SerialHistory, hb: &SerialHistory) -> Self {
        Self::build_inner(arena, hm, hb, Rule2::Compute, &mut GraphScratch::new())
    }

    /// Like [`build`](Self::build), but reusing a caller-held
    /// [`GraphScratch`] across builds (e.g. one merge per window step).
    pub fn build_with_scratch(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        scratch: &mut GraphScratch,
    ) -> Self {
        Self::build_inner(arena, hm, hb, Rule2::Compute, scratch)
    }

    /// Builds the **conflict cone** of `G(H_m, H_b)`, taking the rule-2
    /// base-conflict edges from an incrementally maintained
    /// [`BaseEdgeCache`] instead of recomputing the `O(|H_b|²)` pairwise
    /// comparisons. The cache must cover `hb` — i.e. `hb` must equal a
    /// prefix of the cached history.
    ///
    /// The cone holds `H_m`, the entry set `E` (base transactions with a
    /// rule-3 edge `T_m → T_b`), the exit set `X` (`T_b → T_m`), and every
    /// base transaction on a rule-2 path from `E` to `X`, with every edge
    /// of the full graph among them. Each cycle passes through a tentative
    /// node and rule-2 edges only point forward in `H_b`, so every cycle
    /// leaves `H_m` into `E`, runs along rule-2 edges and returns from `X`:
    /// it lies inside the cone. Every rule-3 neighbour is kept, so
    /// tentative degrees are exact; the kept nodes keep their relative
    /// order; and a dropped node reachable from `H_m` cannot reach `X`, so
    /// it never reaches a node on a cycle. Hence cycle detection, the
    /// strongly connected components with cycles (in emission order), the
    /// 2-cycles, and every back-out strategy's set `B` are those of the
    /// full graph. [`edge_count`](Self::edge_count) still reports the full
    /// graph's edge count; [`merged_history`](Self::merged_history) is
    /// unavailable, since the dropped base nodes belong to the witness.
    pub fn build_with_base_cache(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
    ) -> Self {
        Self::build_with_base_cache_scratch(arena, hm, hb, cache, &mut GraphScratch::new())
    }

    /// [`build_with_base_cache`](Self::build_with_base_cache) with a
    /// caller-held [`GraphScratch`].
    pub fn build_with_base_cache_scratch(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        cache: &BaseEdgeCache,
        scratch: &mut GraphScratch,
    ) -> Self {
        assert!(cache.len() >= hb.len(), "base-edge cache is behind the base history");
        debug_assert!(
            hb.iter().eq(cache.txns[..hb.len()].iter().copied()),
            "base-edge cache prefix does not match the base history"
        );
        Self::build_inner(arena, hm, hb, Rule2::Cached(cache), scratch)
    }

    fn build_inner(
        arena: &TxnArena,
        hm: &SerialHistory,
        hb: &SerialHistory,
        rule2: Rule2,
        scratch: &mut GraphScratch,
    ) -> Self {
        let hm_order = hm.order();
        let hb_order = hb.order();

        // Rule 3 first: on a cached build the cross edges decide which base
        // transactions become nodes. Both histories started from the same
        // state, so a tentative read of an item some base transaction
        // wrote must have observed the pre-base value (and vice versa).
        let mut cross: Vec<(usize, usize, EdgeKind)> = Vec::new();
        for (m, &tm) in hm_order.iter().enumerate() {
            for (b, &tb) in hb_order.iter().enumerate() {
                if arena.reads_overlap_writes(tm, tb) {
                    cross.push((m, b, EdgeKind::MobileReadBase));
                }
                if arena.reads_overlap_writes(tb, tm) {
                    cross.push((m, b, EdgeKind::BaseReadMobile));
                }
            }
        }

        // Base nodes (as positions in `hb`) and the rule-2 pairs among
        // them, in the `(i asc, j asc)` order of the pairwise scan.
        let cone_build = matches!(rule2, Rule2::Cached(_));
        let (base, base_pairs, base_edges) = match rule2 {
            Rule2::Compute => {
                let mut pairs = Vec::new();
                for (i, &ti) in hb_order.iter().enumerate() {
                    for (j, &tj) in hb_order.iter().enumerate().skip(i + 1) {
                        if arena.conflicts(ti, tj) {
                            pairs.push((i, j));
                        }
                    }
                }
                let count = pairs.len();
                ((0..hb_order.len()).collect(), pairs, count)
            }
            Rule2::Cached(cache) => {
                let (base, pairs) = cone(cache, hb_order.len(), &cross, &mut scratch.marks);
                (base, pairs, cache.edge_count(hb_order.len()))
            }
        };

        let nodes: Vec<TxnId> =
            hm_order.iter().copied().chain(base.iter().map(|&b| hb_order[b])).collect();
        let kinds: Vec<TxnKind> = nodes.iter().map(|id| arena.get(*id).kind()).collect();
        let positions: HashMap<TxnId, usize> =
            nodes.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let node_of = &mut scratch.node_of;
        node_of.clear();
        node_of.resize(hb_order.len(), usize::MAX);
        for (k, &b) in base.iter().enumerate() {
            node_of[b] = hm_order.len() + k;
        }

        let mut graph = PrecedenceGraph {
            succs: vec![Vec::new(); nodes.len()],
            edges: Vec::new(),
            edge_count: 0,
            cone: cone_build,
            positions,
            nodes,
            kinds,
        };

        // Rule 1: order of conflicting tentative transactions in H_m.
        // Conflicts are word-wise bitset tests over the arena's interned
        // footprints — identical answers to the VarSet intersections.
        for (i, &ti) in hm_order.iter().enumerate() {
            for (j, &tj) in hm_order.iter().enumerate().skip(i + 1) {
                if arena.conflicts(ti, tj) {
                    graph.add_edge(i, j, EdgeKind::MobileConflict);
                }
            }
        }
        let rule1 = graph.edges.len();

        // Rule 2: order of conflicting base transactions in H_b.
        for (i, j) in base_pairs {
            graph.add_edge(node_of[i], node_of[j], EdgeKind::BaseConflict);
        }

        // Rule 3: the cross edges found above.
        for &(m, b, kind) in &cross {
            let b = node_of[b];
            match kind {
                EdgeKind::MobileReadBase => graph.add_edge(m, b, kind),
                _ => graph.add_edge(b, m, kind),
            }
        }
        graph.edge_count = rule1 + base_edges + cross.len();

        // Sort adjacency ascending (rule-3 targets arrive out of order for
        // base nodes) so membership binary-searches and iteration matches
        // the former BTreeSet order.
        for succs in &mut graph.succs {
            succs.sort_unstable();
        }

        graph
    }

    /// Adds `from → to`. The three rules draw disjoint edge sets (rule 1
    /// between tentative nodes, rule 2 between base nodes, rule 3 across,
    /// one per direction), so no edge arrives twice.
    fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        debug_assert!(!self.succs[from].contains(&to), "duplicate edge");
        self.succs[from].push(to);
        self.edges.push((self.nodes[from], self.nodes[to], kind));
    }

    /// The transactions in the graph (tentative first, then base).
    pub fn nodes(&self) -> &[TxnId] {
        &self.nodes
    }

    /// Every materialized edge as `(from, to, kind)`, in insertion order
    /// (rule 1, rule 2, rule 3). A conflict-cone build lists only the
    /// edges among its nodes.
    pub fn edges(&self) -> &[(TxnId, TxnId, EdgeKind)] {
        &self.edges
    }

    /// Number of edges of the full `G(H_m, H_b)` — also for a
    /// conflict-cone build, which counts the edges it leaves out (the
    /// cost model charges for the whole graph).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` for a build from a [`BaseEdgeCache`], which holds only the
    /// conflict cone of `H_m ∪ H_b`.
    pub fn is_cone(&self) -> bool {
        self.cone
    }

    /// Returns `true` if there is an edge `from → to`.
    pub fn has_edge(&self, from: TxnId, to: TxnId) -> bool {
        match (self.index(from), self.index(to)) {
            (Some(f), Some(t)) => self.succs[f].binary_search(&t).is_ok(),
            _ => false,
        }
    }

    /// The node index of `id`, if present.
    fn index(&self, id: TxnId) -> Option<usize> {
        self.positions.get(&id).copied()
    }

    /// The kind (base/tentative) of a node.
    pub fn kind(&self, id: TxnId) -> Option<TxnKind> {
        self.index(id).map(|i| self.kinds[i])
    }

    /// Returns `true` if the graph is acyclic, ignoring nodes in `removed`.
    ///
    /// By Theorem 1, acyclicity means the two histories are serializable
    /// into one merged history.
    pub fn is_acyclic_without(&self, removed: &BTreeSet<TxnId>) -> bool {
        self.topo_order_without(removed).is_some()
    }

    /// Returns `true` if the full graph is acyclic (Theorem 1).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_without(&BTreeSet::new())
    }

    fn alive(&self, removed: &BTreeSet<TxnId>) -> Vec<bool> {
        self.nodes.iter().map(|id| !removed.contains(id)).collect()
    }

    /// Kahn topological sort over the nodes not in `removed`; `None` if the
    /// remaining graph has a cycle. Ties are broken by preferring **base**
    /// transactions, then lower node index — so merged histories
    /// deterministically front-load the durable base history where the
    /// graph allows, matching the paper's `H = Tb1 Tb2 Tm1 Tm2` in
    /// Example 1.
    fn topo_order_without(&self, removed: &BTreeSet<TxnId>) -> Option<Vec<TxnId>> {
        let n = self.nodes.len();
        let alive = self.alive(removed);
        let mut indegree = vec![0usize; n];
        for (from, succs) in self.succs.iter().enumerate() {
            if !alive[from] {
                continue;
            }
            for &to in succs {
                if alive[to] {
                    indegree[to] += 1;
                }
            }
        }
        // Deterministic tie-break: base nodes first, then lowest index —
        // the min-heap pops the least `(is_tentative, index)` ready node.
        let key = |i: usize| Reverse((self.kinds[i] != TxnKind::Base, i));
        let mut ready: BinaryHeap<_> =
            (0..n).filter(|&i| alive[i] && indegree[i] == 0).map(key).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse((_, i))) = ready.pop() {
            order.push(self.nodes[i]);
            for &to in &self.succs[i] {
                if alive[to] {
                    indegree[to] -= 1;
                    if indegree[to] == 0 {
                        ready.push(key(to));
                    }
                }
            }
        }
        let alive_count = alive.iter().filter(|a| **a).count();
        (order.len() == alive_count).then_some(order)
    }

    /// If the graph (minus `removed`) is acyclic, returns an equivalent
    /// merged serial history over the remaining transactions (Theorem 1).
    ///
    /// # Panics
    ///
    /// Panics on a conflict-cone build ([`is_cone`](Self::is_cone)): the
    /// base transactions it may leave out belong to the witness.
    pub fn merged_history_without(&self, removed: &BTreeSet<TxnId>) -> Option<SerialHistory> {
        assert!(!self.cone, "a conflict-cone graph has no merged history");
        self.topo_order_without(removed).map(SerialHistory::from_order)
    }

    /// If the graph is acyclic, returns an equivalent merged serial history.
    pub fn merged_history(&self) -> Option<SerialHistory> {
        self.merged_history_without(&BTreeSet::new())
    }

    /// The strongly connected components with more than one node, or with a
    /// self-loop — i.e. the components containing cycles. Nodes in
    /// `removed` are ignored.
    pub fn cyclic_sccs(&self, removed: &BTreeSet<TxnId>) -> Vec<Vec<TxnId>> {
        self.tarjan_sccs(removed)
            .into_iter()
            .filter(|scc| scc.len() > 1 || self.succs[scc[0]].binary_search(&scc[0]).is_ok())
            .map(|scc| {
                let mut ids: Vec<TxnId> = scc.into_iter().map(|i| self.nodes[i]).collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    /// All 2-cycles `(a, b)` (edges both ways) among non-removed nodes,
    /// with `a < b` by node order. Davidson's simulations found most
    /// conflicts appear as 2-cycles, motivating the two-cycle-optimal
    /// back-out strategy.
    pub fn two_cycles(&self, removed: &BTreeSet<TxnId>) -> Vec<(TxnId, TxnId)> {
        let alive = self.alive(removed);
        let mut out = Vec::new();
        for (i, succs) in self.succs.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            for &j in succs {
                if j > i && alive[j] && self.succs[j].binary_search(&i).is_ok() {
                    out.push((self.nodes[i], self.nodes[j]));
                }
            }
        }
        out
    }

    /// Tarjan's strongly-connected-components algorithm (iterative), over
    /// nodes not in `removed`. Components are lists of node indices, in
    /// emission order.
    fn tarjan_sccs(&self, removed: &BTreeSet<TxnId>) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let alive = self.alive(removed);
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS stack: (node, position in its successor list).
        let mut call_stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if !alive[start] || index[start] != usize::MAX {
                continue;
            }
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            call_stack.push((start, 0));

            while let Some((v, pos)) = call_stack.last_mut() {
                let v = *v;
                if let Some(&w) = self.succs[v].get(*pos) {
                    *pos += 1;
                    if !alive[w] {
                        continue;
                    }
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Out-degree plus in-degree of a node, counting only edges between
    /// non-removed nodes. Used by greedy back-out strategies.
    pub fn degree_without(&self, id: TxnId, removed: &BTreeSet<TxnId>) -> usize {
        let Some(i) = self.index(id) else { return 0 };
        if removed.contains(&id) {
            return 0;
        }
        let out = self.succs[i].iter().filter(|&&j| !removed.contains(&self.nodes[j])).count();
        let inn = self
            .succs
            .iter()
            .enumerate()
            .filter(|(j, succs)| {
                !removed.contains(&self.nodes[*j]) && succs.binary_search(&i).is_ok()
            })
            .count();
        out + inn
    }
}

impl fmt::Display for PrecedenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "precedence graph: {} nodes, {} edges", self.nodes.len(), self.edge_count)?;
        if self.cone {
            write!(f, " ({} in the conflict cone)", self.edges.len())?;
        }
        writeln!(f)?;
        for (from, to, kind) in &self.edges {
            writeln!(f, "  {from} -> {to}  [{kind}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, Transaction, VarId, VarSet};
    use std::sync::Arc;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn rw_txn(
        arena: &mut TxnArena,
        name: &str,
        kind: TxnKind,
        reads: &[u32],
        writes: &[u32],
    ) -> TxnId {
        let mut b = ProgramBuilder::new(name);
        let read_set: VarSet = reads.iter().chain(writes.iter()).map(|i| v(*i)).collect();
        for var in read_set.iter() {
            b = b.read(var);
        }
        for w in writes {
            b = b.update(v(*w), Expr::var(v(*w)) + Expr::konst(1));
        }
        let prog: Arc<Program> = Arc::new(b.build().unwrap());
        arena.alloc(|id| Transaction::new(id, name, kind, prog, vec![]))
    }

    #[test]
    fn example1_edges_match_figure1() {
        let ex = crate::fixtures::example1();
        let ([m1, m2, m3, m4], [b1, b2]) = (ex.m, ex.b);
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Rule 1 edges within H_m.
        assert!(g.has_edge(m1, m2)); // d2
        assert!(g.has_edge(m2, m3)); // d4, d5, d6
        assert!(g.has_edge(m2, m4)); // d6
        assert!(g.has_edge(m3, m4)); // d6
        assert!(!g.has_edge(m1, m3)); // disjoint footprints
                                      // Rule 2 edge within H_b (both touch d5, Tb1 writes).
        assert!(g.has_edge(b1, b2));
        // Rule 3 cross edges.
        assert!(g.has_edge(b2, m1)); // Tb2 read d1, updated by Tm1
        assert!(g.has_edge(b1, m2)); // Tb1 read d5, updated by Tm2
        assert!(g.has_edge(b2, m2)); // Tb2 read d5, updated by Tm2
        assert!(g.has_edge(m3, b1)); // Tm3 read d5, updated by Tb1
        assert!(!g.has_edge(m2, b1)); // Tm2 never reads d5 (blind write)
                                      // No edge in the reverse tentative order.
        assert!(!g.has_edge(m2, m1));
        assert!(!g.has_edge(m4, m3));
    }

    #[test]
    fn example1_cycle_broken_by_tm3() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // "Since the graph has a cycle, conflict exists among the
        // transactions": Tm3 -> Tb1 -> Tm2 -> Tm3.
        assert!(!g.is_acyclic());
        // "after Tm3 and Tm4 are backed out, ... the reconstructed
        // precedence graph is acyclic" — indeed Tm3 alone suffices for
        // acyclicity; Tm4 is backed out as an *affected* transaction.
        let removed: BTreeSet<TxnId> = [ex.m[2]].into_iter().collect();
        assert!(g.is_acyclic_without(&removed));
    }

    #[test]
    fn example1_merged_history_matches_paper() {
        let ex = crate::fixtures::example1();
        let ([m1, m2, m3, m4], [b1, b2]) = (ex.m, ex.b);
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        // Back out B ∪ AG = {Tm3, Tm4}: the merged history is
        // H = Tb1 Tb2 Tm1 Tm2, as stated in Example 1.
        let removed: BTreeSet<TxnId> = [m3, m4].into_iter().collect();
        let merged = g.merged_history_without(&removed).unwrap();
        assert_eq!(merged.order(), &[b1, b2, m1, m2]);
    }

    #[test]
    fn two_cycles_detected() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert_eq!(g.two_cycles(&BTreeSet::new()), vec![(m, b)]);
        assert_eq!(g.cyclic_sccs(&BTreeSet::new()).len(), 1);
        let removed: BTreeSet<TxnId> = [m].into_iter().collect();
        assert!(g.two_cycles(&removed).is_empty());
        assert!(g.is_acyclic_without(&removed));
    }

    #[test]
    fn disjoint_histories_are_acyclic() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[1], &[1]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert!(g.is_acyclic());
        assert!(g.edges().is_empty());
        let merged = g.merged_history().unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.order()[0], b, "base preferred in ties");
    }

    #[test]
    fn read_only_cross_edges_are_one_way() {
        let mut arena = TxnArena::new();
        // Tentative reads d0; base writes d0. Only Tm -> Tb.
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[]);
        let b = rw_txn(&mut arena, "b", TxnKind::Base, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([m]),
            &SerialHistory::from_order([b]),
        );
        assert!(g.has_edge(m, b));
        assert!(!g.has_edge(b, m));
        assert!(g.is_acyclic());
        assert_eq!(g.edges()[0].2, EdgeKind::MobileReadBase);
        assert_eq!(g.kind(m), Some(TxnKind::Tentative));
    }

    #[test]
    fn degree_counts_both_directions() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let none = BTreeSet::new();
        // Tm2: out to Tm3, Tm4; in from Tm1, Tb1, Tb2.
        assert_eq!(g.degree_without(ex.m[1], &none), 5);
        let all: BTreeSet<TxnId> = g.nodes().iter().copied().collect();
        assert_eq!(g.degree_without(ex.m[1], &all), 0);
    }

    #[test]
    fn display_lists_edges() {
        let ex = crate::fixtures::example1();
        let g = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let text = g.to_string();
        assert!(text.contains("nodes"));
        assert!(text.contains("mobile-read-base"));
    }

    /// A conflict-cone build must agree with the full graph on everything
    /// back-out reads: the full edge count, node order (the cone's nodes
    /// and edges are order-preserving subsequences of the full graph's),
    /// and every strategy's back-out set.
    fn assert_cone_matches(full: &PrecedenceGraph, cone: &PrecedenceGraph) {
        use crate::backout::{BackoutStrategy, ExactMinimum, GreedyScc, TwoCycleOptimal};
        assert!(cone.is_cone() && !full.is_cone());
        assert_eq!(cone.edge_count(), full.edge_count());
        assert_eq!(full.edge_count(), full.edges().len());
        let mut rest = full.nodes().iter();
        assert!(cone.nodes().iter().all(|id| rest.any(|n| n == id)), "cone node order");
        let mut rest = full.edges().iter();
        assert!(cone.edges().iter().all(|e| rest.any(|f| f == e)), "cone edge order");
        let unit = |_: TxnId| 1u64;
        let strategies: [&dyn BackoutStrategy; 3] =
            [&ExactMinimum::new(), &TwoCycleOptimal::new(), &GreedyScc::new()];
        for s in strategies {
            assert_eq!(s.compute(cone, &unit), s.compute(full, &unit), "{}", s.name());
        }
    }

    #[test]
    fn cached_build_matches_from_scratch() {
        let ex = crate::fixtures::example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        assert_eq!(cache.len(), ex.hb.len());
        let scratch = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
        let cached = PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
        assert_cone_matches(&scratch, &cached);
        assert_eq!(cache.edge_count(ex.hb.len()), 1); // Tb1 -> Tb2 on d5
        assert_eq!(cache.edge_count(0), 0);
    }

    #[test]
    fn cone_keeps_only_base_nodes_that_can_close_a_cycle() {
        let mut arena = TxnArena::new();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[9]);
        // Exit only: reads d9, which m writes.
        let b5 = rw_txn(&mut arena, "b5", TxnKind::Base, &[9], &[6]);
        // Entry (m reads d0) -> b1 -> b2 (exit: reads d9): the cycle path.
        let b0 = rw_txn(&mut arena, "b0", TxnKind::Base, &[], &[0, 1]);
        let b1 = rw_txn(&mut arena, "b1", TxnKind::Base, &[1], &[2]);
        let b2 = rw_txn(&mut arena, "b2", TxnKind::Base, &[2, 9], &[3]);
        // Disjoint from everything.
        let b3 = rw_txn(&mut arena, "b3", TxnKind::Base, &[5], &[5]);
        // Reachable from the entry but reaches no exit.
        let b4 = rw_txn(&mut arena, "b4", TxnKind::Base, &[3], &[4]);
        let hm = SerialHistory::from_order([m]);
        let hb = SerialHistory::from_order([b5, b0, b1, b2, b3, b4]);
        let mut cache = BaseEdgeCache::new();
        cache.sync(&arena, &hb);
        let full = PrecedenceGraph::build(&arena, &hm, &hb);
        let cone = PrecedenceGraph::build_with_base_cache(&arena, &hm, &hb, &cache);
        assert_eq!(cone.nodes(), &[m, b5, b0, b1, b2]);
        assert_eq!(full.edge_count(), 6);
        assert_eq!(cone.edges().len(), 5, "b2 -> b4 lies outside the cone");
        assert!(!cone.is_acyclic());
        assert_eq!(cone.cyclic_sccs(&BTreeSet::new()), vec![vec![m, b0, b1, b2]]);
        assert_cone_matches(&full, &cone);
        assert!(cone.to_string().contains("6 edges (5 in the conflict cone)"));
    }

    #[test]
    #[should_panic(expected = "conflict-cone graph has no merged history")]
    fn cone_has_no_witness() {
        let ex = crate::fixtures::example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        let cone = PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
        let _ = cone.merged_history();
    }

    #[test]
    fn cache_grows_incrementally_and_serves_prefixes() {
        let mut arena = TxnArena::new();
        let ids: Vec<TxnId> = (0..6)
            .map(|i| rw_txn(&mut arena, &format!("b{i}"), TxnKind::Base, &[i % 2], &[i % 2]))
            .collect();
        let m = rw_txn(&mut arena, "m", TxnKind::Tentative, &[0], &[0]);
        let hm = SerialHistory::from_order([m]);

        let mut cache = BaseEdgeCache::new();
        // Grow the epoch two transactions at a time; each prefix's cone
        // must match the from-scratch build, and earlier prefixes must
        // keep working after later extensions.
        for step in [2usize, 4, 6] {
            let hb = SerialHistory::from_order(ids[..step].iter().copied());
            cache.sync(&arena, &hb);
            for prefix in (2..=step).step_by(2) {
                let hb_pre = SerialHistory::from_order(ids[..prefix].iter().copied());
                let scratch = PrecedenceGraph::build(&arena, &hm, &hb_pre);
                let cached = PrecedenceGraph::build_with_base_cache(&arena, &hm, &hb_pre, &cache);
                assert_cone_matches(&scratch, &cached);
                assert_eq!(
                    cache.edge_count(prefix),
                    scratch.edges().iter().filter(|(_, _, k)| *k == EdgeKind::BaseConflict).count()
                );
            }
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.edge_count(6), 0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_builds() {
        let ex = crate::fixtures::example1();
        let mut cache = BaseEdgeCache::new();
        cache.sync(&ex.arena, &ex.hb);
        let mut scratch = GraphScratch::new();
        // Reuse one scratch across from-scratch, cached, and shrunk builds;
        // every graph must match its fresh-scratch twin edge-for-edge.
        for _ in 0..3 {
            let fresh = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
            let reused =
                PrecedenceGraph::build_with_scratch(&ex.arena, &ex.hm, &ex.hb, &mut scratch);
            assert_eq!(fresh.edges(), reused.edges());
            assert_eq!(fresh.nodes(), reused.nodes());
            let fresh_cone =
                PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
            let cached = PrecedenceGraph::build_with_base_cache_scratch(
                &ex.arena,
                &ex.hm,
                &ex.hb,
                &cache,
                &mut scratch,
            );
            assert_eq!(fresh_cone.nodes(), cached.nodes());
            assert_eq!(fresh_cone.edges(), cached.edges());
            assert_cone_matches(&fresh, &cached);
            // A smaller build right after must not see stale entries.
            let small = PrecedenceGraph::build_with_scratch(
                &ex.arena,
                &SerialHistory::from_order([ex.m[0]]),
                &SerialHistory::new(),
                &mut scratch,
            );
            assert!(small.edges().is_empty());
            assert_eq!(small.nodes(), &[ex.m[0]]);
        }
    }

    #[test]
    #[should_panic(expected = "behind the base history")]
    fn stale_cache_is_rejected() {
        let ex = crate::fixtures::example1();
        let cache = BaseEdgeCache::new();
        let _ = PrecedenceGraph::build_with_base_cache(&ex.arena, &ex.hm, &ex.hb, &cache);
    }

    #[test]
    fn self_history_conflicts_only_forward() {
        // Within one history the graph restricted to it is always acyclic
        // (edges follow the serial order).
        let mut arena = TxnArena::new();
        let a = rw_txn(&mut arena, "a", TxnKind::Tentative, &[0], &[0]);
        let b = rw_txn(&mut arena, "b", TxnKind::Tentative, &[0], &[0]);
        let c = rw_txn(&mut arena, "c", TxnKind::Tentative, &[0], &[0]);
        let g = PrecedenceGraph::build(
            &arena,
            &SerialHistory::from_order([a, b, c]),
            &SerialHistory::new(),
        );
        assert!(g.is_acyclic());
        assert_eq!(g.merged_history().unwrap().order(), &[a, b, c]);
    }
}
