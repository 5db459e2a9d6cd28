//! The decision-tree builder: C4.5-style stopping rules and
//! threshold policies over a presorted, breadth-first split search.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use ppdt_data::{AttrId, ClassId, Dataset};

use crate::split::{CandidatePolicy, SplitCriterion};
use crate::tree::{DecisionTree, Node};

/// How the numeric split threshold is materialized from the winning
/// boundary between two distinct values `v_left < v_right`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdPolicy {
    /// `threshold = v_left`, as C4.5 does ("the largest value not
    /// exceeding the midpoint" of the boundary). With this policy the
    /// threshold is always a data value, so decoding is the pointwise
    /// inverse transformation and Theorem 2 equality is exact.
    DataValue,
    /// `threshold = (v_left + v_right)/2`, as CART does. Decoding a
    /// midpoint threshold under a nonlinear transformation needs the
    /// data-aware decoder (`ppdt-transform` provides it).
    Midpoint,
}

/// Builder hyperparameters (C4.5-style stopping rules).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Split-selection criterion.
    pub criterion: SplitCriterion,
    /// Threshold materialization policy.
    pub threshold_policy: ThresholdPolicy,
    /// Candidate-boundary enumeration policy.
    pub candidate_policy: CandidatePolicy,
    /// Maximum tree depth (`usize::MAX` for unbounded).
    pub max_depth: usize,
    /// Minimum tuples required to attempt a split.
    pub min_samples_split: u32,
    /// Minimum tuples in each child.
    pub min_samples_leaf: u32,
    /// Minimum impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: SplitCriterion::Gini,
            threshold_policy: ThresholdPolicy::DataValue,
            candidate_policy: CandidatePolicy::RunBoundaries,
            max_depth: usize::MAX,
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_impurity_decrease: 0.0,
        }
    }
}

impl TreeParams {
    /// Parameters with the given criterion, rest default.
    pub fn with_criterion(criterion: SplitCriterion) -> Self {
        TreeParams { criterion, ..Default::default() }
    }
}

/// Builds decision trees from a [`Dataset`].
///
/// ```
/// use ppdt_data::gen::figure1;
/// use ppdt_tree::{SplitCriterion, TreeBuilder, TreeParams};
///
/// let d = figure1();
/// let tree = TreeBuilder::new(TreeParams::with_criterion(SplitCriterion::Gini)).fit(&d);
/// assert_eq!(tree.accuracy(&d), 1.0);
/// assert!(tree.paths().len() >= 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    params: TreeParams,
    /// Explicit worker-thread count for the parallel split search;
    /// `None` resolves through [`ppdt_obs::threads`] (the
    /// `PPDT_THREADS` override, then hardware parallelism).
    pub(crate) threads: Option<usize>,
}

/// Below this many histogram cells (`rows × attributes`) per level
/// scan, thread-spawn overhead exceeds the scan itself and the
/// builder stays serial even when more workers are available. The
/// emitted tree never depends on this gate — only wall-clock does.
pub(crate) const PARALLEL_MIN_CELLS: usize = 8192;

impl TreeBuilder {
    /// A builder with the given parameters.
    pub fn new(params: TreeParams) -> Self {
        TreeBuilder { params, threads: None }
    }

    /// Sets the worker-thread count for split search in [`fit`]. `None`
    /// (the default) resolves via [`ppdt_obs::threads`]: the
    /// `PPDT_THREADS` environment override, else available hardware
    /// parallelism. Thread count never changes
    /// the emitted tree — parallel split search is bit-identical to
    /// serial (see `tests/parallel_serial.rs`).
    ///
    /// [`fit`]: TreeBuilder::fit
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The builder's parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Trains a tree on `d`.
    ///
    /// The algorithm is the greedy construction the paper's Section 4
    /// reasons about: at each node, evaluate candidate boundaries
    /// between label runs (Lemma 2) on every attribute, pick the
    /// attribute/boundary with the lowest weighted child impurity
    /// (first-wins tie-breaking on exact score equality, so the choice
    /// is a pure function of class counts), and split.
    ///
    /// The tree grows breadth-first over presorted attributes
    /// (SLIQ/SPRINT style). Each attribute is sorted **once**, globally
    /// (`O(m · n log n)` total). Each level then scans every
    /// attribute's sorted order in one `O(m · n)` pass: a row is
    /// dispatched to its current node, and each active node keeps its
    /// own incremental group/boundary state and class histograms in
    /// flat arenas that are reused across levels.
    ///
    /// The per-level scan fans out **attribute-wise** over scoped
    /// worker threads (the same pattern as `Encoder::threads`): each
    /// worker scans a contiguous ascending range of attributes with
    /// strict `<` first-wins and records each node's best candidate in
    /// its own arena slices. A serial reduction merges the per-range
    /// winners in ascending attribute order with the same strict `<`,
    /// so the attr-major first-wins tie-break is preserved bit for bit
    /// and the emitted tree is independent of the thread count (see
    /// `tests/parallel_serial.rs`).
    ///
    /// # Panics
    /// Panics on an empty dataset — there is nothing to fit.
    pub fn fit(&self, d: &Dataset) -> DecisionTree {
        assert!(d.num_rows() > 0, "cannot fit a tree on an empty dataset");
        assert!(
            d.num_rows() <= u32::MAX as usize,
            "row count exceeds the u32 index space used by the mining layer"
        );
        let _t = ppdt_obs::phase("mine");
        let p = self.params;
        let n = d.num_rows();
        let k = d.num_classes();
        let m = d.num_attrs();
        let threads = ppdt_obs::threads(self.threads).min(m).max(1);
        ppdt_obs::record_max(ppdt_obs::Counter::MiningThreads, threads as u64);

        // One global sort per attribute. Stability does not matter for
        // the scan (only group histograms are consumed), so the shared
        // helper's index tie-break is merely a determinism bonus.
        let orders: Vec<Vec<u32>> = (0..m)
            .map(|a| {
                let col = d.column(AttrId(a));
                let mut order = Vec::new();
                ppdt_data::sorted_order_by_value(col, |&v| v, &mut order)
                    .expect("row count fits u32 (asserted at fit entry)");
                order
            })
            .collect();

        let mut root_counts = vec![0u32; k];
        for c in d.labels() {
            root_counts[c.index()] += 1;
        }
        let mut nodes = vec![WorkNode { counts: root_counts, depth: 0, split: None }];
        let mut node_of_row = vec![0u32; n];
        // The frontier: the nodes created by the previous level.
        let mut level = 0..1;

        // Per-level working memory, reused (not reallocated) across
        // levels. The histogram/meta/best arenas hold `workers`
        // disjoint sub-arenas split via `chunks_mut`.
        let workers = if threads > 1 && n * m >= PARALLEL_MIN_CELLS { threads } else { 1 };
        let chunk_len = m.div_ceil(workers);
        let nw = m.div_ceil(chunk_len);
        let mut active_ids: Vec<u32> = Vec::new();
        let mut slot_of_node: Vec<u32> = Vec::new();
        let mut totals: Vec<u32> = Vec::new();
        let mut left_arena: Vec<u32> = Vec::new();
        let mut pending_arena: Vec<u32> = Vec::new();
        let mut meta_arena: Vec<NodeScan> = Vec::new();
        let mut best_arena: Vec<Option<BestSplit>> = Vec::new();
        let mut scan_slots: Vec<u64> = vec![0; nw];
        let mut right_buf = Vec::with_capacity(k);
        let mut pool_hits = 0u64;
        let mut scan_rows = 0u64;

        loop {
            // Active nodes: frontier nodes that may still split.
            active_ids.clear();
            totals.clear();
            for id in level.clone() {
                let node = &nodes[id];
                let total: u32 = node.counts.iter().sum();
                let impurity = p.criterion.impurity(&node.counts, total);
                if impurity > 0.0 && node.depth < p.max_depth && total >= p.min_samples_split {
                    active_ids.push(id as u32);
                    totals.push(total);
                }
            }
            if active_ids.is_empty() {
                break;
            }
            let n_active = active_ids.len();
            slot_of_node.clear();
            slot_of_node.resize(nodes.len(), u32::MAX);
            for (slot, &nid) in active_ids.iter().enumerate() {
                slot_of_node[nid as usize] = slot as u32;
            }

            reuse_arena(&mut left_arena, nw * n_active * k, 0, &mut pool_hits);
            reuse_arena(&mut pending_arena, nw * n_active * k, 0, &mut pool_hits);
            reuse_arena(&mut meta_arena, nw * n_active, NodeScan::EMPTY, &mut pool_hits);
            reuse_arena(&mut best_arena, nw * n_active, None, &mut pool_hits);

            // Scan each attribute once; per-node incremental state.
            // One worker per contiguous ascending attribute range,
            // each confined to its own arena slices.
            let view = LevelView {
                d,
                p: &p,
                orders: &orders,
                node_of_row: &node_of_row,
                slot_of_node: &slot_of_node,
                nodes: &nodes,
                totals: &totals,
                active_ids: &active_ids,
            };
            if nw == 1 {
                scan_slots[0] = view.scan(
                    0..m,
                    &mut left_arena,
                    &mut pending_arena,
                    &mut meta_arena,
                    &mut best_arena,
                    &mut right_buf,
                );
            } else {
                let result = crossbeam::thread::scope(|scope| {
                    let iter = left_arena
                        .chunks_mut(n_active * k)
                        .zip(pending_arena.chunks_mut(n_active * k))
                        .zip(meta_arena.chunks_mut(n_active))
                        .zip(best_arena.chunks_mut(n_active))
                        .zip(scan_slots.iter_mut())
                        .enumerate();
                    for (t, ((((left, pending), meta), best), scanned)) in iter {
                        let start = t * chunk_len;
                        let end = (start + chunk_len).min(m);
                        scope.spawn(move |_| {
                            let mut right_buf = Vec::with_capacity(k);
                            *scanned =
                                view.scan(start..end, left, pending, meta, best, &mut right_buf);
                        });
                    }
                });
                if let Err(payload) = result {
                    // `fit` is a panicking API: surface the worker's
                    // payload unchanged on this thread.
                    std::panic::resume_unwind(payload);
                }
            }
            scan_rows += scan_slots.iter().sum::<u64>();

            // Serial reduction: merge per-worker winners in ascending
            // attribute-range order with the same strict `<`, which is
            // the serial attr-major first-wins order. Accepted splits
            // get two children, which form the next frontier.
            let level_end = nodes.len();
            for (slot, &nid) in active_ids.iter().enumerate() {
                let mut merged: Option<BestSplit> = None;
                for w in 0..nw {
                    if let Some(cand) = best_arena[w * n_active + slot] {
                        if merged.as_ref().is_none_or(|b| cand.score < b.score) {
                            merged = Some(cand);
                        }
                    }
                }
                let node = &nodes[nid as usize];
                let impurity = p.criterion.impurity(&node.counts, totals[slot]);
                let depth = node.depth + 1;
                if let Some(best) = merged.filter(|b| impurity - b.score > p.min_impurity_decrease)
                {
                    let left_id = nodes.len();
                    for _ in 0..2 {
                        nodes.push(WorkNode { counts: vec![0; k], depth, split: None });
                    }
                    nodes[nid as usize].split = Some((best, left_id));
                }
            }
            level = level_end..nodes.len();

            // Repartition: rows of a node split this level move to its
            // children (every other row's node is unsplit).
            for (row, slot) in node_of_row.iter_mut().enumerate() {
                if let Some((split, left_id)) = nodes[*slot as usize].split {
                    let child = if d.value(row, split.attr) <= split.left_value {
                        left_id
                    } else {
                        left_id + 1
                    };
                    *slot = child as u32;
                    nodes[child].counts[d.label(row).index()] += 1;
                }
            }
        }

        ppdt_obs::add(ppdt_obs::Counter::SplitScanRows, scan_rows);
        ppdt_obs::add(ppdt_obs::Counter::PoolReuseHits, pool_hits);
        DecisionTree {
            root: materialize(&nodes, 0, p.threshold_policy),
            num_classes: k,
            criterion: p.criterion,
        }
    }
}

/// Split-search state for one active node while scanning one
/// attribute's sorted order. `Copy` so a level's states live in one
/// flat arena refilled with `slice::fill` — no per-node allocation.
/// The node's class histograms live in separate flat arenas indexed by
/// the same slot.
#[derive(Clone, Copy)]
struct NodeScan {
    /// Rows seen so far (0 until the scan reaches the node).
    left_n: u32,
    /// Value of the group currently being consumed.
    cur_value: f64,
    /// Single label of the current group, while it is monochromatic.
    cur_mono: Option<ClassId>,
    /// Pending boundary between the previous and current group,
    /// evaluable once the current group completes (the boundary's
    /// right-group mono status is `cur_mono` at that moment).
    pending: Option<PendingMeta>,
}

impl NodeScan {
    const EMPTY: NodeScan =
        NodeScan { left_n: 0, cur_value: f64::NAN, cur_mono: None, pending: None };
}

/// A pending boundary's scalar state; its left-histogram snapshot
/// lives in the pending arena at the node's slot.
#[derive(Clone, Copy)]
struct PendingMeta {
    /// Rows on the left of the boundary.
    left_n: u32,
    /// Largest value on the left.
    left_value: f64,
    /// Smallest value on the right.
    right_value: f64,
    /// Mono label of the group left of the boundary.
    left_group_mono: Option<ClassId>,
}

/// Best split found for a node so far (attr-major, then boundary-major
/// first-wins tie-breaking, matching `best_split_sorted`).
#[derive(Clone, Copy)]
struct BestSplit {
    attr: AttrId,
    score: f64,
    left_value: f64,
    right_value: f64,
}

/// One node of the growing tree.
struct WorkNode {
    /// Class histogram of the node's rows.
    counts: Vec<u32>,
    depth: usize,
    /// The accepted split and its left child's id (the right child
    /// is the next id).
    split: Option<(BestSplit, usize)>,
}

/// Clears and refills a reusable arena, counting a pool hit when the
/// existing capacity was enough (no fresh allocation).
fn reuse_arena<T: Copy>(arena: &mut Vec<T>, len: usize, fill: T, pool_hits: &mut u64) {
    if arena.capacity() >= len && !arena.is_empty() {
        *pool_hits += 1;
    }
    arena.clear();
    arena.resize(len, fill);
}

/// Read-only inputs every worker shares while scanning one level.
#[derive(Clone, Copy)]
struct LevelView<'a> {
    d: &'a Dataset,
    p: &'a TreeParams,
    /// Each attribute's global sorted order of row indices.
    orders: &'a [Vec<u32>],
    /// Current node of every row.
    node_of_row: &'a [u32],
    /// Arena slot of each active node; `u32::MAX` for the others.
    slot_of_node: &'a [u32],
    nodes: &'a [WorkNode],
    /// Row count of each active node, by slot.
    totals: &'a [u32],
    /// Node id of each slot.
    active_ids: &'a [u32],
}

impl LevelView<'_> {
    /// One worker's per-level scan: every attribute in `attrs`
    /// (ascending), dispatching each presorted row to its node's slot
    /// and maintaining the incremental group/boundary state in the
    /// worker's arena slices. Returns the number of `(row, attribute)`
    /// visits performed.
    fn scan(
        &self,
        attrs: Range<usize>,
        left: &mut [u32],
        pending_left: &mut [u32],
        meta: &mut [NodeScan],
        best: &mut [Option<BestSplit>],
        right_buf: &mut Vec<u32>,
    ) -> u64 {
        let (d, p) = (self.d, self.p);
        let k = d.num_classes();
        let mut scanned = 0u64;
        for a in attrs {
            let attr = AttrId(a);
            let col = d.column(attr);
            left.fill(0);
            meta.fill(NodeScan::EMPTY);

            for &row in &self.orders[a] {
                let nid = self.node_of_row[row as usize] as usize;
                let slot = self.slot_of_node[nid];
                if slot == u32::MAX {
                    continue;
                }
                let slot = slot as usize;
                scanned += 1;
                let v = col[row as usize];
                let c = d.label(row as usize);
                let hist = slot * k..(slot + 1) * k;
                let st = &mut meta[slot];

                if st.left_n > 0 && v != st.cur_value {
                    // The current group just completed: its mono status
                    // is final, so the pending boundary (to its left) is
                    // now evaluable.
                    if let Some(pm) = st.pending.take() {
                        score_boundary(
                            &pending_left[hist.clone()],
                            &pm,
                            st.cur_mono,
                            &self.nodes[nid].counts,
                            self.totals[slot],
                            p,
                            attr,
                            &mut best[slot],
                            right_buf,
                        );
                    }
                    // The boundary after the completed group becomes
                    // pending; snapshot the left histogram at this point.
                    pending_left[hist.clone()].copy_from_slice(&left[hist.clone()]);
                    st.pending = Some(PendingMeta {
                        left_n: st.left_n,
                        left_value: st.cur_value,
                        right_value: v,
                        left_group_mono: st.cur_mono,
                    });
                    st.cur_value = v;
                    st.cur_mono = Some(c);
                } else if st.left_n == 0 {
                    st.cur_value = v;
                    st.cur_mono = Some(c);
                } else if st.cur_mono != Some(c) {
                    st.cur_mono = None;
                }

                left[slot * k + c.index()] += 1;
                st.left_n += 1;
            }

            // Scan end: each node's last pending boundary is evaluable
            // (its right group — the node's final group — has completed).
            for (slot, st) in meta.iter_mut().enumerate() {
                if let Some(pm) = st.pending.take() {
                    let nid = self.active_ids[slot] as usize;
                    score_boundary(
                        &pending_left[slot * k..(slot + 1) * k],
                        &pm,
                        st.cur_mono,
                        &self.nodes[nid].counts,
                        self.totals[slot],
                        p,
                        attr,
                        &mut best[slot],
                        right_buf,
                    );
                }
            }
        }
        scanned
    }
}

/// Scores one candidate boundary against the node's running best,
/// replicating `best_split_sorted`'s candidate filter and strict
/// first-wins tie-breaking (boundaries arrive in order; attributes in
/// order within each worker; workers merge in order).
#[allow(clippy::too_many_arguments)]
fn score_boundary(
    pending_left: &[u32],
    pm: &PendingMeta,
    right_group_mono: Option<ClassId>,
    node_counts: &[u32],
    total: u32,
    p: &TreeParams,
    attr: AttrId,
    best: &mut Option<BestSplit>,
    right_buf: &mut Vec<u32>,
) {
    let inside_run = match p.candidate_policy {
        CandidatePolicy::AllBoundaries => false,
        CandidatePolicy::RunBoundaries => {
            matches!((pm.left_group_mono, right_group_mono), (Some(a), Some(b)) if a == b)
        }
    };
    let left_n = pm.left_n;
    let right_n = total - left_n;
    if inside_run || left_n < p.min_samples_leaf || right_n < p.min_samples_leaf {
        return;
    }
    right_buf.clear();
    right_buf.extend(node_counts.iter().zip(pending_left).map(|(&t, &l)| t - l));
    let score = (f64::from(left_n) * p.criterion.impurity(pending_left, left_n)
        + f64::from(right_n) * p.criterion.impurity(right_buf, right_n))
        / f64::from(total);
    if best.as_ref().is_none_or(|b| score < b.score) {
        *best =
            Some(BestSplit { attr, score, left_value: pm.left_value, right_value: pm.right_value });
    }
}

fn materialize(nodes: &[WorkNode], id: usize, policy: ThresholdPolicy) -> Node {
    let node = &nodes[id];
    let class_counts = node.counts.clone();
    match node.split {
        Some((split, left_id)) => {
            let threshold = match policy {
                ThresholdPolicy::DataValue => split.left_value,
                ThresholdPolicy::Midpoint => 0.5 * (split.left_value + split.right_value),
            };
            Node::Split {
                attr: split.attr,
                threshold,
                class_counts,
                left: Box::new(materialize(nodes, left_id, policy)),
                right: Box::new(materialize(nodes, left_id + 1, policy)),
            }
        }
        None => {
            // Majority label; the lowest class id wins ties.
            let mut label = 0usize;
            for (i, &c) in class_counts.iter().enumerate() {
                if c > class_counts[label] {
                    label = i;
                }
            }
            Node::Leaf { label: ClassId(label as u16), class_counts }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{tree_diff, trees_equal};
    use crate::split::{best_split_sorted, AttrSplit};
    use ppdt_data::gen::{census_like, figure1, random_dataset, RandomDatasetConfig};
    use ppdt_data::{DatasetBuilder, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fits_figure1_exactly() {
        let d = figure1();
        let t = TreeBuilder::default().fit(&d);
        // The tree must classify its own training data perfectly: the
        // data is separable (no contradictory duplicate tuples).
        assert_eq!(t.accuracy(&d), 1.0);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for v in 0..10 {
            b.push_row(&[v as f64], ClassId(0));
        }
        let d = b.build();
        let t = TreeBuilder::default().fit(&d);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[3.0]), ClassId(0));
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let d = figure1();
        let params = TreeParams { max_depth: 0, ..Default::default() };
        let t = TreeBuilder::new(params).fit(&d);
        assert_eq!(t.num_nodes(), 1);
        // 4 High vs 2 Low -> predicts High everywhere.
        assert_eq!(t.predict(&[0.0, 0.0]), ClassId(0));
    }

    #[test]
    fn min_samples_leaf_bounds_leaf_sizes() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for v in 0..40 {
            b.push_row(&[v as f64], ClassId((v % 2) as u16));
        }
        let d = b.build();
        let params = TreeParams { min_samples_leaf: 8, ..Default::default() };
        let t = TreeBuilder::new(params).fit(&d);
        for p in t.paths() {
            assert!(p.count >= 8, "leaf with {} tuples", p.count);
        }
    }

    #[test]
    fn threshold_policies_differ_but_agree_on_predictions() {
        let d = figure1();
        let t1 = TreeBuilder::new(TreeParams {
            threshold_policy: ThresholdPolicy::DataValue,
            ..Default::default()
        })
        .fit(&d);
        let t2 = TreeBuilder::new(TreeParams {
            threshold_policy: ThresholdPolicy::Midpoint,
            ..Default::default()
        })
        .fit(&d);
        // Training-data predictions agree (both thresholds separate the
        // same two data values).
        assert_eq!(t1.accuracy(&d), 1.0);
        assert_eq!(t2.accuracy(&d), 1.0);
    }

    #[test]
    fn inseparable_duplicates_terminate() {
        // Identical tuples with conflicting labels: impurity can never
        // reach 0 and no split exists; the builder must terminate.
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for _ in 0..5 {
            b.push_row(&[1.0], ClassId(0));
            b.push_row(&[1.0], ClassId(1));
        }
        let d = b.build();
        let t = TreeBuilder::default().fit(&d);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn entropy_criterion_builds_consistent_tree() {
        let d = figure1();
        let t = TreeBuilder::new(TreeParams::with_criterion(SplitCriterion::Entropy)).fit(&d);
        assert_eq!(t.accuracy(&d), 1.0);
        assert_eq!(t.criterion, SplitCriterion::Entropy);
    }

    #[test]
    fn min_impurity_decrease_prunes_weak_splits() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        // 9 of class 0 on the left, then a mixed zone: a weak split.
        for v in 0..9 {
            b.push_row(&[v as f64], ClassId(0));
        }
        for v in 9..13 {
            b.push_row(&[v as f64], ClassId((v % 2) as u16));
        }
        let d = b.build();
        let strict = TreeParams { min_impurity_decrease: 0.45, ..Default::default() };
        let t = TreeBuilder::new(strict).fit(&d);
        assert_eq!(t.num_nodes(), 1, "weak splits rejected");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = ppdt_data::Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        let _ = TreeBuilder::default().fit(&d);
    }

    #[test]
    fn deterministic_rebuild() {
        let d = figure1();
        let t1 = TreeBuilder::default().fit(&d);
        let t2 = TreeBuilder::default().fit(&d);
        assert_eq!(t1, t2);
    }

    /// Serial reference miner: the textbook recursive greedy builder.
    /// Every node re-sorts its tuples per attribute, runs the Lemma 2
    /// search ([`best_split_sorted`]), and keeps the first attribute
    /// with the strictly lowest score. No threads, pools or presorting.
    fn reference_fit(d: &Dataset, p: &TreeParams) -> DecisionTree {
        let rows: Vec<usize> = (0..d.num_rows()).collect();
        let root = reference_grow(d, p, &rows, 0);
        DecisionTree { root, num_classes: d.num_classes(), criterion: p.criterion }
    }

    fn reference_grow(d: &Dataset, p: &TreeParams, rows: &[usize], depth: usize) -> Node {
        let mut counts = vec![0u32; d.num_classes()];
        for &r in rows {
            counts[d.label(r).index()] += 1;
        }
        let total = rows.len() as u32;
        let impurity = p.criterion.impurity(&counts, total);
        let mut best: Option<(AttrId, AttrSplit)> = None;
        if impurity > 0.0 && depth < p.max_depth && total >= p.min_samples_split {
            for a in d.schema().attrs() {
                let mut pairs: Vec<(f64, ClassId)> =
                    rows.iter().map(|&r| (d.value(r, a), d.label(r))).collect();
                pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
                let s = best_split_sorted(
                    &pairs,
                    d.num_classes(),
                    p.criterion,
                    p.candidate_policy,
                    p.min_samples_leaf,
                );
                if let Some(s) = s.filter(|s| best.is_none_or(|(_, b)| s.score < b.score)) {
                    best = Some((a, s));
                }
            }
        }
        match best.filter(|(_, s)| impurity - s.score > p.min_impurity_decrease) {
            Some((attr, s)) => {
                let (l, r): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| d.value(r, attr) <= s.left_value);
                let threshold = match p.threshold_policy {
                    ThresholdPolicy::DataValue => s.left_value,
                    ThresholdPolicy::Midpoint => 0.5 * (s.left_value + s.right_value),
                };
                let left = Box::new(reference_grow(d, p, &l, depth + 1));
                let right = Box::new(reference_grow(d, p, &r, depth + 1));
                Node::Split { attr, threshold, class_counts: counts, left, right }
            }
            None => {
                let label =
                    (0..counts.len()).fold(0, |b, i| if counts[i] > counts[b] { i } else { b });
                Node::Leaf { label: ClassId(label as u16), class_counts: counts }
            }
        }
    }

    /// `fit` at 1, 2 and 8 threads equals the serial reference.
    fn assert_matches_reference(d: &Dataset, params: TreeParams, label: &str) {
        let want = reference_fit(d, &params);
        for threads in [1, 2, 8] {
            let got = TreeBuilder::new(params).with_threads(Some(threads)).fit(d);
            assert!(
                trees_equal(&want, &got),
                "{label} at {threads} threads: {:?}",
                tree_diff(&want, &got, 0.0)
            );
        }
    }

    const CRITERIA: [SplitCriterion; 2] = [SplitCriterion::Gini, SplitCriterion::Entropy];
    const THRESHOLDS: [ThresholdPolicy; 2] =
        [ThresholdPolicy::DataValue, ThresholdPolicy::Midpoint];
    const CANDIDATES: [CandidatePolicy; 2] =
        [CandidatePolicy::RunBoundaries, CandidatePolicy::AllBoundaries];

    #[test]
    fn fit_matches_reference_on_seeded_random_data() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..40 {
            let cfg = RandomDatasetConfig {
                num_rows: 50 + trial * 13,
                num_attrs: 1 + trial % 4,
                num_classes: 2 + trial % 3,
                value_range: 3 + (trial as u64 * 5) % 40,
            };
            let d = random_dataset(&mut rng, &cfg);
            for criterion in CRITERIA {
                for threshold_policy in THRESHOLDS {
                    for candidate_policy in CANDIDATES {
                        for min_samples_leaf in 1..=3 {
                            let params = TreeParams {
                                criterion,
                                threshold_policy,
                                candidate_policy,
                                min_samples_leaf,
                                ..Default::default()
                            };
                            assert_matches_reference(
                                &d,
                                params,
                                &format!("trial {trial} {params:?}"),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fit_matches_reference_above_the_fanout_gate() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = census_like(&mut rng, 2_000);
        assert!(d.num_rows() * d.num_attrs() >= PARALLEL_MIN_CELLS, "workers must fan out");
        let stopping = [
            TreeParams { max_depth: 3, ..Default::default() },
            TreeParams { min_samples_split: 50, ..Default::default() },
            TreeParams { min_impurity_decrease: 0.05, ..Default::default() },
            TreeParams { min_samples_leaf: 25, ..Default::default() },
        ];
        for candidate_policy in CANDIDATES {
            for criterion in CRITERIA {
                for threshold_policy in THRESHOLDS {
                    let params = TreeParams {
                        criterion,
                        threshold_policy,
                        candidate_policy,
                        ..Default::default()
                    };
                    assert_matches_reference(&d, params, &format!("census {params:?}"));
                }
            }
            for params in stopping {
                let params = TreeParams { candidate_policy, ..params };
                assert_matches_reference(&d, params, &format!("census {params:?}"));
            }
        }
    }
}
