//! # ppdt-tree
//!
//! A from-scratch decision-tree learner for the `ppdt` workspace.
//!
//! The paper's no-outcome-change guarantee (Section 4) holds for any
//! greedy tree builder that selects splits by the **gini index** or
//! **entropy**, because both criteria depend only on class-count
//! aggregates over the label runs of each attribute's sorted order —
//! which the piecewise transformations preserve. This crate provides
//! exactly such a builder, plus everything the experiments need around
//! it:
//!
//! * [`split`] — impurity metrics and the run-boundary split search
//!   (Lemma 2: optimal split points never fall inside a label run),
//! * [`builder`] — the tree builder: one global sort per attribute,
//!   a breadth-first per-level split scan fanned out attribute-wise,
//!   C4.5-style stopping rules and threshold policies,
//! * [`tree`] — the tree structure, prediction, root-to-leaf path
//!   extraction (the unit of *output privacy* in Definition 3),
//! * [`decode`] — Theorem 2's construction: map each node's threshold
//!   through the custodian's inverse transformation,
//! * [`compare`] — exact and tolerant tree equality,
//! * [`prune`] — C4.5-style pessimistic error pruning (count-based,
//!   so pruning also commutes with the transformations).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod compare;
pub mod decode;
pub mod dot;
pub mod eval;
pub mod importance;
pub mod prune;
pub mod rules;
pub mod split;
pub mod tree;

pub use builder::{ThresholdPolicy, TreeBuilder, TreeParams};
pub use compare::{tree_diff, trees_equal, trees_equal_eps};
pub use decode::decode_tree;
pub use dot::to_dot;
pub use eval::{cross_validate, evaluate, subset, train_test_split, ConfusionMatrix};
pub use importance::{feature_importance, importance_ranking};
pub use prune::prune_pessimistic;
pub use rules::{extract_rules, render_rules, Rule};
pub use split::{CandidatePolicy, SplitCriterion};
pub use tree::{DecisionTree, Node, PathCondition, PathOp, TreePath};
