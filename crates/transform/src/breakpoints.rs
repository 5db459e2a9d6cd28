//! Breakpoint selection: `ChooseBP` (Figure 5) and `ChooseMaxMP`
//! (Figure 6).
//!
//! Both procedures decompose an attribute's active domain into pieces;
//! the output here is a [`PiecePlan`] — ranges over the attribute's
//! ascending distinct values ([`DomainLabels`]), each flagged as
//! monochromatic (eligible for an arbitrary bijection) or not
//! (restricted to a direction-consistent monotone function).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use ppdt_data::{ClassId, DomainLabels, MonoAnalysis};

/// How an attribute's domain is decomposed into pieces.
///
/// # Example
/// ```
/// use ppdt_transform::{BreakpointStrategy, EncodeConfig, Encoder};
/// use rand::SeedableRng;
///
/// let d = ppdt_data::gen::figure1();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// // The paper's recommended strategy: maximal monochromatic pieces,
/// // topped up to at least `w` pieces with random breakpoints.
/// let config = EncodeConfig {
///     strategy: BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 2 },
///     ..Default::default()
/// };
/// let (key, _d_prime) = Encoder::new(config).encode(&mut rng, &d).unwrap().into_parts();
/// // ChooseBP instead draws `w` uniform breakpoints.
/// let config = EncodeConfig {
///     strategy: BreakpointStrategy::ChooseBP { w: 4 },
///     ..Default::default()
/// };
/// let (key_bp, _d_prime) = Encoder::new(config).encode(&mut rng, &d).unwrap().into_parts();
/// # let _ = (key, key_bp);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BreakpointStrategy {
    /// A single piece over the whole domain (the Figure 9 baseline:
    /// one plain (anti-)monotone function).
    None,
    /// `ChooseBP`: `w` breakpoints drawn uniformly from the distinct
    /// values (Figure 5). All resulting pieces are treated as
    /// non-monochromatic. Its privacy power is that neither `w` nor
    /// the locations are known to the hacker — `O(2^N)` combinations.
    ChooseBP {
        /// Number of random breakpoints.
        w: usize,
    },
    /// `ChooseMaxMP`: grow every monochromatic value into a maximal
    /// monochromatic piece (Figure 6); non-monochromatic gaps become
    /// monotone pieces, further cut with random breakpoints if fewer
    /// than `w` pieces resulted. Monochromatic pieces take arbitrary
    /// bijections — `O(N!)` combinations for the hacker.
    ChooseMaxMP {
        /// Desired minimum number of breakpoints.
        w: usize,
        /// Minimum monochromatic piece width (the paper suggests 5).
        min_piece_len: usize,
    },
}

/// One planned piece: a range of distinct-value groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PiecePlan {
    /// First distinct-value group (inclusive).
    pub first_group: usize,
    /// Last distinct-value group (exclusive).
    pub end_group: usize,
    /// `Some(label)` iff the piece is monochromatic.
    pub mono_label: Option<ClassId>,
}

impl PiecePlan {
    /// Number of distinct values in the piece.
    pub fn len(&self) -> usize {
        self.end_group - self.first_group
    }

    /// Pieces are never planned empty; mirrors the std convention.
    pub fn is_empty(&self) -> bool {
        self.first_group == self.end_group
    }
}

/// Plans the pieces of one attribute under `strategy`.
///
/// Returns pieces in ascending group order, covering every distinct
/// value exactly once. Returns an empty plan for an empty column.
pub fn plan_pieces<R: Rng + ?Sized>(
    rng: &mut R,
    domain: &DomainLabels,
    strategy: BreakpointStrategy,
) -> Vec<PiecePlan> {
    let n = domain.len();
    if n == 0 {
        return Vec::new();
    }
    match strategy {
        BreakpointStrategy::None => {
            vec![PiecePlan { first_group: 0, end_group: n, mono_label: None }]
        }
        BreakpointStrategy::ChooseBP { w } => {
            let cuts = random_cuts(rng, 1..n, w);
            pieces_from_cuts(n, &cuts)
        }
        BreakpointStrategy::ChooseMaxMP { w, min_piece_len } => {
            let ma = MonoAnalysis::from_labels(domain.labels(), min_piece_len.max(1));
            let mut pieces: Vec<PiecePlan> = Vec::new();
            let mut next = 0usize;
            for mp in &ma.pieces {
                if mp.first_group > next {
                    pieces.push(PiecePlan {
                        first_group: next,
                        end_group: mp.first_group,
                        mono_label: None,
                    });
                }
                pieces.push(PiecePlan {
                    first_group: mp.first_group,
                    end_group: mp.end_group,
                    mono_label: Some(mp.label),
                });
                next = mp.end_group;
            }
            if next < n {
                pieces.push(PiecePlan { first_group: next, end_group: n, mono_label: None });
            }

            // Fewer pieces than requested: cut the non-monochromatic
            // pieces further at random positions (lines 18-20 of
            // Figure 6).
            let deficit = w.saturating_sub(pieces.len());
            if deficit > 0 {
                let mut candidates: Vec<usize> = Vec::new();
                for p in &pieces {
                    if p.mono_label.is_none() {
                        candidates.extend(p.first_group + 1..p.end_group);
                    }
                }
                ppdt_obs::add(ppdt_obs::Counter::BoundariesScanned, candidates.len() as u64);
                candidates.shuffle(rng);
                candidates.truncate(deficit);
                candidates.sort_unstable();
                if !candidates.is_empty() {
                    pieces = cut_plan(&pieces, &candidates);
                }
            }
            pieces
        }
    }
}

/// Draws up to `w` distinct cut positions from `range`.
fn random_cuts<R: Rng + ?Sized>(
    rng: &mut R,
    range: std::ops::Range<usize>,
    w: usize,
) -> Vec<usize> {
    let mut all: Vec<usize> = range.collect();
    ppdt_obs::add(ppdt_obs::Counter::BoundariesScanned, all.len() as u64);
    all.shuffle(rng);
    all.truncate(w);
    all.sort_unstable();
    all
}

/// Builds non-monochromatic pieces from sorted cut positions.
fn pieces_from_cuts(n: usize, cuts: &[usize]) -> Vec<PiecePlan> {
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0usize;
    for &c in cuts {
        debug_assert!(c > start && c < n);
        pieces.push(PiecePlan { first_group: start, end_group: c, mono_label: None });
        start = c;
    }
    pieces.push(PiecePlan { first_group: start, end_group: n, mono_label: None });
    pieces
}

/// Splits the non-monochromatic pieces of `plan` at the given (sorted,
/// globally indexed) cut positions.
fn cut_plan(plan: &[PiecePlan], cuts: &[usize]) -> Vec<PiecePlan> {
    let mut out = Vec::with_capacity(plan.len() + cuts.len());
    let mut ci = 0usize;
    for p in plan {
        if p.mono_label.is_some() {
            // Skip cuts that would fall inside a monochromatic piece
            // (the candidate list never contains them, but stay safe).
            while ci < cuts.len() && cuts[ci] < p.end_group {
                ci += 1;
            }
            out.push(*p);
            continue;
        }
        let mut start = p.first_group;
        while ci < cuts.len() && cuts[ci] > start && cuts[ci] < p.end_group {
            out.push(PiecePlan { first_group: start, end_group: cuts[ci], mono_label: None });
            start = cuts[ci];
            ci += 1;
        }
        out.push(PiecePlan { first_group: start, end_group: p.end_group, mono_label: None });
    }
    out
}

/// Checks a plan is a partition of `0..n` into nonempty pieces.
pub fn plan_is_partition(plan: &[PiecePlan], n: usize) -> bool {
    if n == 0 {
        return plan.is_empty();
    }
    if plan.is_empty() || plan[0].first_group != 0 || plan[plan.len() - 1].end_group != n {
        return false;
    }
    plan.iter().all(|p| p.first_group < p.end_group)
        && plan.windows(2).all(|w| w[0].end_group == w[1].first_group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdt_data::{AttrId, ClassId, Dataset, DatasetBuilder, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's running example (Figures 3/4/7).
    fn paper_example() -> Dataset {
        let schema = Schema::new(["a"], ["H", "L"]);
        let mut b = DatasetBuilder::new(schema);
        let rows = [
            (1.0, 0u16),
            (2.0, 0),
            (15.0, 0),
            (15.0, 0),
            (27.0, 1),
            (28.0, 1),
            (29.0, 1),
            (29.0, 1),
            (29.0, 0),
            (29.0, 0),
            (42.0, 0),
            (43.0, 0),
            (44.0, 0),
        ];
        for (v, c) in rows {
            b.push_row(&[v], ClassId(c));
        }
        b.build()
    }

    #[test]
    fn none_gives_single_piece() {
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(1);
        let plan = plan_pieces(&mut rng, dom, BreakpointStrategy::None);
        assert_eq!(plan.len(), 1);
        assert!(plan_is_partition(&plan, dom.len()));
        assert_eq!(plan[0].mono_label, None);
    }

    #[test]
    fn choosebp_produces_w_plus_one_pieces() {
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(2);
        let plan = plan_pieces(&mut rng, dom, BreakpointStrategy::ChooseBP { w: 3 });
        assert_eq!(plan.len(), 4);
        assert!(plan_is_partition(&plan, dom.len()));
        assert!(plan.iter().all(|p| p.mono_label.is_none()));
    }

    #[test]
    fn choosebp_caps_at_available_cuts() {
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(3);
        // Only 8 interior cut positions exist (9 distinct values).
        let plan = plan_pieces(&mut rng, dom, BreakpointStrategy::ChooseBP { w: 100 });
        assert_eq!(plan.len(), 9);
        assert!(plan_is_partition(&plan, dom.len()));
    }

    #[test]
    fn choosemaxmp_matches_paper_walkthrough() {
        // Section 5.2 walkthrough: pieces r1={1,2,15} (H), r2={27,28}
        // (L), r3={29} (non-mono), r4={42,43,44} (H).
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(4);
        let plan =
            plan_pieces(&mut rng, dom, BreakpointStrategy::ChooseMaxMP { w: 0, min_piece_len: 1 });
        assert!(plan_is_partition(&plan, dom.len()));
        let labels: Vec<Option<u16>> = plan.iter().map(|p| p.mono_label.map(|c| c.0)).collect();
        assert_eq!(labels, vec![Some(0), Some(1), None, Some(0)]);
        let lens: Vec<usize> = plan.iter().map(PiecePlan::len).collect();
        assert_eq!(lens, vec![3, 2, 1, 3]);
    }

    #[test]
    fn choosemaxmp_pads_with_random_cuts() {
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(5);
        // min_piece_len 10 disables mono pieces entirely, forcing the
        // random-cut fallback over the whole (non-mono) domain.
        let plan =
            plan_pieces(&mut rng, dom, BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 10 });
        assert!(plan_is_partition(&plan, dom.len()));
        assert!(plan.len() >= 4, "got {} pieces", plan.len());
        assert!(plan.iter().all(|p| p.mono_label.is_none()));
    }

    #[test]
    fn choosemaxmp_never_cuts_inside_mono_pieces() {
        let d = paper_example();
        let dom = d.domain_labels(AttrId(0));
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = plan_pieces(
                &mut rng,
                dom,
                BreakpointStrategy::ChooseMaxMP { w: 8, min_piece_len: 1 },
            );
            assert!(plan_is_partition(&plan, dom.len()), "seed {seed}");
            // The three mono pieces must appear intact.
            let monos: Vec<(usize, usize)> = plan
                .iter()
                .filter(|p| p.mono_label.is_some())
                .map(|p| (p.first_group, p.end_group))
                .collect();
            assert_eq!(monos, vec![(0, 3), (3, 5), (6, 9)], "seed {seed}");
        }
    }

    #[test]
    fn empty_column_gives_empty_plan() {
        let d = Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        let dom = d.domain_labels(AttrId(0));
        let mut rng = StdRng::seed_from_u64(6);
        for strat in [
            BreakpointStrategy::None,
            BreakpointStrategy::ChooseBP { w: 3 },
            BreakpointStrategy::ChooseMaxMP { w: 3, min_piece_len: 1 },
        ] {
            assert!(plan_pieces(&mut rng, dom, strat).is_empty());
        }
    }
}
