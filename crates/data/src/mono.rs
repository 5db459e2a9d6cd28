//! Monochromatic values and pieces (Definition 9) and discontinuity
//! analysis (Section 5.4).

use crate::dataset::SortedColumn;
use crate::schema::ClassId;

/// A maximal monochromatic piece: a run of consecutive *distinct*
/// values, all monochromatic with the same label.
///
/// Piece extents are expressed as ranges over the distinct values of
/// an attribute (the groups of a [`SortedColumn`]), matching the
/// paper's convention of measuring piece length in distinct values
/// (Figure 8 reports, e.g., 9 pieces of average length 163 covering
/// 74.2% of attribute 1's 1978 distinct values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonoPiece {
    /// First distinct-value group (inclusive).
    pub first_group: usize,
    /// Last distinct-value group (exclusive).
    pub end_group: usize,
    /// The common class label of the piece.
    pub label: ClassId,
}

impl MonoPiece {
    /// Piece length in distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.end_group - self.first_group
    }

    /// Pieces are never empty; mirrors the std convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first_group == self.end_group
    }
}

/// Monochromatic-structure analysis of one attribute.
///
/// ```
/// use ppdt_data::{gen, AttrId, MonoAnalysis};
///
/// let d = gen::figure1();
/// let sc = d.sorted_column(AttrId(1)); // salary: HHHH then LL
/// let ma = MonoAnalysis::analyze(&sc, 1);
/// assert_eq!(ma.num_pieces(), 2);
/// assert_eq!(ma.total_piece_values(), 6); // every value is monochromatic
/// ```
#[derive(Clone, Debug)]
pub struct MonoAnalysis {
    /// For each distinct-value group: `Some(label)` iff the value is
    /// monochromatic.
    pub group_labels: Vec<Option<ClassId>>,
    /// Maximal monochromatic pieces of at least the requested minimum
    /// width, in ascending value order.
    pub pieces: Vec<MonoPiece>,
    /// The minimum piece width used by the analysis.
    pub min_piece_len: usize,
}

impl MonoAnalysis {
    /// Analyzes the monochromatic structure of a sorted column: a thin
    /// wrapper over [`MonoAnalysis::from_labels`] with each group's
    /// [`monochromatic_label`](crate::DistinctGroup::monochromatic_label).
    pub fn analyze(sc: &SortedColumn, min_piece_len: usize) -> Self {
        let labels: Vec<Option<ClassId>> =
            sc.groups.iter().map(|g| g.monochromatic_label()).collect();
        Self::from_labels(&labels, min_piece_len)
    }

    /// Analyzes the monochromatic structure of an attribute from its
    /// per-distinct-value labels (`Some(label)` iff the value is
    /// monochromatic, in ascending value order — what
    /// [`DomainLabels::labels`](crate::DomainLabels::labels) holds).
    ///
    /// `min_piece_len` is the minimum width threshold of Section 5.2
    /// ("in practice, ChooseMaxMP may impose a minimum width threshold,
    /// e.g. width ≥ 5"): maximal runs of same-label monochromatic
    /// values shorter than the threshold are *not* reported as pieces
    /// (their values remain eligible as ordinary non-monochromatic
    /// material for the caller).
    pub fn from_labels(group_labels: &[Option<ClassId>], min_piece_len: usize) -> Self {
        assert!(min_piece_len >= 1, "min_piece_len must be at least 1");
        let mut pieces = Vec::new();
        let mut i = 0usize;
        while i < group_labels.len() {
            match group_labels[i] {
                None => i += 1,
                Some(label) => {
                    let start = i;
                    while i < group_labels.len() && group_labels[i] == Some(label) {
                        i += 1;
                    }
                    if i - start >= min_piece_len {
                        pieces.push(MonoPiece { first_group: start, end_group: i, label });
                    }
                }
            }
        }
        MonoAnalysis { group_labels: group_labels.to_vec(), pieces, min_piece_len }
    }

    /// Number of monochromatic pieces (of at least the minimum width).
    #[inline]
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Total number of distinct values covered by the pieces.
    pub fn total_piece_values(&self) -> usize {
        self.pieces.iter().map(MonoPiece::len).sum()
    }

    /// Mean piece length in distinct values (0 if there are no pieces).
    pub fn avg_piece_len(&self) -> f64 {
        if self.pieces.is_empty() {
            0.0
        } else {
            self.total_piece_values() as f64 / self.pieces.len() as f64
        }
    }

    /// Fraction of distinct values covered by monochromatic pieces.
    pub fn pct_piece_values(&self) -> f64 {
        if self.group_labels.is_empty() {
            0.0
        } else {
            self.total_piece_values() as f64 / self.group_labels.len() as f64
        }
    }

    /// True iff distinct-value group `g` lies inside some piece.
    pub fn group_in_piece(&self, g: usize) -> bool {
        // Pieces are sorted and disjoint; binary search by start.
        let idx = self.pieces.partition_point(|p| p.end_group <= g);
        self.pieces.get(idx).is_some_and(|p| p.first_group <= g && g < p.end_group)
    }
}

/// Counts the discontinuities of an attribute over a unit-granularity
/// integer domain: grid positions in `[min, max]` at which no tuple
/// occurs (Section 5.4).
///
/// `granularity` is the domain's value step (1.0 for the integer
/// attributes of the covertype benchmark). Values are snapped to the
/// grid by rounding; the count is
/// `round((max - min)/granularity) + 1 - num_distinct`, clamped at 0,
/// which reproduces the paper's Figure 11 arithmetic (dynamic-range
/// width minus number of distinct values).
pub fn num_discontinuities(sc: &SortedColumn, granularity: f64) -> usize {
    assert!(granularity > 0.0, "granularity must be positive");
    let n = sc.groups.len();
    if n == 0 {
        return 0;
    }
    let lo = sc.groups[0].value;
    let hi = sc.groups[n - 1].value;
    let slots = ((hi - lo) / granularity).round() as usize + 1;
    slots.saturating_sub(n)
}

/// The dynamic-range width of an attribute in grid units: the number of
/// grid positions in `[min, max]` (`max - min + 1` for integer domains),
/// as used by the paper's Figure 8.
pub fn dynamic_range_width(sc: &SortedColumn, granularity: f64) -> usize {
    assert!(granularity > 0.0, "granularity must be positive");
    let n = sc.groups.len();
    if n == 0 {
        return 0;
    }
    let lo = sc.groups[0].value;
    let hi = sc.groups[n - 1].value;
    ((hi - lo) / granularity).round() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetBuilder};
    use crate::schema::{AttrId, Schema};

    /// The running example of Figures 3/4/7:
    /// values 1,2,15,15,27,28,29,29,29,29,42,43,44
    /// labels H H H  H  L  L  L  L  H  H  H  H  H   (H=0, L=1)
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
    fn paper_example_pieces_match_choosemaxmp_walkthrough() {
        // Section 5.2: ChooseMaxMP creates pieces
        //   r1 = {1,2,15} (H), r2 = {27,28} (L), r3 = {29} non-mono,
        //   r4 = {42,43,44} (H).
        let d = paper_example();
        let sc = d.sorted_column(AttrId(0));
        let ma = MonoAnalysis::analyze(&sc, 1);
        assert_eq!(ma.num_pieces(), 3);
        let lens: Vec<usize> = ma.pieces.iter().map(MonoPiece::len).collect();
        assert_eq!(lens, vec![3, 2, 3]);
        assert_eq!(ma.pieces[0].label, ClassId(0));
        assert_eq!(ma.pieces[1].label, ClassId(1));
        assert_eq!(ma.pieces[2].label, ClassId(0));
        // 29 is the only non-monochromatic value.
        let non_mono: Vec<f64> = sc
            .groups
            .iter()
            .zip(&ma.group_labels)
            .filter(|(_, l)| l.is_none())
            .map(|(g, _)| g.value)
            .collect();
        assert_eq!(non_mono, vec![29.0]);
    }

    #[test]
    fn from_labels_over_domain_labels_matches_analyze() {
        let d = paper_example();
        for min_piece_len in 1..=4 {
            let from_memo =
                MonoAnalysis::from_labels(d.domain_labels(AttrId(0)).labels(), min_piece_len);
            let from_sort = MonoAnalysis::analyze(&d.sorted_column(AttrId(0)), min_piece_len);
            assert_eq!(from_memo.pieces, from_sort.pieces, "min_piece_len {min_piece_len}");
            assert_eq!(from_memo.group_labels, from_sort.group_labels);
        }
    }

    #[test]
    fn min_piece_len_filters_short_pieces() {
        let d = paper_example();
        let sc = d.sorted_column(AttrId(0));
        let ma = MonoAnalysis::analyze(&sc, 3);
        // Only the length-3 pieces survive a width >= 3 threshold.
        assert_eq!(ma.num_pieces(), 2);
        assert_eq!(ma.total_piece_values(), 6);
    }

    #[test]
    fn adjacent_pieces_of_different_labels_stay_separate() {
        // values 1(H) 2(H) 3(L) 4(L): two adjacent mono pieces.
        let schema = Schema::new(["a"], ["H", "L"]);
        let mut b = DatasetBuilder::new(schema);
        for (v, c) in [(1.0, 0u16), (2.0, 0), (3.0, 1), (4.0, 1)] {
            b.push_row(&[v], ClassId(c));
        }
        let d = b.build();
        let ma = MonoAnalysis::analyze(&d.sorted_column(AttrId(0)), 1);
        assert_eq!(ma.num_pieces(), 2);
        assert_eq!(ma.pieces[0].label, ClassId(0));
        assert_eq!(ma.pieces[1].label, ClassId(1));
    }

    #[test]
    fn group_in_piece_lookup() {
        let d = paper_example();
        let sc = d.sorted_column(AttrId(0));
        let ma = MonoAnalysis::analyze(&sc, 1);
        // groups: 1,2,15,27,28,29,42,43,44 (9 distinct values)
        assert_eq!(sc.num_distinct(), 9);
        for g in 0..sc.num_distinct() {
            let inside = ma.group_in_piece(g);
            let expected = g != 5; // only 29 (group 5) is outside
            assert_eq!(inside, expected, "group {g}");
        }
    }

    #[test]
    fn stats_helpers() {
        let d = paper_example();
        let sc = d.sorted_column(AttrId(0));
        let ma = MonoAnalysis::analyze(&sc, 1);
        assert_eq!(ma.total_piece_values(), 8);
        assert!((ma.avg_piece_len() - 8.0 / 3.0).abs() < 1e-12);
        assert!((ma.pct_piece_values() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn discontinuity_count_matches_figure11_arithmetic() {
        let d = paper_example();
        let sc = d.sorted_column(AttrId(0));
        // domain [1,44]: 44 slots, 9 distinct -> 35 discontinuities.
        assert_eq!(dynamic_range_width(&sc, 1.0), 44);
        assert_eq!(num_discontinuities(&sc, 1.0), 35);
    }

    #[test]
    fn empty_column_edge_cases() {
        let d = Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        let sc = d.sorted_column(AttrId(0));
        let ma = MonoAnalysis::analyze(&sc, 1);
        assert_eq!(ma.num_pieces(), 0);
        assert_eq!(ma.pct_piece_values(), 0.0);
        assert_eq!(num_discontinuities(&sc, 1.0), 0);
        assert_eq!(dynamic_range_width(&sc, 1.0), 0);
    }
}
