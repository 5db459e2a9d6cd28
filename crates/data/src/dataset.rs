//! The columnar training relation `D`.

use std::fmt;
use std::sync::OnceLock;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::schema::{AttrId, ClassId, Schema};

/// An immutable training relation instance `D` with `m` numeric
/// attributes and a categorical class label (Section 3.1 of the paper).
///
/// Storage is columnar: one `Vec<f64>` per attribute plus one label
/// vector, which keeps the per-attribute hot paths (sorting, class
/// strings, split search) cache friendly.
///
/// Each attribute's [`DomainLabels`] is computed on first use and
/// memoized, so the transform draw sorts a column at most once per
/// dataset. The memo is invisible: `==`, `Debug` and the JSON form
/// ignore it, and every derived dataset (`with_column`, `with_columns`,
/// `from_columns`, deserialization) starts without one.
///
/// ```
/// use ppdt_data::{AttrId, ClassId, DatasetBuilder, Schema};
///
/// let schema = Schema::new(["age"], ["High", "Low"]);
/// let mut b = DatasetBuilder::new(schema);
/// b.push_row(&[17.0], ClassId(0));
/// b.push_row(&[32.0], ClassId(1));
/// b.push_row(&[17.0], ClassId(0));
/// let d = b.build();
///
/// assert_eq!(d.num_rows(), 3);
/// assert_eq!(d.active_domain(AttrId(0)), vec![17.0, 32.0]);
/// assert_eq!(d.class_counts(), vec![2, 1]);
/// ```
#[derive(Clone)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Vec<f64>>,
    labels: Vec<ClassId>,
    /// Per-attribute memo behind [`Dataset::domain_labels`]. `OnceLock`
    /// keeps `&Dataset` `Sync`, so concurrent workers share one fill.
    domains: Box<[OnceLock<DomainLabels>]>,
}

/// Checks columnar parts against each other: one column per schema
/// attribute, every column as long as the label vector, no NaN value
/// and every label inside the schema's class range.
fn check_parts(schema: &Schema, columns: &[Vec<f64>], labels: &[ClassId]) -> Result<(), String> {
    if columns.len() != schema.num_attrs() {
        return Err(format!(
            "column count must match schema: {} column(s) for {} attribute(s)",
            columns.len(),
            schema.num_attrs()
        ));
    }
    for (i, col) in columns.iter().enumerate() {
        if col.len() != labels.len() {
            return Err(format!(
                "column {i} length must match label count: {} value(s) for {} label(s)",
                col.len(),
                labels.len()
            ));
        }
        if col.iter().any(|v| v.is_nan()) {
            return Err(format!("column {i} contains NaN values"));
        }
    }
    if labels.iter().any(|c| c.index() >= schema.num_classes()) {
        return Err("label out of range for schema".to_string());
    }
    Ok(())
}

impl Dataset {
    /// Assembles a dataset from columnar parts.
    ///
    /// # Panics
    /// Panics if column counts/lengths disagree with the schema, if any
    /// value is NaN, or if any label is out of range.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<f64>>, labels: Vec<ClassId>) -> Self {
        let checked = check_parts(&schema, &columns, &labels);
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
        Dataset::assemble(schema, columns, labels)
    }

    /// Wraps already-checked parts, with a cold memo.
    fn assemble(schema: Schema, columns: Vec<Vec<f64>>, labels: Vec<ClassId>) -> Self {
        let domains = columns.iter().map(|_| OnceLock::new()).collect();
        Dataset { schema, columns, labels, domains }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of numeric attributes.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.schema.num_classes()
    }

    /// The raw column of attribute `a`.
    #[inline]
    pub fn column(&self, a: AttrId) -> &[f64] {
        &self.columns[a.index()]
    }

    /// The label vector.
    #[inline]
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Value of attribute `a` in tuple `row`.
    #[inline]
    pub fn value(&self, row: usize, a: AttrId) -> f64 {
        self.columns[a.index()][row]
    }

    /// Label of tuple `row`.
    #[inline]
    pub fn label(&self, row: usize) -> ClassId {
        self.labels[row]
    }

    /// Per-class tuple counts over the whole relation.
    pub fn class_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_classes()];
        for c in &self.labels {
            counts[c.index()] += 1;
        }
        counts
    }

    /// The active domain `δ(A)` of attribute `a`: the sorted distinct
    /// values appearing in the data (Section 3.1).
    pub fn active_domain(&self, a: AttrId) -> Vec<f64> {
        self.domain_labels(a).values().to_vec()
    }

    /// Attribute `a`'s ascending distinct values, each with its
    /// monochromatic label — everything the transform draw reads of
    /// the column. Sorted on first use, then served from the memo.
    pub fn domain_labels(&self, a: AttrId) -> &DomainLabels {
        self.domains[a.index()].get_or_init(|| DomainLabels::of(self.column(a), &self.labels))
    }

    /// Minimum and maximum value of attribute `a`, or `None` for an
    /// empty relation.
    pub fn min_max(&self, a: AttrId) -> Option<(f64, f64)> {
        let col = self.column(a);
        let first = *col.first()?;
        let (mut lo, mut hi) = (first, first);
        for &v in col {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Builds the sorted per-attribute view used by class strings,
    /// monochromatic analysis and split search: tuple indices ordered
    /// by `(value, label)` plus distinct-value groups with per-class
    /// histograms.
    ///
    /// Equal values are tie-broken by label — the "canonical order" of
    /// Definition 6 — so the class string of an attribute is uniquely
    /// defined and comparable across the original and transformed data.
    pub fn sorted_column(&self, a: AttrId) -> SortedColumn {
        let col = self.column(a);
        let mut order: Vec<u32> = (0..col.len() as u32).collect();
        order.sort_unstable_by(|&i, &j| {
            col[i as usize]
                .total_cmp(&col[j as usize])
                .then_with(|| self.labels[i as usize].cmp(&self.labels[j as usize]))
        });

        let mut groups: Vec<DistinctGroup> = Vec::new();
        let k = self.num_classes();
        for (pos, &row) in order.iter().enumerate() {
            let v = col[row as usize];
            let c = self.labels[row as usize];
            let start_new = groups.last().is_none_or(|g| g.value != v);
            if start_new {
                let mut hist = vec![0u32; k];
                hist[c.index()] = 1;
                groups.push(DistinctGroup { value: v, start: pos, end: pos + 1, hist });
            } else {
                let g = groups.last_mut().expect("group exists");
                g.end = pos + 1;
                g.hist[c.index()] += 1;
            }
        }
        SortedColumn { order, groups }
    }

    /// Replaces the column of attribute `a` with `new_col`, keeping the
    /// labels and every other column. Used by the encoder to build `D'`.
    ///
    /// # Panics
    /// Panics if `new_col` has the wrong length or contains NaN.
    pub fn with_column(&self, a: AttrId, new_col: Vec<f64>) -> Dataset {
        assert_eq!(new_col.len(), self.num_rows(), "replacement column length");
        assert!(new_col.iter().all(|v| !v.is_nan()), "replacement column NaN");
        let mut columns = self.columns.clone();
        columns[a.index()] = new_col;
        Dataset::assemble(self.schema.clone(), columns, self.labels.clone())
    }

    /// Builds a new dataset with all columns replaced at once (labels
    /// and schema preserved). Used by the encoder to build `D'` in one
    /// allocation sweep.
    pub fn with_columns(&self, columns: Vec<Vec<f64>>) -> Dataset {
        Dataset::from_columns(self.schema.clone(), columns, self.labels.clone())
    }

    /// Projects the relation onto `(A, C)` — the A-projected tuples of
    /// Section 3.1 — as `(value, label)` pairs in row order.
    pub fn projected(&self, a: AttrId) -> Vec<(f64, ClassId)> {
        self.column(a).iter().zip(&self.labels).map(|(&v, &c)| (v, c)).collect()
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Dataset) -> bool {
        self.schema == other.schema && self.columns == other.columns && self.labels == other.labels
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("schema", &self.schema)
            .field("columns", &self.columns)
            .field("labels", &self.labels)
            .finish()
    }
}

impl Serialize for Dataset {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("columns".to_string(), self.columns.to_value()),
            ("labels".to_string(), self.labels.to_value()),
        ])
    }
}

impl Deserialize for Dataset {
    /// Parses the three fields and runs [`Dataset::from_columns`]'
    /// checks, reporting a violation as a [`DeError`] instead of
    /// panicking.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| {
            DeError::custom(format!("Dataset: expected object, found {}", v.kind()))
        })?;
        let schema: Schema = serde::field_from_object(obj, "schema")?;
        let columns: Vec<Vec<f64>> = serde::field_from_object(obj, "columns")?;
        let labels: Vec<ClassId> = serde::field_from_object(obj, "labels")?;
        check_parts(&schema, &columns, &labels)
            .map_err(|e| DeError::custom(format!("Dataset: {e}")))?;
        Ok(Dataset::assemble(schema, columns, labels))
    }
}

/// One attribute's ascending distinct values and, per value, its
/// monochromatic label (Definition 9): `Some(c)` iff every tuple
/// carrying the value has class `c`. This is all that `ChooseBP`,
/// `ChooseMaxMP` and the transform layout read of a column — about
/// 12 bytes per distinct value, with no row order and no histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainLabels {
    values: Vec<f64>,
    labels: Vec<Option<ClassId>>,
}

impl DomainLabels {
    /// Sorts `(value, label)` pairs by value and collapses equal values
    /// (`==`, as [`Dataset::sorted_column`] groups them) into one entry.
    fn of(col: &[f64], labels: &[ClassId]) -> DomainLabels {
        let mut pairs: Vec<(f64, ClassId)> =
            col.iter().copied().zip(labels.iter().copied()).collect();
        pairs.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut out = DomainLabels { values: Vec::new(), labels: Vec::new() };
        for (v, c) in pairs {
            match (out.values.last(), out.labels.last_mut()) {
                (Some(&last), Some(label)) if last == v => {
                    if *label != Some(c) {
                        *label = None;
                    }
                }
                _ => {
                    out.values.push(v);
                    out.labels.push(Some(c));
                }
            }
        }
        out
    }

    /// The distinct values, ascending — the active domain `δ(A)`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Per distinct value: its label if monochromatic, `None` otherwise.
    #[inline]
    pub fn labels(&self) -> &[Option<ClassId>] {
        &self.labels
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for an empty column.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A per-attribute sorted view: tuple order plus distinct-value groups.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedColumn {
    /// Tuple indices ordered by `(value, label)`.
    pub order: Vec<u32>,
    /// Maximal groups of equal values, in ascending value order.
    pub groups: Vec<DistinctGroup>,
}

impl SortedColumn {
    /// Number of distinct values.
    #[inline]
    pub fn num_distinct(&self) -> usize {
        self.groups.len()
    }
}

/// One distinct attribute value with its per-class tuple histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct DistinctGroup {
    /// The attribute value.
    pub value: f64,
    /// Start position (inclusive) in the sorted order.
    pub start: usize,
    /// End position (exclusive) in the sorted order.
    pub end: usize,
    /// Tuple count per class.
    pub hist: Vec<u32>,
}

impl DistinctGroup {
    /// Total number of tuples carrying this value.
    #[inline]
    pub fn count(&self) -> u32 {
        (self.end - self.start) as u32
    }

    /// If every tuple with this value agrees on the label — the value is
    /// *monochromatic* (Definition 9) — returns that label.
    pub fn monochromatic_label(&self) -> Option<ClassId> {
        let mut found = None;
        for (c, &n) in self.hist.iter().enumerate() {
            if n > 0 {
                if found.is_some() {
                    return None;
                }
                found = Some(ClassId(c as u16));
            }
        }
        found
    }
}

/// Row-oriented convenience builder for [`Dataset`].
#[derive(Clone, Debug)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Vec<f64>>,
    labels: Vec<ClassId>,
}

impl DatasetBuilder {
    /// Starts an empty dataset with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.num_attrs()];
        DatasetBuilder { schema, columns, labels: Vec::new() }
    }

    /// Appends one tuple.
    ///
    /// # Panics
    /// Panics on arity mismatch, NaN values, or out-of-range label.
    pub fn push_row(&mut self, values: &[f64], label: ClassId) -> &mut Self {
        assert_eq!(values.len(), self.schema.num_attrs(), "tuple arity");
        assert!(label.index() < self.schema.num_classes(), "label range");
        for (col, &v) in self.columns.iter_mut().zip(values) {
            assert!(!v.is_nan(), "NaN attribute value");
            col.push(v);
        }
        self.labels.push(label);
        self
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Finishes the dataset.
    pub fn build(self) -> Dataset {
        Dataset::from_columns(self.schema, self.columns, self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // values:    3 1 2 2 5
        // labels:    0 1 0 1 0
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        b.push_row(&[3.0], ClassId(0))
            .push_row(&[1.0], ClassId(1))
            .push_row(&[2.0], ClassId(0))
            .push_row(&[2.0], ClassId(1))
            .push_row(&[5.0], ClassId(0));
        b.build()
    }

    #[test]
    fn sorted_column_orders_and_groups() {
        let d = toy();
        let sc = d.sorted_column(AttrId(0));
        let sorted_vals: Vec<f64> =
            sc.order.iter().map(|&i| d.value(i as usize, AttrId(0))).collect();
        assert_eq!(sorted_vals, vec![1.0, 2.0, 2.0, 3.0, 5.0]);
        assert_eq!(sc.num_distinct(), 4);
        let g2 = &sc.groups[1];
        assert_eq!(g2.value, 2.0);
        assert_eq!(g2.count(), 2);
        assert_eq!(g2.hist, vec![1, 1]);
        assert_eq!(g2.monochromatic_label(), None);
        assert_eq!(sc.groups[0].monochromatic_label(), Some(ClassId(1)));
    }

    #[test]
    fn ties_are_broken_by_label() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        b.push_row(&[2.0], ClassId(1)).push_row(&[2.0], ClassId(0)).push_row(&[2.0], ClassId(1));
        let d = b.build();
        let sc = d.sorted_column(AttrId(0));
        let labels: Vec<ClassId> = sc.order.iter().map(|&i| d.label(i as usize)).collect();
        assert_eq!(labels, vec![ClassId(0), ClassId(1), ClassId(1)]);
    }

    #[test]
    fn active_domain_and_min_max() {
        let d = toy();
        assert_eq!(d.active_domain(AttrId(0)), vec![1.0, 2.0, 3.0, 5.0]);
        assert_eq!(d.min_max(AttrId(0)), Some((1.0, 5.0)));
    }

    #[test]
    fn class_counts() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![3, 2]);
    }

    #[test]
    fn with_column_replaces_one_attribute() {
        let d = toy();
        let d2 = d.with_column(AttrId(0), vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(d2.column(AttrId(0)), &[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(d2.labels(), d.labels());
    }

    #[test]
    fn projected_pairs() {
        let d = toy();
        let p = d.projected(AttrId(0));
        assert_eq!(p[0], (3.0, ClassId(0)));
        assert_eq!(p.len(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_row_arity_checked() {
        let mut b = DatasetBuilder::new(Schema::generated(2, 2));
        b.push_row(&[1.0], ClassId(0));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn labels_validated() {
        let schema = Schema::generated(1, 2);
        Dataset::from_columns(schema, vec![vec![1.0]], vec![ClassId(9)]);
    }

    #[test]
    fn empty_dataset_is_legal() {
        let d = Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        assert_eq!(d.num_rows(), 0);
        assert!(d.min_max(AttrId(0)).is_none());
        assert!(d.active_domain(AttrId(0)).is_empty());
    }

    /// True iff no attribute's memo has been filled yet.
    fn cold(d: &Dataset) -> bool {
        d.domains.iter().all(|m| m.get().is_none())
    }

    #[test]
    fn domain_labels_collapse_values_and_flag_monochromatic_ones() {
        let d = toy();
        let dom = d.domain_labels(AttrId(0));
        assert_eq!(dom.values(), &[1.0, 2.0, 3.0, 5.0]);
        assert_eq!(dom.labels(), &[Some(ClassId(1)), None, Some(ClassId(0)), Some(ClassId(0))]);
        assert_eq!(dom.len(), 4);
        let empty = Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        assert!(empty.domain_labels(AttrId(0)).is_empty());
    }

    #[test]
    fn domain_labels_match_sorted_column_groups() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut tables: Vec<Dataset> = (0..20)
            .map(|i| {
                let cfg = crate::gen::RandomDatasetConfig {
                    num_rows: 30 + 10 * i,
                    num_attrs: 2,
                    num_classes: 2 + i % 3,
                    value_range: 4 + 3 * i as u64,
                };
                crate::gen::random_dataset(&mut rng, &cfg)
            })
            .collect();
        // Signed zeros are one value under `==` but two under
        // `total_cmp`; both views must keep the first (-0.0).
        tables.push(Dataset::from_columns(
            Schema::generated(1, 2),
            vec![vec![0.0, -0.0, 1.0, -0.0, f64::INFINITY]],
            vec![ClassId(0), ClassId(0), ClassId(1), ClassId(1), ClassId(0)],
        ));
        for d in &tables {
            for a in d.schema().attrs() {
                let sc = d.sorted_column(a);
                let dom = d.domain_labels(a);
                let group_bits: Vec<u64> = sc.groups.iter().map(|g| g.value.to_bits()).collect();
                let value_bits: Vec<u64> = dom.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(value_bits, group_bits);
                let labels: Vec<Option<ClassId>> =
                    sc.groups.iter().map(DistinctGroup::monochromatic_label).collect();
                assert_eq!(dom.labels(), labels.as_slice());
                assert_eq!(d.active_domain(a), dom.values());
            }
        }
    }

    #[test]
    fn memo_is_invisible_to_json_eq_and_debug() {
        let d = crate::gen::figure1();
        let json = serde_json::to_string(&d).unwrap();
        let debug = format!("{d:?}");
        let cold_copy = d.clone();
        for a in d.schema().attrs() {
            d.domain_labels(a);
        }
        assert!(!cold(&d) && cold(&cold_copy));
        assert_eq!(serde_json::to_string(&d).unwrap(), json);
        assert_eq!(format!("{d:?}"), debug);
        assert_eq!(d, cold_copy);
        // The JSON shape is the field-by-field form the derive wrote.
        let tiny = Dataset::from_columns(
            Schema::new(["a"], ["H", "L"]),
            vec![vec![1.5, -2.0]],
            vec![ClassId(1), ClassId(0)],
        );
        tiny.domain_labels(AttrId(0));
        assert_eq!(
            serde_json::to_string(&tiny).unwrap(),
            r#"{"schema":{"attr_names":["a"],"class_names":["H","L"]},"columns":[[1.5,-2.0]],"labels":[1,0]}"#
        );
    }

    #[test]
    fn derived_datasets_start_cold_and_report_their_own_domain() {
        let d = toy();
        d.domain_labels(AttrId(0));
        let shifted: Vec<f64> = d.column(AttrId(0)).iter().map(|x| 10.0 * x).collect();
        let derived = [
            d.with_columns(vec![shifted.clone()]),
            d.with_column(AttrId(0), shifted.clone()),
            Dataset::from_columns(d.schema().clone(), vec![shifted], d.labels().to_vec()),
            serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap(),
        ];
        for (i, d2) in derived.iter().enumerate() {
            assert!(cold(d2), "derived dataset {i} inherited a memo");
        }
        for d2 in &derived[..3] {
            assert_eq!(d2.domain_labels(AttrId(0)).values(), &[10.0, 20.0, 30.0, 50.0]);
        }
        assert_eq!(derived[3].domain_labels(AttrId(0)), d.domain_labels(AttrId(0)));
    }

    #[test]
    fn concurrent_first_touches_share_one_view() {
        let d = crate::gen::figure1();
        let barrier = std::sync::Barrier::new(4);
        // (address, contents) of the view each thread got back.
        let views: Vec<(usize, DomainLabels)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let view = d.domain_labels(AttrId(1));
                        (view as *const DomainLabels as usize, view.clone())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(views.windows(2).all(|w| w[0] == w[1]), "threads saw different views");
        assert_eq!(views[0].1, DomainLabels::of(d.column(AttrId(1)), d.labels()));
    }

    #[test]
    fn ragged_json_is_a_typed_error_not_a_panic() {
        let d = crate::gen::figure1();
        let good = serde_json::to_string(&d).unwrap();
        let mut value: serde::Value = serde_json::from_str(&good).unwrap();
        let serde::Value::Object(fields) = &mut value else { panic!("object") };
        let columns = &mut fields.iter_mut().find(|(k, _)| k == "columns").unwrap().1;
        let serde::Value::Array(cols) = columns else { panic!("array") };
        let serde::Value::Array(col0) = &mut cols[0] else { panic!("array") };
        col0.pop();
        let ragged = serde_json::to_string(&value).unwrap();
        let err = serde_json::from_str::<Dataset>(&ragged).unwrap_err();
        assert!(err.to_string().contains("column 0 length must match label count"), "{err}");

        // The other from_columns checks run too.
        let cases = [
            (good.replace(r#""labels":[0"#, r#""labels":[7"#), "label out of range"),
            (good.replace(r#""columns":[["#, r#""columns":[[1.0],["#), "column count"),
        ];
        for (json, want) in cases {
            let err = serde_json::from_str::<Dataset>(&json).unwrap_err();
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
        assert_eq!(serde_json::from_str::<Dataset>(&good).unwrap(), d);
    }
}
