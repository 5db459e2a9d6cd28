//! # ppdt-data
//!
//! Dataset substrate for the `ppdt` workspace, the reproduction of
//! *"Preservation Of Patterns and Input-Output Privacy"* (Bu,
//! Lakshmanan, Ng, Ramesh — ICDE 2007).
//!
//! This crate owns everything the paper's Section 3 defines about the
//! training data itself:
//!
//! * [`Dataset`] — an immutable columnar relation instance `D` with
//!   numeric attributes and a categorical class label,
//! * [`ClassString`] and [`LabelRun`] — the per-attribute class string
//!   `σ_A` (Definition 6) and its label runs (Definition 7),
//! * [`mono`] — monochromatic values and maximal monochromatic pieces
//!   (Definition 9) plus discontinuity analysis (Section 5.4),
//! * [`stats`] — the per-attribute statistics reported in the paper's
//!   Figure 8 and Figure 11,
//! * [`gen`] — synthetic data generators, including a covertype-like
//!   generator calibrated to the paper's Figure 8 statistics (the UCI
//!   data itself is not shipped; see `DESIGN.md` §3).
//!
//! All randomized generators take an explicit [`rand::Rng`] so every
//! experiment in the workspace is reproducible from a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod class_string;
pub mod corrupt;
pub mod csv;
pub mod dataset;
pub mod gen;
pub mod mono;
pub mod schema;
pub mod stats;
pub mod value;

pub use class_string::{ClassString, LabelRun};
pub use corrupt::{corrupt_csv, flip_ascii_digit, truncate_at, CsvCorruption, ALL_CSV_CORRUPTIONS};
pub use csv::{
    parse_csv, parse_csv_opts, read_csv, read_csv_from, read_csv_opts, to_csv, write_csv, CsvError,
    CsvOptions, SkipReport, SkippedRow,
};
pub use dataset::{Dataset, DatasetBuilder, DistinctGroup, DomainLabels, SortedColumn};
pub use mono::{MonoAnalysis, MonoPiece};
pub use schema::{AttrId, ClassId, Schema};
pub use stats::AttrStats;
pub use value::{cmp_f64, sorted_order_by_value, Value};
