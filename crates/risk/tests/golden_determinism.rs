//! Golden determinism pin for the custodian's offline path.
//!
//! Fixed seeds on two 2,000-row tables (covertype-like and
//! census-like) must reproduce, bit for bit, (a) a digest of what
//! `Encoder::encode` returns — the key's JSON plus every column of
//! `D'` — at one and at two worker threads, and (b) the per-attribute
//! medians of five domain-risk trials. The expected values were
//! recorded once and must never move: any change to how the draw
//! reads the data, how much randomness it consumes, or how a drawn
//! key is applied to a column shows up here.

use ppdt_attack::HackerProfile;
use ppdt_data::gen::{census_like, covertype_like, CovertypeConfig};
use ppdt_data::Dataset;
use ppdt_risk::{domain_risk_trial, run_trials, DomainScenario};
use ppdt_transform::{BreakpointStrategy, EncodeConfig, Encoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 2_000;

/// 64-bit FNV-1a, enough to fingerprint a few hundred KiB of output.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn tables() -> [(&'static str, Dataset); 2] {
    let covertype = covertype_like(
        &mut StdRng::seed_from_u64(101),
        &CovertypeConfig { num_rows: ROWS, ..Default::default() },
    );
    let census = census_like(&mut StdRng::seed_from_u64(202), ROWS);
    [("covertype", covertype), ("census", census)]
}

fn configs() -> [(&'static str, EncodeConfig); 2] {
    [
        ("default", EncodeConfig::default()),
        (
            "choosebp_anti",
            EncodeConfig {
                strategy: BreakpointStrategy::ChooseBP { w: 12 },
                anti_monotone_prob: 0.5,
                ..Default::default()
            },
        ),
    ]
}

fn encode_digest(d: &Dataset, config: EncodeConfig, threads: usize) -> u64 {
    let encoded = Encoder::new(config)
        .threads(threads)
        .encode(&mut StdRng::seed_from_u64(7), d)
        .expect("encode a generated table");
    let mut h = Fnv::new();
    h.bytes(serde_json::to_string(&encoded.key).expect("key serializes").as_bytes());
    for a in encoded.dataset.schema().attrs() {
        for v in encoded.dataset.column(a) {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

#[test]
fn encoder_output_digest_is_pinned() {
    let expected: [(&str, &str, u64); 4] = [
        ("covertype", "default", 0x7640b09009a1d8fa),
        ("covertype", "choosebp_anti", 0xd5966f1d284aeb59),
        ("census", "default", 0xf05e3cdf7345e3c2),
        ("census", "choosebp_anti", 0x133d761ecc548ebf),
    ];
    let mut got = Vec::new();
    for (table, d) in tables() {
        for (name, config) in configs() {
            let serial = encode_digest(&d, config, 1);
            assert_eq!(serial, encode_digest(&d, config, 2), "{table}/{name}: threads 1 vs 2");
            got.push((table, name, serial));
        }
    }
    assert_eq!(got, expected, "encoder digests moved");
}

#[test]
fn domain_risk_medians_are_pinned() {
    let expected: [(&str, &[f64]); 2] = [
        (
            "covertype",
            &[
                0.18651543793320732,
                0.3185595567867036,
                0.22388059701492538,
                0.27586206896551724,
                0.22428571428571428,
                0.388268156424581,
                0.2898550724637681,
                0.2810810810810811,
                0.2823529411764706,
                0.27158034528552455,
            ],
        ),
        (
            "census",
            &[
                0.3225806451612903,
                0.332824427480916,
                0.4375,
                0.40978348035284684,
                0.2770780856423174,
                0.2714285714285714,
            ],
        ),
    ];
    let scenario = DomainScenario::polyline(HackerProfile::Expert);
    let config = EncodeConfig::default();
    for ((table, d), (name, want)) in tables().iter().zip(expected) {
        assert_eq!(*table, name);
        let medians: Vec<f64> = d
            .schema()
            .attrs()
            .map(|a| {
                run_trials(5, 0x415c + a.index() as u64, |rng| {
                    domain_risk_trial(rng, d, a, &config, &scenario).unwrap_or(f64::NAN)
                })
                .median
            })
            .collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&medians), bits(want), "{table}: risk medians moved, got {medians:?}");
    }
}
