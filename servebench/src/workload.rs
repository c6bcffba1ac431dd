//! Seeded workload generators.
//!
//! Every workload is a pure function of `(seed, workload name)`: the
//! warm-up calls that bring the stack to its steady state, then the
//! list of measured calls the load phases cycle through. The serving
//! stack only ever sees the generated `PolicyRequest`s.

use econcast_core::{NodeParams, ThroughputMode};
use econcast_service::PolicyRequest;

/// Listen and transmit power of the energy-constrained instances (W).
const LISTEN_W: f64 = 500e-6;
const TRANSMIT_W: f64 = 450e-6;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch-1 calls over a resident pool: every call is an exact-tier
    /// hit, so per-call fixed costs dominate.
    HotSmall,
    /// Batch-256 calls over the same pool, node orders permuted per
    /// request: per-byte and per-request costs dominate.
    HotBulk,
    /// Batch-32 calls drawn Zipf-popular from a universe four times the
    /// stack's total LRU capacity: misses run kernels and certificates.
    ColdChurn,
}

/// How a workload is driven.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// Requests per call.
    pub batch: usize,
    /// In-flight calls kept by the closed-loop phase.
    pub window: usize,
    /// Open-loop `light` rate, calls per second: about 15% of the
    /// closed-loop throughput this benchmark was defined on, on a quiet
    /// host (4% on `hot_small`).
    pub light_cps: f64,
    /// Open-loop `busy` rate, calls per second: twice the light rate. A
    /// loaded shared 2-CPU host has shown between half and a quarter of
    /// the quiet capacity, which takes these rates to 30–60%; rates set
    /// higher tipped such runs into saturation, where the light p50
    /// follows the host's speed far more than the program's.
    pub busy_cps: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotSmall, Workload::HotBulk, Workload::ColdChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::HotBulk => "hot_bulk",
            Workload::ColdChurn => "cold_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen drive parameters. The open-loop rates are absolute:
    /// a change that moves capacity must not move the offered load.
    pub fn drive(self) -> Drive {
        match self {
            Workload::HotSmall => Drive {
                batch: 1,
                window: 16,
                light_cps: 1000.0,
                busy_cps: 2000.0,
            },
            Workload::HotBulk => Drive {
                batch: 256,
                window: 2,
                light_cps: 70.0,
                busy_cps: 140.0,
            },
            Workload::ColdChurn => Drive {
                batch: 32,
                window: 2,
                light_cps: 55.0,
                busy_cps: 110.0,
            },
        }
    }

    /// Generates the workload for `seed`.
    pub fn generate(self, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ fnv(self.name()));
        match self {
            Workload::HotSmall => {
                // The pool in a fresh shuffled order every 48 calls.
                let pool = hot_pool(&mut rng);
                let mut calls = Vec::with_capacity(4096);
                while calls.len() < 4096 {
                    for k in shuffled(pool.len(), &mut rng) {
                        calls.push(vec![permuted(&pool[k], &mut rng)]);
                    }
                }
                calls.truncate(4096);
                Plan {
                    warm: pool.chunks(16).map(<[_]>::to_vec).collect(),
                    calls,
                }
            }
            Workload::HotBulk => {
                // Every call holds each pool instance five times plus
                // sixteen distinct others, in shuffled order: the calls
                // differ in their bytes, not in their cost.
                let pool = hot_pool(&mut rng);
                let calls = (0..48)
                    .map(|_| {
                        let mut picks: Vec<usize> = (0..5).flat_map(|_| 0..pool.len()).collect();
                        picks.extend(shuffled(pool.len(), &mut rng).into_iter().take(16));
                        shuffled(picks.len(), &mut rng)
                            .into_iter()
                            .map(|i| permuted(&pool[picks[i]], &mut rng))
                            .collect()
                    })
                    .collect();
                Plan {
                    warm: pool.chunks(16).map(<[_]>::to_vec).collect(),
                    calls,
                }
            }
            Workload::ColdChurn => {
                // Stratified Zipf draws: each call takes one request from
                // each of 32 equal slices of the popularity CDF, so every
                // call carries the same mix of hot and cold requests.
                let universe = cold_universe(&mut rng);
                let zipf = Zipf::new(universe.len(), 1.0);
                let draw = |rng: &mut Rng| -> Vec<PolicyRequest> {
                    let picks: Vec<usize> = (0..32)
                        .map(|k| zipf.at((k as f64 + rng.unit()) / 32.0))
                        .collect();
                    shuffled(picks.len(), rng)
                        .into_iter()
                        .map(|i| universe[picks[i]].clone())
                        .collect()
                };
                let warm = (0..64).map(|_| draw(&mut rng)).collect();
                let calls = (0..256).map(|_| draw(&mut rng)).collect();
                Plan { warm, calls }
            }
        }
    }
}

/// Distinct requests in the cold universe: four times the stack's total
/// LRU capacity (two backends × [`crate::stack::LRU_CAPACITY`]).
pub const COLD_UNIVERSE: usize = 4 * 2 * crate::stack::LRU_CAPACITY;

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Calls served before measuring, in order.
    pub warm: Vec<Vec<PolicyRequest>>,
    /// Calls the measured phases cycle through, in order.
    pub calls: Vec<Vec<PolicyRequest>>,
}

/// The kinds of instance the generators mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Heterogeneous groupput: the factorized kernel.
    Groupput,
    /// Small heterogeneous anyput: the Gray-code kernel.
    AnyputGray,
    /// Larger heterogeneous anyput: factorized again.
    AnyputFactorized,
    /// Homogeneous, budget inside the grid range.
    GridHomogeneous,
    /// Homogeneous inside the grid range, from a few grid families
    /// (node count × σ × objective) with many budgets: grids build
    /// once per family and backend.
    GridFamily,
    /// Homogeneous, budget above the grid's roof: closed form.
    OffGridHomogeneous,
}

/// The resident pool shared by the hot workloads: 48 instances
/// averaging about 66 nodes (≈1.7 KB of request plus response frames
/// each), covering every kernel the service dispatches to.
fn hot_pool(rng: &mut Rng) -> Vec<PolicyRequest> {
    let layout = [
        (Kind::Groupput, 30, 48..=96),
        (Kind::AnyputGray, 4, 3..=10),
        (Kind::AnyputFactorized, 4, 16..=24),
        (Kind::GridHomogeneous, 6, 32..=128),
        (Kind::OffGridHomogeneous, 4, 32..=128),
    ];
    layout
        .into_iter()
        .flat_map(|(kind, count, nodes)| {
            (0..count)
                .map(|j| instance(kind, j, count, nodes.clone(), rng))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Kind of the cold universe's member at each popularity rank, repeating
/// every 20 ranks: 45% groupput, 15% each Gray-code anyput, factorized
/// anyput and in-grid homogeneous, 10% off-grid homogeneous. Every band
/// of popularity gets the same mix, whatever the seed.
const COLD_PATTERN: [Kind; 20] = {
    use Kind::*;
    [
        Groupput,
        AnyputGray,
        Groupput,
        GridFamily,
        AnyputFactorized,
        Groupput,
        OffGridHomogeneous,
        Groupput,
        AnyputGray,
        Groupput,
        GridFamily,
        AnyputFactorized,
        Groupput,
        Groupput,
        AnyputGray,
        GridFamily,
        AnyputFactorized,
        Groupput,
        OffGridHomogeneous,
        Groupput,
    ]
};

/// The cold universe, most popular first: heterogeneous groupput
/// N ∈ [3, 64] and anyput N ∈ [3, 16] (Gray-code up to 10, factorized
/// above), homogeneous N ≤ 1000 inside and outside the grid range.
/// Anyput stops at 16 nodes because its LP oracle, which every miss's
/// certificate runs, grows steeply with N (about 1 ms at 16 nodes, 6 ms
/// at 24, 20 ms at 32, near a second at 64).
fn cold_universe(rng: &mut Rng) -> Vec<PolicyRequest> {
    let count = |kind: Kind| {
        (0..COLD_UNIVERSE)
            .filter(|u| COLD_PATTERN[u % COLD_PATTERN.len()] == kind)
            .count()
    };
    let mut seen: Vec<(Kind, usize)> = Vec::new();
    (0..COLD_UNIVERSE)
        .map(|u| {
            let kind = COLD_PATTERN[u % COLD_PATTERN.len()];
            let j = match seen.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => {
                    *n += 1;
                    *n - 1
                }
                None => {
                    seen.push((kind, 1));
                    0
                }
            };
            let nodes = match kind {
                Kind::Groupput => 3..=64,
                Kind::AnyputGray => 3..=10,
                Kind::AnyputFactorized => 11..=16,
                Kind::GridHomogeneous | Kind::GridFamily => 16..=1000,
                Kind::OffGridHomogeneous => 2..=1000,
            };
            instance(kind, j, count(kind), nodes, rng)
        })
        .collect()
}

/// The `j`-th of `count` instances of `kind`. Its node count comes from
/// stratified sampling of the log range, visited in van der Corput
/// order so that every prefix (every band of popularity) spans the
/// range; σ, tolerance tier and objective cycle with `j`. Budgets are
/// stratified the same way. The seed only jitters node counts and
/// budgets within their strata and orders the nodes.
fn instance(
    kind: Kind,
    j: usize,
    count: usize,
    nodes: std::ops::RangeInclusive<usize>,
    rng: &mut Rng,
) -> PolicyRequest {
    let sigma = [0.25, 0.5][j % 2];
    let tolerance = [1e-2, 1e-3][(j / 2) % 2];
    let strata = count.next_power_of_two() as f64;
    let p = (van_der_corput(j) + rng.unit() / strata).min(1.0 - f64::EPSILON);
    let (lo, hi) = (*nodes.start() as f64, *nodes.end() as f64 + 1.0);
    let n =
        ((lo.ln() + p * (hi.ln() - lo.ln())).exp() as usize).clamp(*nodes.start(), *nodes.end());
    // Homogeneous budgets are stratified over the kind's instances too,
    // in base-3 order so that they do not follow the node counts.
    let q = (radical_inverse(j, 3) + rng.unit() / count as f64).min(1.0 - f64::EPSILON);
    let heterogeneous = |rng: &mut Rng, objective| PolicyRequest {
        budgets_w: stratified_log_uniform(n, 2e-6, 40e-6, rng),
        listen_w: LISTEN_W,
        transmit_w: TRANSMIT_W,
        sigma,
        objective,
        tolerance,
    };
    match kind {
        Kind::Groupput => heterogeneous(rng, ThroughputMode::Groupput),
        Kind::AnyputGray | Kind::AnyputFactorized => heterogeneous(rng, ThroughputMode::Anyput),
        Kind::GridHomogeneous | Kind::GridFamily => {
            let n = if kind == Kind::GridFamily {
                [16, 64, 256, 1000][(j / 4) % 4]
            } else {
                n
            };
            let objective = [ThroughputMode::Groupput, ThroughputMode::Anyput][(j / 16) % 2];
            let params = NodeParams::new(log_interp(q, 2e-6, 40e-6), LISTEN_W, TRANSMIT_W);
            PolicyRequest::homogeneous(n, params, sigma, objective, tolerance)
        }
        // Budgets of 12–30 mW exceed the default grid's 10 mW roof.
        Kind::OffGridHomogeneous => {
            let params = NodeParams::from_milliwatts(log_interp(q, 12.0, 30.0), 67.0, 33.0);
            PolicyRequest::homogeneous(n, params, sigma, ThroughputMode::Groupput, tolerance)
        }
    }
}

/// The base-2 van der Corput sequence: `j` with its bits mirrored
/// around the binary point.
fn van_der_corput(j: usize) -> f64 {
    (j as u64).reverse_bits() as f64 / 2f64.powi(64)
}

/// The van der Corput sequence in `base`: `j`'s digits mirrored around
/// the radix point.
fn radical_inverse(mut j: usize, base: usize) -> f64 {
    let (mut x, mut scale) = (0.0, 1.0);
    while j > 0 {
        scale /= base as f64;
        x += (j % base) as f64 * scale;
        j /= base;
    }
    x
}

/// The point at `p ∈ [0, 1)` of the log scale from `lo` to `hi`.
fn log_interp(p: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + p * (hi.ln() - lo.ln())).exp()
}

/// `n` per-node budgets log-uniform on `[lo, hi)`, one from each of `n`
/// equal strata, in shuffled order: every instance of a size gets nearly
/// the same spread of budgets, whatever the seed.
fn stratified_log_uniform(n: usize, lo: f64, hi: f64, rng: &mut Rng) -> Vec<f64> {
    let strata: Vec<f64> = (0..n)
        .map(|k| log_interp((k as f64 + rng.unit()) / n as f64, lo, hi))
        .collect();
    shuffled(n, rng).into_iter().map(|k| strata[k]).collect()
}

/// `0..n` in a seeded random order.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// The same instance with its node order shuffled.
fn permuted(req: &PolicyRequest, rng: &mut Rng) -> PolicyRequest {
    let mut out = req.clone();
    for i in (1..out.budgets_w.len()).rev() {
        out.budgets_w.swap(i, rng.below(i + 1));
    }
    out
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at CDF position `u ∈ [0, 1)`.
    fn at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a name, to separate the workloads' random streams.
fn fnv(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}
