//! The seeded random-request stream the routing tests share: the
//! router's unit tests include it from the service crate's root, and
//! the cluster crate's router tests from theirs. Either root must have
//! `PolicyRequest` in scope.

use super::PolicyRequest;
use econcast_core::ThroughputMode;

/// A splitmix64 stream for generated requests.
#[derive(Debug, Clone)]
pub struct Gen(pub u64);

impl Gen {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo * (hi / lo).powf(u)
    }
}

/// A random valid request: N in 1..=4000, budgets drawn from a
/// small pool so duplicates are common, either mode, σ and the
/// radio powers log-uniform, and a tolerance anywhere inside a
/// random decade (including past both clamps).
pub fn random_request(g: &mut Gen) -> PolicyRequest {
    let max_n = if g.below(4) == 0 { 4000 } else { 64 };
    let n = 1 + g.below(max_n);
    let pool: Vec<f64> = (0..1 + g.below(n))
        .map(|_| g.log_uniform(1e-7, 1e-3))
        .collect();
    let decade = 10f64.powi(-(g.below(12) as i32));
    let pool_len = pool.len();
    PolicyRequest {
        budgets_w: (0..n).map(|_| pool[g.below(pool_len)]).collect(),
        listen_w: g.log_uniform(1e-4, 1e-2),
        transmit_w: g.log_uniform(1e-4, 1e-2),
        sigma: g.log_uniform(1e-2, 4.0),
        objective: if g.below(2) == 0 {
            ThroughputMode::Groupput
        } else {
            ThroughputMode::Anyput
        },
        tolerance: decade * g.log_uniform(1.0, 10.0),
    }
}
