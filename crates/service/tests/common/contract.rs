//! The served-answer contract the serving tests share: an answer,
//! native or off the wire, carries the reference's bits or its error
//! code, and the two counter planes agree. Test crates include it by
//! `#[path]`; it names its types through `econcast_service`,
//! `econcast_proto` and `econcast_metrics`, which every includer
//! depends on.

#![allow(dead_code)]

use econcast_metrics::{
    MetricsSnapshot, COUNTER_NAMES, CTR_AUTO_RESPAWNS, CTR_BATCHES, CTR_BATCH_DEDUP_HITS,
    CTR_BYTE_EVICTIONS, CTR_CLOSED_FORM_HITS, CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES,
    CTR_ERRORS, CTR_EXACT_HITS, CTR_EXACT_HITS_CLOSED_FORM, CTR_EXACT_HITS_FACTORIZED,
    CTR_INJECTED_FAULTS, CTR_LRU_EVICTIONS, CTR_LRU_INSERTS, CTR_QUARANTINES, CTR_REQUESTS,
    CTR_SHED_REJECTS, CTR_SOLVER_SOLVES, GAUGE_LRU_ENTRIES, GAUGE_QUEUE_DEPTH_PEAK,
};
use econcast_proto::service::{WirePolicyError, WirePolicyResponse};
use econcast_service::{
    PolicyKernel, PolicyResponse, ServedTier, ServiceError, ServiceErrorCode, ServiceStats,
};
use std::fmt::Debug;

/// What an answer must reproduce bit for bit: policies, throughput,
/// the three certificate fields, convergence and the kernel.
#[derive(Debug, PartialEq)]
pub struct Bits {
    policies: Vec<(u64, u64)>,
    throughput: u64,
    certificate: [u64; 3],
    converged: bool,
    kernel: PolicyKernel,
}

/// A served answer, native or as it came off the wire.
pub trait Answer: Debug {
    /// Its bits and tier, or its error code.
    fn served(&self) -> Result<(Bits, ServedTier), ServiceErrorCode>;
}

impl Answer for PolicyResponse {
    fn served(&self) -> Result<(Bits, ServedTier), ServiceErrorCode> {
        let c = &self.certificate;
        let bits = Bits {
            policies: self
                .policies
                .iter()
                .map(|p| (p.listen.to_bits(), p.transmit.to_bits()))
                .collect(),
            throughput: self.throughput.to_bits(),
            certificate: [c.t_sigma, c.oracle, c.dual_upper].map(f64::to_bits),
            converged: self.converged,
            kernel: self.kernel,
        };
        Ok((bits, self.tier))
    }
}

impl Answer for WirePolicyResponse {
    fn served(&self) -> Result<(Bits, ServedTier), ServiceErrorCode> {
        let bits = Bits {
            policies: self
                .policies
                .iter()
                .map(|p| (p.listen.to_bits(), p.transmit.to_bits()))
                .collect(),
            throughput: self.throughput.to_bits(),
            certificate: [self.cert_t_sigma, self.cert_oracle, self.cert_dual_upper]
                .map(f64::to_bits),
            converged: self.converged,
            kernel: self.kernel,
        };
        Ok((bits, self.tier))
    }
}

impl Answer for Result<PolicyResponse, ServiceError> {
    fn served(&self) -> Result<(Bits, ServedTier), ServiceErrorCode> {
        self.as_ref().map_err(ServiceError::wire_code)?.served()
    }
}

impl Answer for Result<WirePolicyResponse, WirePolicyError> {
    fn served(&self) -> Result<(Bits, ServedTier), ServiceErrorCode> {
        self.as_ref().map_err(|e| e.code)?.served()
    }
}

/// Asserts that `got` answers request `i` as `want` does: the same
/// bits and a tier that is equal or `Exact` on either side, or the
/// same error code. Tiers differ only through the LRU: a batching
/// boundary turns a fresh serve into an `Exact` replay, and a failover
/// re-serve turns an `Exact` replay back into a fresh serve on the
/// fallback's cold cache. An LRU entry is its producing tier's answer,
/// so the bits are pinned either way.
pub fn assert_same(what: &str, i: usize, got: &impl Answer, want: &impl Answer) {
    match (got.served(), want.served()) {
        (Ok((got, got_tier)), Ok((want, want_tier))) => {
            assert_eq!(got, want, "{what}: request {i}");
            assert!(
                got_tier == want_tier
                    || got_tier == ServedTier::Exact
                    || want_tier == ServedTier::Exact,
                "{what}: request {i}: tier {got_tier:?}, want {want_tier:?}"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}: request {i}"),
        (got, want) => panic!("{what}: request {i}: got {got:?}, want {want:?}"),
    }
}

/// [`assert_same`] over a whole batch, in request order.
pub fn assert_all_same(what: &str, got: &[impl Answer], want: &[impl Answer]) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_same(what, i, g, w);
    }
}

/// Asserts that a scrape and a serving-counter view agree on every
/// counter and gauge they share, field by registry slot.
pub fn assert_planes_agree(m: &MetricsSnapshot, s: &ServiceStats) {
    let shared = [
        (CTR_REQUESTS, s.requests),
        (CTR_BATCHES, s.batches),
        (CTR_EXACT_HITS, s.exact_hits),
        (CTR_CLOSED_FORM_HITS, s.closed_form_hits),
        (CTR_SOLVER_SOLVES, s.solver_solves),
        (CTR_BATCH_DEDUP_HITS, s.batch_dedup_hits),
        (CTR_ERRORS, s.errors),
        (CTR_LRU_INSERTS, s.lru_inserts),
        (CTR_LRU_EVICTIONS, s.lru_evictions),
        (CTR_EXACT_HITS_CLOSED_FORM, s.exact_hits_closed_form),
        (CTR_EXACT_HITS_FACTORIZED, s.exact_hits_factorized),
        (CTR_BYTE_EVICTIONS, s.byte_evictions),
        (CTR_AUTO_RESPAWNS, s.auto_respawns),
        (CTR_QUARANTINES, s.quarantines),
        (CTR_INJECTED_FAULTS, s.injected_faults),
        (CTR_SHED_REJECTS, s.shed_rejects),
        (CTR_DEGRADED_SERVES, s.degraded_serves),
        (CTR_DEADLINE_EXPIRED, s.deadline_expired),
    ];
    for (idx, v) in shared {
        assert_eq!(m.counter(idx), v, "{}", COUNTER_NAMES[idx]);
    }
    assert_eq!(m.gauge(GAUGE_LRU_ENTRIES), s.lru_len);
    assert_eq!(m.gauge(GAUGE_QUEUE_DEPTH_PEAK), s.queue_depth_peak);
}
