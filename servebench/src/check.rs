//! The answer checker: every served response against an in-process
//! `PolicyService` reference, plus the per-response invariants.
//!
//! Contract: policies, throughput, certificate, kernel and convergence
//! flag are bit-identical to the reference. Tier labels are exempt
//! only under the fresh↔Exact rule: either side may read `Exact` (a
//! replay of the same producing solve) where the other read the tier
//! that produced it. Invariants: the certificate sandwich
//! `t_sigma ≤ oracle ≤ dual_upper`, α and β in [0, 1], and per-node
//! power `α·L + β·X ≤ ρ_i`, within three tolerance tiers.

use crate::workload::Plan;
use econcast_proto::WirePolicyResponse;
use econcast_service::{
    PolicyRequest, PolicyResponse, PolicyService, ServedTier, ServiceErrorCode, WireResult,
};

/// Reference answers for every call of a plan, in plan order.
pub struct Expected {
    pub warm: Vec<Vec<PolicyResponse>>,
    pub calls: Vec<Vec<PolicyResponse>>,
}

impl Expected {
    /// Serves the plan once through `reference`. The reference never
    /// evicts, so its answers are the producing solves' bits whatever
    /// order the stack later sees the requests in.
    pub fn build(plan: &Plan, reference: &mut PolicyService) -> Self {
        let mut serve = |calls: &[Vec<PolicyRequest>]| -> Vec<Vec<PolicyResponse>> {
            calls
                .iter()
                .map(|call| {
                    reference
                        .serve_batch(call)
                        .into_iter()
                        .map(|r| r.expect("generated requests are valid and within ceilings"))
                        .collect()
                })
                .collect()
        };
        let warm = serve(&plan.warm);
        let calls = serve(&plan.calls);
        Expected { warm, calls }
    }
}

/// Running outcome counts of the checker.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Responses compared with the reference (and found identical or
    /// not).
    pub compared: u64,
    /// Answered, but not as the reference answered or breaking an
    /// invariant.
    pub wrong: u64,
    /// Refused with `Overloaded`.
    pub refused: u64,
    /// Failed with any other per-request error.
    pub errors: u64,
    /// The first problem seen, for the report.
    pub first_problem: Option<String>,
}

impl Tally {
    /// Requests that failed, were refused, or were answered wrongly.
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.errors
    }

    /// Requests answered correctly.
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed()
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.compared += other.compared;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.errors += other.errors;
        if self.first_problem.is_none() {
            self.first_problem.clone_from(&other.first_problem);
        }
    }

    /// Checks one call's answers.
    pub fn call(&mut self, reqs: &[PolicyRequest], got: &[WireResult], want: &[PolicyResponse]) {
        self.attempted += reqs.len() as u64;
        if got.len() != reqs.len() {
            self.wrong += reqs.len() as u64;
            self.note(format!("{} answers for {} requests", got.len(), reqs.len()));
            return;
        }
        for ((req, got), want) in reqs.iter().zip(got).zip(want) {
            match got {
                Ok(resp) => {
                    self.compared += 1;
                    if let Err(why) = compare(req, resp, want) {
                        self.wrong += 1;
                        self.note(why);
                    }
                }
                Err(e) if e.code == ServiceErrorCode::Overloaded => {
                    self.refused += 1;
                    self.note(format!("refused: retry after {} µs", e.retry_after_us));
                }
                Err(e) => {
                    self.errors += 1;
                    self.note(format!("error {:?}", e.code));
                }
            }
        }
    }

    fn note(&mut self, why: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(why);
        }
    }
}

/// Compares one served answer with the reference and checks the
/// invariants on it.
pub fn compare(
    req: &PolicyRequest,
    got: &WirePolicyResponse,
    want: &PolicyResponse,
) -> Result<(), String> {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if got.policies.len() != want.policies.len() {
        return Err(format!(
            "{} policies, reference has {}",
            got.policies.len(),
            want.policies.len()
        ));
    }
    if !got
        .policies
        .iter()
        .zip(&want.policies)
        .all(|(g, w)| same(g.listen, w.listen) && same(g.transmit, w.transmit))
    {
        return Err("policy bits differ from the reference".into());
    }
    let cert = &want.certificate;
    if !same(got.throughput, want.throughput)
        || !same(got.cert_t_sigma, cert.t_sigma)
        || !same(got.cert_oracle, cert.oracle)
        || !same(got.cert_dual_upper, cert.dual_upper)
    {
        return Err("throughput or certificate bits differ from the reference".into());
    }
    if got.converged != want.converged || got.kernel != want.kernel {
        return Err(format!(
            "kernel/convergence {:?}/{} vs reference {:?}/{}",
            got.kernel, got.converged, want.kernel, want.converged
        ));
    }
    if !(got.tier == want.tier || got.tier == ServedTier::Exact || want.tier == ServedTier::Exact) {
        return Err(format!("tier {:?} vs reference {:?}", got.tier, want.tier));
    }
    invariants(req, got)
}

/// Relative slack on the invariants. The certificate sandwich is held to
/// the repository's own 1e-9 test margin. Node power may overshoot its
/// budget by a small multiple of the tolerance tier, the accuracy the
/// dual descent stops at (up to about twice the tier is observed);
/// three tiers is the bound checked.
fn invariants(req: &PolicyRequest, got: &WirePolicyResponse) -> Result<(), String> {
    const SANDWICH: f64 = 1e-9;
    if !(got.cert_t_sigma <= got.cert_oracle * (1.0 + SANDWICH)
        && got.cert_oracle <= got.cert_dual_upper * (1.0 + SANDWICH))
    {
        return Err(format!(
            "certificate sandwich broken: {} ≤ {} ≤ {}",
            got.cert_t_sigma, got.cert_oracle, got.cert_dual_upper
        ));
    }
    let slack = 1.0 + 3.0 * econcast_statespace::quantize_tolerance(req.tolerance);
    for (p, &rho) in got.policies.iter().zip(&req.budgets_w) {
        if !((0.0..=1.0).contains(&p.listen) && (0.0..=1.0).contains(&p.transmit)) {
            return Err(format!("α={} β={} outside [0,1]", p.listen, p.transmit));
        }
        let power = p.listen * req.listen_w + p.transmit * req.transmit_w;
        if power > rho * slack {
            return Err(format!("node power {power:e} W over its budget {rho:e} W"));
        }
    }
    Ok(())
}
