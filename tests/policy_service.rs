//! End-to-end acceptance tests for the policy-serving subsystem:
//! a 256-request mixed batch must be answered bit-identically at any
//! worker count, warm-cache exact-tier hits must skip the solvers
//! entirely, and the wire front-end must agree with the native path.

use econcast::proto::service::{ServiceCodec, ServiceMessage};
use econcast::service::{
    PolicyRequest, PolicyResponse, PolicyService, ServedTier, ServiceConfig, ServiceError,
    WireServer,
};

const L: f64 = 500e-6;
const X: f64 = 450e-6;

/// The deterministic 256-request mixed batch (the canonical
/// acceptance workload, shared with the socket tests and the
/// `policy_server` example).
fn mixed_batch() -> Vec<PolicyRequest> {
    econcast::service::workload::mixed_batch(256)
}

fn bits_equal(a: &PolicyResponse, b: &PolicyResponse) -> bool {
    a.throughput.to_bits() == b.throughput.to_bits()
        && a.converged == b.converged
        && a.policies.len() == b.policies.len()
        && a.policies.iter().zip(&b.policies).all(|(x, y)| {
            x.listen.to_bits() == y.listen.to_bits() && x.transmit.to_bits() == y.transmit.to_bits()
        })
        && a.certificate.t_sigma.to_bits() == b.certificate.t_sigma.to_bits()
        && a.certificate.oracle.to_bits() == b.certificate.oracle.to_bits()
        && a.certificate.dual_upper.to_bits() == b.certificate.dual_upper.to_bits()
}

fn serve_with_workers(workers: usize) -> Vec<Result<PolicyResponse, ServiceError>> {
    let mut svc = PolicyService::new(ServiceConfig {
        workers: Some(workers),
        ..ServiceConfig::default()
    });
    svc.serve_batch(&mixed_batch())
}

#[test]
fn mixed_batch_bit_identical_across_worker_counts() {
    let reference = serve_with_workers(1);
    assert_eq!(reference.len(), 256);
    assert!(
        reference.iter().all(|r| r.is_ok()),
        "mixed batch all serves"
    );
    for workers in [2usize, 4] {
        let got = serve_with_workers(workers);
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.tier, b.tier,
                "request {i}: tier diverged at {workers} workers"
            );
            assert!(
                bits_equal(a, b),
                "request {i}: response diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn mixed_batch_exercises_every_tier_and_warm_cache_skips_solvers() {
    let batch = mixed_batch();
    let mut svc = PolicyService::new(ServiceConfig {
        workers: Some(2),
        ..ServiceConfig::default()
    });
    let cold = svc.serve_batch(&batch);
    assert!(cold.iter().all(|r| r.is_ok()));
    let after_cold = svc.stats();
    assert!(
        after_cold.solver_solves > 0,
        "heterogeneous instances solved"
    );
    assert!(after_cold.closed_form_hits > 0, "homogeneous tier used");
    assert!(after_cold.batch_dedup_hits > 0, "padding deduplicated");

    // Warm pass: every request is an exact-tier hit; no solver of any
    // kind runs again.
    let warm = svc.serve_batch(&batch);
    let after_warm = svc.stats();
    assert_eq!(
        after_warm.exact_hits - after_cold.exact_hits,
        256,
        "every warm request served from the exact tier"
    );
    assert_eq!(after_warm.solver_solves, after_cold.solver_solves);
    assert_eq!(after_warm.closed_form_hits, after_cold.closed_form_hits);
    assert_eq!(after_warm.batch_dedup_hits, after_cold.batch_dedup_hits);

    // Warm answers are bit-identical to cold ones (modulo the tier
    // label, which now reads Exact).
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(w.tier, ServedTier::Exact);
        assert!(
            bits_equal(c, w),
            "request {i}: warm replay diverged from cold"
        );
    }
}

/// A homogeneous-heavy batch: several families (node count, σ,
/// objective) at µW–mW budgets and tolerances 1e-1…1e-3, plus a few
/// heterogeneous instances, with every request repeated so a small
/// cache must evict and re-solve.
fn homogeneous_heavy_batch() -> Vec<PolicyRequest> {
    let mut reqs = Vec::new();
    for (k, &n) in [2usize, 7, 12, 50, 200].iter().enumerate() {
        for (j, &rho_uw) in [3.0, 10.0, 37.0, 410.0, 2600.0].iter().enumerate() {
            let objective = if (k + j) % 2 == 0 {
                econcast::core::ThroughputMode::Groupput
            } else {
                econcast::core::ThroughputMode::Anyput
            };
            reqs.push(PolicyRequest {
                budgets_w: vec![rho_uw * 1e-6; n],
                listen_w: L,
                transmit_w: X,
                sigma: if j % 2 == 0 { 0.5 } else { 0.25 },
                objective,
                tolerance: [1e-1, 1e-2, 1e-3][(k + 2 * j) % 3],
            });
        }
    }
    for k in 0..4 {
        reqs.push(PolicyRequest {
            budgets_w: vec![5e-6, (10 + k) as f64 * 1e-6, 20e-6],
            listen_w: L,
            transmit_w: X,
            sigma: 0.5,
            objective: econcast::core::ThroughputMode::Groupput,
            tolerance: 1e-2,
        });
    }
    let repeat = reqs.clone();
    reqs.extend(repeat);
    reqs
}

#[test]
fn byte_budget_never_changes_an_answer() {
    // The cache byte budget bounds what the exact tier holds; it must
    // never decide which computation answers a request. 512 B holds
    // at most a couple of small entries, so most requests here solve
    // afresh under it and replay from the cache without it. The bits
    // must agree either way, at every worker count.
    let batch = homogeneous_heavy_batch();
    let serve = |workers: usize, max_cache_bytes: Option<usize>| {
        let mut svc = PolicyService::new(ServiceConfig {
            workers: Some(workers),
            max_cache_bytes,
            ..ServiceConfig::default()
        });
        // One batch, then each request on its own: the second pass
        // replays whatever the budget let the cache keep.
        let mut out = svc.serve_batch(&batch);
        out.extend(batch.iter().map(|req| svc.serve(req)));
        (out, svc.stats())
    };
    let (reference, unbudgeted) = serve(1, None);
    assert_eq!(unbudgeted.lru_evictions, 0);
    for workers in [1usize, 2, 4] {
        for budget in [None, Some(512)] {
            let (got, stats) = serve(workers, budget);
            if budget.is_some() {
                assert!(stats.byte_evictions > 0, "the budget must bite");
            }
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert!(
                    bits_equal(a, b) && a.kernel == b.kernel,
                    "request {i} diverged at {workers} workers, budget {budget:?}: \
                     {:?}/{:?} vs {:?}/{:?}",
                    a.tier,
                    a.kernel,
                    b.tier,
                    b.kernel
                );
            }
        }
    }
}

#[test]
fn wire_server_matches_native_serving() {
    use bytes::BytesMut;

    let batch: Vec<PolicyRequest> = mixed_batch().into_iter().take(24).collect();

    // Native reference.
    let mut native = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let expected = native.serve_batch(&batch);

    // Wire path: encode all requests, feed in ragged chunks, poll once.
    let mut wire = BytesMut::new();
    for (id, req) in batch.iter().enumerate() {
        ServiceCodec::encode(&ServiceMessage::Request(req.to_wire(id as u32)), &mut wire);
    }
    let mut server = WireServer::new(PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    }));
    for chunk in wire.chunks(7) {
        server.feed(chunk);
    }
    let out = server.poll_batch().expect("clean stream");

    // Decode the responses and compare with the native results.
    let mut codec = ServiceCodec::new();
    codec.feed(&out);
    let replies = codec.drain().expect("server output decodes");
    assert_eq!(replies.len(), batch.len());
    for (id, (reply, exp)) in replies.iter().zip(&expected).enumerate() {
        match (reply, exp) {
            (ServiceMessage::Response(w), Ok(native_resp)) => {
                assert_eq!(w.id, id as u32);
                assert_eq!(w.tier, native_resp.tier);
                assert_eq!(w.throughput.to_bits(), native_resp.throughput.to_bits());
                assert_eq!(w.policies.len(), native_resp.policies.len());
                for (wp, np) in w.policies.iter().zip(&native_resp.policies) {
                    assert_eq!(wp.listen.to_bits(), np.listen.to_bits());
                    assert_eq!(wp.transmit.to_bits(), np.transmit.to_bits());
                }
                assert_eq!(
                    w.cert_dual_upper.to_bits(),
                    native_resp.certificate.dual_upper.to_bits()
                );
            }
            other => panic!("request {id}: unexpected reply pairing {other:?}"),
        }
    }
    // Batching happened: one poll, one batch.
    assert_eq!(server.service().stats().batches, 1);
}

#[test]
fn wire_server_answers_bad_requests_with_error_messages() {
    use bytes::BytesMut;
    use econcast::proto::service::{ServiceErrorCode, WireObjective, WirePolicyRequest};

    let mut wire = BytesMut::new();
    // An invalid sigma and an oversized heterogeneous instance
    // (beyond the default 256-node ceiling — a latency budget since
    // the factorized kernel replaced enumeration, but still enforced).
    ServiceCodec::encode(
        &ServiceMessage::Request(WirePolicyRequest {
            corr: 0,
            id: 1,
            deadline_us: 0,
            objective: WireObjective::Groupput,
            sigma: -1.0,
            tolerance: 1e-2,
            listen_w: L,
            transmit_w: X,
            budgets_w: vec![1e-6, 2e-6],
        }),
        &mut wire,
    );
    ServiceCodec::encode(
        &ServiceMessage::Request(WirePolicyRequest {
            corr: 0,
            id: 2,
            deadline_us: 0,
            objective: WireObjective::Groupput,
            sigma: 0.5,
            tolerance: 1e-2,
            listen_w: L,
            transmit_w: X,
            budgets_w: (1..=300).map(|i| i as f64 * 1e-6).collect(),
        }),
        &mut wire,
    );
    let mut server = WireServer::new(PolicyService::default());
    server.feed(&wire);
    let out = server.poll_batch().unwrap();
    let mut codec = ServiceCodec::new();
    codec.feed(&out);
    let replies = codec.drain().unwrap();
    assert_eq!(replies.len(), 2);
    let codes: Vec<_> = replies
        .iter()
        .map(|m| match m {
            ServiceMessage::Error(e) => (e.id, e.code),
            other => panic!("expected error reply, got {other:?}"),
        })
        .collect();
    assert_eq!(codes[0], (1, ServiceErrorCode::BadRequest));
    assert_eq!(codes[1], (2, ServiceErrorCode::TooLarge));
    assert_eq!(server.service().stats().errors, 2);
}

#[test]
fn homogeneous_groupput_above_the_closed_form_regime_certifies_at_wire_scale() {
    // ρ = 10·L puts Appendix B's β* past 1/N: the oracle is the cap
    // N − 1 from the closed forms, with no LP over all N nodes.
    let n = econcast::proto::service::MAX_WIRE_NODES;
    let req = PolicyRequest {
        budgets_w: vec![10.0 * L; n],
        listen_w: L,
        transmit_w: X,
        sigma: 0.5,
        objective: econcast::core::ThroughputMode::Groupput,
        tolerance: 1e-3,
    };
    let mut svc = PolicyService::new(ServiceConfig::default());
    let resp = svc
        .serve(&req)
        .expect("homogeneous requests serve at any N");
    assert_eq!(resp.certificate.oracle, (n - 1) as f64);
    assert!(
        resp.certificate.is_consistent(1e-6),
        "sandwich violated: T^σ={} T*={} D={}",
        resp.certificate.t_sigma,
        resp.certificate.oracle,
        resp.certificate.dual_upper
    );
}

#[test]
fn one_budget_requests_certify_a_zero_oracle_on_every_tier() {
    // A lone node has no receiver: T* = 0 in both modes, at every
    // tolerance the closed form is asked for.
    for objective in [
        econcast::core::ThroughputMode::Groupput,
        econcast::core::ThroughputMode::Anyput,
    ] {
        let mut svc = PolicyService::new(ServiceConfig::default());
        for (rho_uw, tolerance) in [(10.0, 1e-3), (17.0, 0.1), (29.0, 0.5)] {
            let req = PolicyRequest {
                budgets_w: vec![rho_uw * 1e-6],
                listen_w: L,
                transmit_w: X,
                sigma: 0.5,
                objective,
                tolerance,
            };
            let resp = svc.serve(&req).expect("one-node requests serve");
            assert_eq!(resp.tier, ServedTier::ClosedForm);
            let cert = &resp.certificate;
            assert_eq!(cert.oracle, 0.0, "{objective:?} via {:?}", resp.tier);
            assert!(
                cert.is_consistent(1e-6),
                "{objective:?} via {:?}: T^σ={} T*={} D={}",
                resp.tier,
                cert.t_sigma,
                cert.oracle,
                cert.dual_upper
            );
        }
    }
}

#[test]
fn homogeneous_answers_stay_feasible_and_certified_down_to_tiny_sigma() {
    // At small σ consumption is a near-step in the scalar multiplier:
    // a bisection midpoint can overdraw the budget and push T^σ past
    // T*. Every answer must stay inside the budget with a valid
    // sandwich.
    let tolerance = 1e-3;
    let mut svc = PolicyService::new(ServiceConfig::default());
    for sigma in [1e-2, 1e-3, 1e-6, 1e-300] {
        for n in [1usize, 2, 50, 4000] {
            for objective in [
                econcast::core::ThroughputMode::Groupput,
                econcast::core::ThroughputMode::Anyput,
            ] {
                for rho in [10e-6, 1.0] {
                    let req = PolicyRequest {
                        budgets_w: vec![rho; n],
                        listen_w: L,
                        transmit_w: X,
                        sigma,
                        objective,
                        tolerance,
                    };
                    let at = format!("σ={sigma} N={n} {objective:?} ρ={rho}");
                    let resp = svc.serve(&req).unwrap_or_else(|e| panic!("{at}: {e:?}"));
                    let cert = &resp.certificate;
                    assert!(
                        [resp.throughput, cert.t_sigma, cert.oracle, cert.dual_upper]
                            .iter()
                            .all(|v| v.is_finite()),
                        "{at} via {:?}: {cert:?}",
                        resp.tier
                    );
                    for p in &resp.policies {
                        assert!(
                            (0.0..=1.0).contains(&p.listen) && (0.0..=1.0).contains(&p.transmit),
                            "{at} via {:?}: {p:?}",
                            resp.tier
                        );
                        let power = p.listen * L + p.transmit * X;
                        assert!(
                            power <= rho * (1.0 + 3.0 * tolerance),
                            "{at} via {:?}: draws {} of the budget",
                            resp.tier,
                            power / rho
                        );
                    }
                    assert!(
                        cert.is_consistent(1e-9),
                        "{at} via {:?}: T^σ={} T*={} D={}",
                        resp.tier,
                        cert.t_sigma,
                        cert.oracle,
                        cert.dual_upper
                    );
                }
            }
        }
    }
    // A subnormal σ is positive and finite, but 1/σ is not.
    let subnormal = PolicyRequest {
        budgets_w: vec![10e-6; 2],
        listen_w: L,
        transmit_w: X,
        sigma: 1e-310,
        objective: econcast::core::ThroughputMode::Groupput,
        tolerance,
    };
    assert!(matches!(
        svc.serve(&subnormal),
        Err(ServiceError::BadRequest(_))
    ));
}
