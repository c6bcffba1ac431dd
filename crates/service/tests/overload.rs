//! Overload-control integration: the shed ladder, deadline budgets,
//! and degraded serving observed through a real socket server.
//!
//! The admission queue is pinned deterministically via the server
//! handle's shared [`AdmissionController`] (occupying slots exactly
//! as in-flight requests would), so every ladder rung is exercised
//! without racing the connection handler's read loop.

use econcast_core::NodeParams;
use econcast_proto::service::ServiceErrorCode;
use econcast_service::workload::mixed_batch;
use econcast_service::{
    degraded_tolerance, PolicyClient, PolicyRequest, PolicyServer, PolicyService, RouterConfig,
    ServerConfig, ServiceConfig,
};
use econcast_statespace::{quantize_tolerance, solve_p4, P4Options};
use std::time::Duration;

fn server(queue_capacity: usize, max_queue_delay: Duration) -> ServerConfig {
    ServerConfig {
        router: RouterConfig {
            shards: 1,
            service: ServiceConfig {
                workers: Some(1),
                queue_capacity,
                max_queue_delay,
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

#[test]
fn full_queue_sheds_with_retry_hint_never_resets() {
    // Queue pinned at capacity: every further request walks off
    // the top of the ladder — an explicit `Overloaded` with a usable
    // retry hint, never a dropped request or a closed connection.
    let handle = PolicyServer::bind("127.0.0.1:0", server(2, Duration::from_millis(25)))
        .expect("bind")
        .spawn();
    let adm = handle.admission().clone();
    let _ = adm.admit();
    let _ = adm.admit(); // depth == capacity

    let batch = mixed_batch(8);
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    let got = client.serve_batch(&batch).expect("stream stays healthy");
    assert_eq!(got.len(), batch.len());
    for (i, r) in got.iter().enumerate() {
        let e = r.as_ref().expect_err("request should be shed");
        assert_eq!(e.code, ServiceErrorCode::Overloaded, "request {i}");
        assert!(
            e.retry_after_us >= 25_000,
            "hint floors at max_queue_delay, got {}",
            e.retry_after_us
        );
    }

    // Shed requests hold no queue slot, so the bounded queue never
    // grew past its pin.
    assert_eq!(adm.depth(), 2);
    let stats = client.stats(None).expect("stats");
    assert_eq!(stats.shed_rejects, batch.len() as u64);
    assert!(stats.queue_depth_peak <= 2);

    // The connection survives shedding: control plane still answers,
    // and once the queue drains the same stream serves normally.
    client.ping().expect("ping while saturated");
    adm.release(2, Duration::from_millis(1));
    let again = client.serve_batch(&batch[..2]).expect("serve after drain");
    assert!(again.iter().all(Result::is_ok), "drained queue serves");

    drop(client);
    handle.shutdown();
}

#[test]
fn deadline_expired_request_gets_overloaded_not_a_late_result() {
    // A 1µs budget expires before any solve can finish: the caller
    // must get `Overloaded`, never the stale result it already gave
    // up on. A generous budget on the same stream serves everything
    // bit-identical to the in-process service.
    let handle = PolicyServer::bind("127.0.0.1:0", server(256, Duration::from_millis(50)))
        .expect("bind")
        .spawn();
    let batch = mixed_batch(12);
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");

    let ticket = client
        .submit_batch_deadline(&batch, Some(Duration::from_micros(1)))
        .expect("submit");
    let got = client.collect(ticket).expect("collect");
    for (i, r) in got.iter().enumerate() {
        let e = r.as_ref().expect_err("budget expired");
        assert_eq!(e.code, ServiceErrorCode::Overloaded, "request {i}");
    }
    let stats = client.stats(None).expect("stats");
    assert_eq!(stats.deadline_expired, batch.len() as u64);

    let ticket = client
        .submit_batch_deadline(&batch, Some(Duration::from_secs(30)))
        .expect("submit");
    let got = client.collect(ticket).expect("collect");
    let expected = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    })
    .serve_batch(&batch);
    for (g, e) in got.iter().zip(&expected) {
        let (g, e) = (g.as_ref().expect("served in budget"), e.as_ref().unwrap());
        assert_eq!(g.throughput.to_bits(), e.throughput.to_bits());
    }
    assert_eq!(
        client.stats(None).expect("stats").deadline_expired,
        batch.len() as u64,
        "generous budgets expire nothing"
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn degraded_serves_stay_within_relaxed_tolerance() {
    // Queue pinned into the degraded band (above the degrade
    // threshold, below capacity): every request is served — zero
    // sheds — at the relaxed tolerance, and the answer still matches
    // a fresh exact solve within that relaxed (never looser) tier.
    let stated = 1e-3;
    let relaxed = quantize_tolerance(degraded_tolerance(stated));
    assert_eq!(relaxed, 1e-2);

    let handle = PolicyServer::bind("127.0.0.1:0", server(8, Duration::from_millis(50)))
        .expect("bind")
        .spawn();
    let adm = handle.admission().clone();
    for _ in 0..4 {
        let _ = adm.admit(); // degrade_at == 4: band is 5..=8
    }

    let batch: Vec<PolicyRequest> = (2..6)
        .map(|n| {
            PolicyRequest::homogeneous(
                n,
                NodeParams::from_microwatts(10.0, 500.0, 450.0),
                0.5,
                econcast_core::ThroughputMode::Groupput,
                stated,
            )
        })
        .collect();
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    let got = client.serve_batch(&batch).expect("serve");

    for (i, (r, req)) in got.iter().zip(&batch).enumerate() {
        let r = r.as_ref().expect("degraded, not shed");
        let nodes: Vec<NodeParams> = req
            .budgets_w
            .iter()
            .map(|&b| NodeParams::new(b, req.listen_w, req.transmit_w))
            .collect();
        let fresh = solve_p4(&nodes, req.sigma, req.objective, P4Options::default());
        for p in &r.policies {
            assert!(
                rel(p.listen, fresh.alpha[0]) <= relaxed,
                "request {i}: alpha {} vs fresh {}",
                p.listen,
                fresh.alpha[0]
            );
            assert!(
                rel(p.transmit, fresh.beta[0]) <= relaxed,
                "request {i}: beta {} vs fresh {}",
                p.transmit,
                fresh.beta[0]
            );
        }
        assert!(
            rel(r.throughput, fresh.throughput) <= relaxed,
            "request {i}"
        );
        // The certificate still sandwiches what was actually served —
        // a degraded response reports its achieved accuracy honestly.
        assert!(
            r.cert_t_sigma <= r.cert_oracle * (1.0 + 1e-9),
            "request {i}"
        );
        assert!(
            r.cert_oracle <= r.cert_dual_upper * (1.0 + 1e-9),
            "request {i}"
        );
    }

    let stats = client.stats(None).expect("stats");
    assert_eq!(stats.degraded_serves, batch.len() as u64);
    assert_eq!(stats.shed_rejects, 0);

    adm.release(4, Duration::from_millis(1));
    drop(client);
    handle.shutdown();
}
