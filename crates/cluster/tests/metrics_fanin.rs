//! Cluster-wide v7 metrics fan-in pinned against ground truth: a
//! `MetricsRequest` through the front must equal the merge of direct
//! per-backend scrapes plus the front's own share — including after a
//! mid-run backend kill — and a respawned backend restarting its
//! counters at zero must never drag the front's aggregate backwards
//! (the per-slot re-base carries the dead incarnation's totals
//! forward).
//!
//! One test in its own binary: the expected values come from the
//! front process's own components, which must stay quiescent between
//! the aggregate scrape and the ground-truth scrapes.

use econcast_cluster::{
    ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, FrontHandle, RemoteConfig, SlotSpec,
    Supervisor, SupervisorConfig,
};
use econcast_metrics::{
    MetricsSnapshot, CTR_REQUESTS, GAUGE_LIVE_BACKENDS, GAUGE_LRU_ENTRIES, GAUGE_QUEUE_DEPTH,
    GAUGE_SATURATION_OPEN,
};
use econcast_service::workload::mixed_batch;
use econcast_service::PolicyClient;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// The backend executable Cargo built for this crate's tests.
fn backend_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_policy_backend"))
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        remote: RemoteConfig {
            dial_retries: 2,
            // One failure marks a backend down and it stays down until
            // explicitly retargeted — no reprobe racing the assertions.
            unhealthy_after: 1,
            reprobe_after: Duration::from_secs(3600),
            ..RemoteConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Ground truth: Σ direct backend scrapes + the front's own share —
/// the router's counters and its fallback solver's counters and
/// latency histograms, and the front's admission counters. The
/// front-local values come from the components that record them, not
/// from a process-global tally.
fn expected_sum(front: &FrontHandle, addrs: &[SocketAddr]) -> MetricsSnapshot {
    let mut sum = front.router().lock().unwrap().metrics();
    sum.merge(&front.admission().metrics());
    for &addr in addrs {
        let direct = PolicyClient::connect(addr, 1)
            .expect("connect backend")
            .metrics()
            .expect("backend scrape");
        sum.merge(&direct);
    }
    sum
}

#[test]
fn metrics_fan_in_equals_backend_sum_and_survives_kill_and_respawn() {
    let batch = mixed_batch(64);
    let mut sup =
        Supervisor::spawn(backend_bin(), 2, SupervisorConfig::default()).expect("spawn backends");
    let slots: Vec<SlotSpec> = sup.addrs().into_iter().map(SlotSpec::Remote).collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, cluster_cfg()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();
    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    // Serve the batch twice: the doomed backend's totals must end up
    // strictly above anything its replacement can accumulate from one
    // re-serve, so the counter reset is an observable decrease (a
    // replacement that exactly re-earns its predecessor's totals is
    // indistinguishable from no restart — and needs no re-basing).
    for _ in 0..2 {
        let out = client.serve_batch(&batch).expect("serve");
        assert!(out.iter().all(Result::is_ok));
    }

    // 1. Fan-in == Σ backends + front-local: counters and histograms
    // exactly; the cluster gauges are the router's own.
    let aggregate = client.metrics().expect("front scrape");
    let expected = expected_sum(&front, &sup.addrs());
    assert_eq!(aggregate.counters, expected.counters, "counter fan-in");
    assert_eq!(aggregate.hists, expected.hists, "histogram fan-in");
    assert_eq!(aggregate.counters[CTR_REQUESTS], 2 * batch.len() as u64);
    assert_eq!(
        aggregate.gauge(GAUGE_LRU_ENTRIES),
        expected.gauge(GAUGE_LRU_ENTRIES),
        "idle fallback adds no LRU residency"
    );
    assert_eq!(aggregate.gauge(GAUGE_QUEUE_DEPTH), 0, "quiescent scrape");
    assert_eq!(aggregate.gauge(GAUGE_LIVE_BACKENDS), 2);
    assert_eq!(aggregate.gauge(GAUGE_SATURATION_OPEN), 0);

    // What the doomed incarnation last reported — the totals the
    // re-base must carry forward after the heal.
    let dead = PolicyClient::connect(sup.addr(0), 1)
        .expect("connect backend 0")
        .metrics()
        .expect("scrape backend 0");

    // 2. Mid-run kill: backend 0 dies, the next chunk fails over at
    // the front, and the fan-in still equals what the cluster can
    // currently see (the survivor plus the front's own plane, which
    // now includes the failover re-serves).
    sup.kill(0).expect("kill backend 0");
    let out = client
        .serve_batch(&batch[..32])
        .expect("serve through the kill");
    assert!(out.iter().all(Result::is_ok));
    let after_kill = client.metrics().expect("front scrape after kill");
    let expected = expected_sum(&front, &sup.addrs()[1..]);
    assert_eq!(
        after_kill.counters, expected.counters,
        "fan-in after the kill"
    );
    assert_eq!(after_kill.hists, expected.hists);
    assert_eq!(
        after_kill.gauge(GAUGE_LIVE_BACKENDS),
        1,
        "slot 0 marked down"
    );

    // 3. Respawn: the replacement restarts at zero. The per-slot
    // re-base folds the dead incarnation's last-seen totals into the
    // slot's base, so no aggregate counter ever moves backwards
    // across the heal.
    let fresh = sup.respawn(0).expect("respawn backend 0");
    {
        let router = front.router();
        let mut guard = router.lock().unwrap();
        assert!(guard.retarget_slot(0, fresh));
    }
    let out = client.serve_batch(&batch).expect("serve after respawn");
    assert!(out.iter().all(Result::is_ok));
    let healed = client.metrics().expect("front scrape after respawn");
    for (i, (&now, &before)) in healed.counters.iter().zip(&aggregate.counters).enumerate() {
        assert!(
            now >= before,
            "counter {i} went backwards across the respawn: {now} < {before}"
        );
    }
    // And the re-based aggregate is exact, not merely monotone: Σ live
    // scrapes + front-local + the dead incarnation's carried totals
    // (counters and histograms only — a dead process holds no live
    // gauge state).
    let mut expected = expected_sum(&front, &sup.addrs());
    let mut carried = dead.clone();
    for gauge in &mut carried.gauges {
        gauge.1 = 0;
    }
    expected.merge(&carried);
    assert_eq!(
        healed.counters, expected.counters,
        "re-based counter fan-in"
    );
    assert_eq!(healed.hists, expected.hists, "re-based histogram fan-in");
    assert_eq!(healed.gauge(GAUGE_LIVE_BACKENDS), 2, "slot 0 healthy again");

    drop(client);
    front.shutdown();
}
