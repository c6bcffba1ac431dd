//! The multi-process cluster end-to-end: supervise two backend
//! `policy_backend` processes, front them with a `ClusterFront`,
//! round-trip the canonical 256-request mixed batch over real TCP,
//! pin the responses bit-for-bit against the single-process
//! `ShardRouter` path, then kill a backend mid-run and show failover
//! absorbing the loss with zero caller-visible errors.
//!
//! ```text
//! cargo build --release -p econcast-cluster --bin policy_backend
//! cargo run --release --example policy_cluster
//! ```

use econcast::cluster::{
    default_backend_binary, ClusterConfig, ClusterFront, ClusterRouter, FrontConfig, SlotSpec,
    Supervisor, SupervisorConfig,
};
use econcast::service::workload::mixed_batch;
use econcast::service::{PolicyClient, RouterConfig, ShardRouter};

fn main() {
    let Some(binary) = default_backend_binary() else {
        eprintln!(
            "policy_cluster: cannot find the `policy_backend` executable.\n\
             Build it first (same profile as this example), e.g.:\n\
             \n    cargo build --release -p econcast-cluster --bin policy_backend\n\
             \nor point ECONCAST_BACKEND_BIN at it."
        );
        std::process::exit(2);
    };

    // The canonical 256-request mixed acceptance batch, and the
    // single-process reference every deployment layer is pinned to.
    let batch = mixed_batch(256);
    let reference = ShardRouter::new(RouterConfig {
        shards: 2,
        ..RouterConfig::default()
    });
    let expected = reference.serve_batch(&batch);

    // Two backend processes under supervision, one front-end address.
    let mut sup = Supervisor::spawn(&binary, 2, SupervisorConfig::default())
        .expect("spawn backend processes");
    println!("supervisor: spawned 2 backends at {:?}", sup.addrs());
    let slots: Vec<SlotSpec> = sup.addrs().into_iter().map(SlotSpec::Remote).collect();
    let front = ClusterFront::bind(
        "127.0.0.1:0",
        ClusterRouter::new(&slots, ClusterConfig::default()),
        FrontConfig::default(),
    )
    .expect("bind front")
    .spawn();
    println!("cluster front listening on {}", front.addr());

    let mut client = PolicyClient::connect(front.addr(), 64).expect("connect");
    println!(
        "handshake: front advertises {} slots, batch cap {}",
        client.shards(),
        client.server_max_batch()
    );

    // Serve in 64-request chunks; kill backend 0 after the first —
    // mid-run — and keep going.
    let mut mismatches = 0;
    for (c, chunk) in batch.chunks(64).enumerate() {
        let replies = client.serve_batch(chunk).expect("serve over TCP");
        for (k, (wire, exp)) in replies.iter().zip(&expected[c * 64..]).enumerate() {
            let wire = wire
                .as_ref()
                .unwrap_or_else(|e| panic!("request {}: caller-visible error {e:?}", c * 64 + k));
            let exp = exp.as_ref().expect("reference served");
            let same = wire.throughput.to_bits() == exp.throughput.to_bits()
                && wire.policies.len() == exp.policies.len()
                && wire.policies.iter().zip(&exp.policies).all(|(w, n)| {
                    w.listen.to_bits() == n.listen.to_bits()
                        && w.transmit.to_bits() == n.transmit.to_bits()
                })
                && wire.cert_t_sigma.to_bits() == exp.certificate.t_sigma.to_bits()
                && wire.cert_oracle.to_bits() == exp.certificate.oracle.to_bits()
                && wire.cert_dual_upper.to_bits() == exp.certificate.dual_upper.to_bits();
            mismatches += usize::from(!same);
        }
        if c == 0 {
            sup.kill(0).expect("kill backend 0");
            println!("killed backend 0 mid-run (chunk 1 of 4 served)");
        }
    }
    assert_eq!(
        mismatches, 0,
        "cluster responses diverged from single-process"
    );
    println!("256/256 responses bit-identical to the single-process ShardRouter path");

    // Where did the work go? The distribution layer knows.
    let stats = front.router().cluster_stats();
    println!(
        "distribution: {} remote · {} failed over locally · {} backend failures · health {:?}",
        stats.remote_served, stats.local_fallbacks, stats.backend_failures, stats.healthy
    );
    assert!(
        stats.local_fallbacks > 0,
        "the kill must have forced failover"
    );

    // The operator loop: respawn the dead backend, re-target its
    // slot, and traffic flows remotely again.
    let fresh = sup.respawn(0).expect("respawn backend 0");
    front.router().retarget_slot(0, fresh);
    let before = front.router().cluster_stats().remote_served;
    client
        .serve_batch(&batch[..64])
        .expect("post-respawn batch");
    let stats = front.router().cluster_stats();
    println!(
        "respawned backend 0 at {fresh}: +{} requests served remotely, health {:?}",
        stats.remote_served - before,
        stats.healthy
    );

    // Cluster-wide serving counters fan in over the ordinary metrics
    // scrape.
    let aggregate = client.stats(None).expect("aggregate stats");
    println!(
        "fan-in: {} requests seen cluster-wide, {} served solver-free",
        aggregate.requests,
        aggregate.exact_hits + aggregate.batch_dedup_hits
    );

    drop(client);
    front.shutdown();
}
