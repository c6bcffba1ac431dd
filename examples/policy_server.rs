//! The sharded TCP policy server end-to-end: spawn a 3-shard server
//! on a loopback socket, handshake, round-trip a 256-request mixed
//! batch over real TCP, and pin the responses bit-for-bit against an
//! in-process `PolicyService` serving the same batch.
//!
//! ```text
//! cargo run --release --example policy_server
//! ```

use econcast::service::workload::mixed_batch;
use econcast::service::{
    PolicyClient, PolicyServer, PolicyService, RouterConfig, ServerConfig, ServiceConfig,
};

fn main() {
    // The canonical 256-request mixed acceptance batch — the exact
    // workload the root tests pin across worker counts.
    let batch = mixed_batch(256);

    // In-process reference: one service, same per-shard config.
    let mut single = PolicyService::new(ServiceConfig::default());
    let expected = single.serve_batch(&batch);

    // The deployment: 3 shards behind a TCP listener.
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 3,
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let handle = server.spawn();
    println!("policy server listening on {} with 3 shards", handle.addr());

    let mut client = PolicyClient::connect(handle.addr(), 256).expect("connect");
    println!(
        "handshake: server advertises {} shards, batch cap {}",
        client.shards(),
        client.server_max_batch()
    );

    let replies = client.serve_batch(&batch).expect("serve 256 over TCP");
    assert_eq!(replies.len(), batch.len());

    // Pin: the TCP/sharded path returns bit-identical policies,
    // throughputs, and certificates. (Only the tier *label* may read
    // `Exact` where the in-process single batch said `Solver` etc.,
    // when TCP segmentation splits the pipeline into sub-batches.)
    let mut mismatches = 0;
    for (wire, exp) in replies.iter().zip(&expected) {
        let (wire, exp) = (
            wire.as_ref().expect("served"),
            exp.as_ref().expect("served"),
        );
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
    assert_eq!(mismatches, 0, "sharded responses diverged from in-process");
    println!("256/256 responses bit-identical to the in-process service");

    // Where did the work land? Ask the server over the wire.
    for shard in 0..client.shards() {
        let s = client.stats(Some(shard)).expect("shard stats");
        println!(
            "shard {shard}: {:>3} requests | exact {:>2} · closed-form {:>2} · \
             solver {:>2} · dedup {:>2} | lru {} entries",
            s.requests,
            s.exact_hits,
            s.closed_form_hits,
            s.solver_solves,
            s.batch_dedup_hits,
            s.lru_len,
        );
    }
    let total = client.stats(None).expect("aggregate stats");
    println!(
        "aggregate: {} requests across {} shards, {} served solver-free",
        total.requests,
        client.shards(),
        total.exact_hits + total.batch_dedup_hits,
    );

    // Warm replay: every shard answers from its exact tier.
    let before = total;
    client.serve_batch(&batch).expect("warm replay");
    let after = client.stats(None).expect("aggregate stats");
    assert_eq!(after.exact_hits - before.exact_hits, 256);
    println!("warm replay served 256/256 from the shards' exact tiers");

    drop(client);
    handle.shutdown();
}
