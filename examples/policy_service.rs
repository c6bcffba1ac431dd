//! Policy service end-to-end: a fleet manager asks the wire API for
//! listen/transmit policies.
//!
//! Sends a mixed batch of policy requests (a homogeneous 100-tag
//! fleet at several harvest rates, plus a heterogeneous 5-node
//! deployment and a permutation of it) to a one-shard loopback
//! `PolicyServer` through a `PolicyClient`, and prints the responses —
//! then does it again to show the warm cache answering without
//! touching a solver.
//!
//! ```text
//! cargo run --release --example policy_service
//! ```

use econcast::core::{NodeParams, ThroughputMode};
use econcast::service::{
    PolicyClient, PolicyRequest, PolicyServer, RouterConfig, ServerConfig, ServiceConfig,
};

fn main() {
    let service = ServiceConfig::default();
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 1,
                service,
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
    .spawn();
    let mut client = PolicyClient::connect(server.addr(), 64).expect("connect");

    // The batch: one fleet, three harvest conditions, plus a
    // heterogeneous site (solar / battery / mains-assisted nodes) and
    // the same site listed in a different node order.
    let mut requests: Vec<PolicyRequest> = [5.0, 10.0, 40.0]
        .iter()
        .map(|&rho_uw| {
            PolicyRequest::homogeneous(
                100,
                NodeParams::from_microwatts(rho_uw, 500.0, 450.0),
                0.5,
                ThroughputMode::Groupput,
                1e-2,
            )
        })
        .collect();
    let site = PolicyRequest {
        budgets_w: vec![5e-6, 80e-6, 12e-6, 21e-6, 9e-6],
        listen_w: 500e-6,
        transmit_w: 450e-6,
        sigma: 0.5,
        objective: ThroughputMode::Groupput,
        tolerance: 1e-3,
    };
    let mut permuted = site.clone();
    permuted.budgets_w.rotate_left(2);
    requests.push(site);
    requests.push(permuted);

    for pass in ["cold", "warm"] {
        // One pipelined batch over the socket; replies come back
        // decoded, in request order.
        let replies = client.serve_batch(&requests).expect("served");
        println!("== {pass} pass ==");
        for (i, reply) in replies.into_iter().enumerate() {
            let r = reply.expect("no errors expected in this demo");
            let p0 = &r.policies[0];
            println!(
                "req {:>2} [{:?}]: {:>3} nodes, T = {:.4}, node0 (α, β) = ({:.5}, {:.5}), \
                 certificate T^σ {:.4} ≤ T* {:.4} ≤ D(η) {:.4}",
                i,
                r.tier,
                r.policies.len(),
                r.throughput,
                p0.listen,
                p0.transmit,
                r.cert_t_sigma,
                r.cert_oracle,
                r.cert_dual_upper,
            );
        }
        let s = client.stats(None).expect("stats");
        println!(
            "stats: {} requests | exact {} · closed-form {} · solver {} | \
             lru {}/{} entries\n",
            s.requests,
            s.exact_hits,
            s.closed_form_hits,
            s.solver_solves,
            s.lru_len,
            service.lru_capacity,
        );
    }
    println!("warm pass served entirely from the exact tier — no solver ran.");
}
