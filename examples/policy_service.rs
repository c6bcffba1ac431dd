//! Policy service end-to-end: a fleet manager asks the wire API for
//! listen/transmit policies.
//!
//! Encodes a mixed batch of policy requests (a homogeneous 100-tag
//! fleet at several harvest rates, plus a heterogeneous 5-node
//! deployment and a permutation of it), feeds the bytes to a
//! [`WireServer`], and decodes the responses — then does it again to
//! show the warm cache answering without touching a solver.
//!
//! ```text
//! cargo run --release --example policy_service
//! ```

use bytes::BytesMut;
use econcast::core::{NodeParams, ThroughputMode};
use econcast::proto::service::{ServiceCodec, ServiceMessage};
use econcast::service::{PolicyRequest, PolicyService, WireServer};

fn main() {
    let mut server = WireServer::new(PolicyService::default());

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
        // Client side: encode the batch onto the wire.
        let mut wire = BytesMut::new();
        for (id, req) in requests.iter().enumerate() {
            ServiceCodec::encode(&ServiceMessage::Request(req.to_wire(id as u32)), &mut wire);
        }

        // Server side: feed bytes, serve everything buffered as one
        // batch.
        server.feed(&wire);
        let reply_bytes = server.poll_batch().expect("clean stream");

        // Client side again: decode the replies.
        let mut codec = ServiceCodec::new();
        codec.feed(&reply_bytes);
        println!("== {pass} pass ==");
        for msg in codec.drain().expect("valid replies") {
            let ServiceMessage::Response(r) = msg else {
                panic!("no errors expected in this demo");
            };
            let p0 = &r.policies[0];
            println!(
                "req {:>2} [{:?}]: {:>3} nodes, T = {:.4}, node0 (α, β) = ({:.5}, {:.5}), \
                 certificate T^σ {:.4} ≤ T* {:.4} ≤ D(η) {:.4}",
                r.id,
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
        let s = server.service().stats();
        println!(
            "stats: {} requests | exact {} · closed-form {} · solver {} | \
             lru {}/{} entries\n",
            s.requests, s.exact_hits, s.closed_form_hits, s.solver_solves, s.lru_len, 1024,
        );
    }
    println!("warm pass served entirely from the exact tier — no solver ran.");
}
