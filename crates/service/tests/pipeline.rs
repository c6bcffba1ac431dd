//! Pipelined data-plane acceptance tests: multiple correlation groups
//! in flight on one connection must collect out of order, interleave
//! arbitrarily on the wire, fail independently under mid-stream
//! corruption, and gather bit-identically in request order regardless
//! of server worker count.

use econcast_proto::service::{ServiceCodec, ServiceMessage, WirePolicy, WirePolicyResponse};
use econcast_service::workload::mixed_batch;
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyResponse, PolicyServer, PolicyService, RouterConfig,
    ServerConfig, ServiceConfig, ServiceError,
};
use std::io::{Read, Write};

fn server(shards: usize, workers: usize) -> ServerConfig {
    ServerConfig {
        router: RouterConfig {
            shards,
            service: ServiceConfig {
                workers: Some(workers),
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Payload bits must match the in-process reference exactly; the tier
/// label may alias to `Exact` when the server replays a solve from its
/// LRU (see the socket suite for the rationale).
fn assert_bit_identical(
    got: &[Result<
        econcast_proto::service::WirePolicyResponse,
        econcast_proto::service::WirePolicyError,
    >],
    expected: &[Result<PolicyResponse, ServiceError>],
    label: &str,
) {
    assert_eq!(got.len(), expected.len(), "{label}: length");
    for (i, (wire, exp)) in got.iter().zip(expected).enumerate() {
        let (wire, exp) = (
            wire.as_ref()
                .unwrap_or_else(|e| panic!("{label} req {i}: {e:?}")),
            exp.as_ref().expect("reference served"),
        );
        assert_eq!(wire.policies.len(), exp.policies.len(), "{label} req {i}");
        for (wp, np) in wire.policies.iter().zip(&exp.policies) {
            assert_eq!(wp.listen.to_bits(), np.listen.to_bits(), "{label} req {i}");
            assert_eq!(
                wp.transmit.to_bits(),
                np.transmit.to_bits(),
                "{label} req {i}"
            );
        }
        assert_eq!(
            wire.throughput.to_bits(),
            exp.throughput.to_bits(),
            "{label} req {i}"
        );
        assert_eq!(
            wire.cert_t_sigma.to_bits(),
            exp.certificate.t_sigma.to_bits(),
            "{label} req {i}"
        );
        assert_eq!(
            wire.cert_oracle.to_bits(),
            exp.certificate.oracle.to_bits(),
            "{label} req {i}"
        );
        assert_eq!(
            wire.cert_dual_upper.to_bits(),
            exp.certificate.dual_upper.to_bits(),
            "{label} req {i}"
        );
        assert_eq!(wire.converged, exp.converged, "{label} req {i}");
    }
}

#[test]
fn tickets_collect_in_every_permutation_order() {
    // Three batches in flight on one connection; collecting the
    // tickets in any of the 6 permutation orders yields each batch's
    // replies in its own request order, bit-identical to the
    // in-process service. Property-style: every permutation runs
    // against live pipelined TCP.
    let whole = mixed_batch(18);
    let chunks: Vec<&[PolicyRequest]> = whole.chunks(6).collect();

    let mut single = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let expected: Vec<Vec<Result<PolicyResponse, ServiceError>>> =
        chunks.iter().map(|c| single.serve_batch(c)).collect();

    let handle = PolicyServer::bind("127.0.0.1:0", server(2, 1))
        .expect("bind")
        .spawn();
    let mut client = PolicyClient::connect(handle.addr(), 6).expect("connect");

    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for perm in PERMS {
        let tickets: Vec<_> = chunks
            .iter()
            .map(|c| client.submit_batch(*c).expect("submit"))
            .collect();
        // Redeem out of submission order: replies for not-yet-asked
        // tickets get filed while an earlier collect drains the wire.
        let mut got: Vec<Option<_>> = vec![None, None, None];
        for &k in &perm {
            got[k] = Some(client.collect(tickets[k]).expect("collect"));
        }
        for k in 0..3 {
            assert_bit_identical(
                got[k].as_ref().unwrap(),
                &expected[k],
                &format!("perm {perm:?} batch {k}"),
            );
        }
    }

    drop(client);
    handle.shutdown();
}

/// A hand-rolled server that answers a fixed number of requests in a
/// caller-chosen order (indices into arrival order), tagging each
/// reply's throughput with its request id, then optionally appends
/// `tail` raw bytes and either keeps the connection open or closes it.
fn interleaving_fake_server(
    expect: usize,
    reply_order: Vec<usize>,
    corrupt_last: bool,
    truncate_tail: bool,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut codec = ServiceCodec::new();
        let mut buf = [0u8; 64 * 1024];
        let mut requests = Vec::new();
        while requests.len() < expect {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            codec.feed(&buf[..n]);
            let Ok(messages) = codec.drain() else { return };
            let mut out = bytes::BytesMut::new();
            for msg in messages {
                match msg {
                    ServiceMessage::Hello(h) => ServiceCodec::encode(
                        &ServiceMessage::Welcome(econcast_proto::service::WireWelcome {
                            id: h.id,
                            shards: 1,
                            max_batch: 64,
                        }),
                        &mut out,
                    ),
                    ServiceMessage::Request(r) => requests.push(r),
                    _ => {}
                }
            }
            if !out.is_empty() && stream.write_all(&out).is_err() {
                return;
            }
        }
        // Every expected request arrived (both tickets are in flight
        // client-side). Reply in the chosen interleaving.
        let mut out = bytes::BytesMut::new();
        for (k, &i) in reply_order.iter().enumerate() {
            let r = &requests[i];
            let reply = ServiceMessage::Response(WirePolicyResponse {
                corr: r.corr,
                id: r.id,
                tier: econcast_service::ServedTier::Exact,
                kernel: econcast_service::PolicyKernel::ClosedForm,
                converged: true,
                throughput: f64::from(r.id),
                cert_t_sigma: 1.0,
                cert_oracle: 2.0,
                cert_dual_upper: 3.0,
                policies: r
                    .budgets_w
                    .iter()
                    .map(|_| WirePolicy {
                        listen: 0.1,
                        transmit: 0.01,
                    })
                    .collect(),
            });
            if corrupt_last && k + 1 == reply_order.len() {
                // Correctly length-prefixed frame whose body fails CRC.
                let mut corrupt = bytes::BytesMut::new();
                ServiceCodec::encode(&reply, &mut corrupt);
                let last = corrupt.len() - 1;
                corrupt[last] ^= 0xFF;
                out.extend_from_slice(&corrupt);
            } else if truncate_tail && k + 1 == reply_order.len() {
                // Length prefix promises a frame; only half arrives
                // before the connection dies.
                let mut whole = bytes::BytesMut::new();
                ServiceCodec::encode(&reply, &mut whole);
                out.extend_from_slice(&whole[..whole.len() / 2]);
            } else {
                ServiceCodec::encode(&reply, &mut out);
            }
        }
        let _ = stream.write_all(&out);
        if truncate_tail {
            return; // close: the promised bytes never come
        }
        // Keep the connection open so errors are decode errors, not
        // EOF; drain until the client hangs up.
        while !matches!(stream.read(&mut buf), Ok(0) | Err(_)) {}
    });
    (addr, handle)
}

#[test]
fn replies_interleave_across_correlation_ids() {
    // Two tickets of 3; the server answers in an order that both
    // interleaves the correlation groups and reverses within each
    // group. Each collect still returns its own batch in request
    // order, identified by the id echoed through the throughput tag.
    let (addr, fake) = interleaving_fake_server(6, vec![5, 0, 3, 2, 1, 4], false, false);
    let batch = mixed_batch(3);
    let mut client = PolicyClient::connect(addr, 3).expect("connect");

    let t1 = client.submit_batch(&batch).expect("submit 1");
    let t2 = client.submit_batch(&batch).expect("submit 2");
    // Collect in reverse submission order for good measure.
    let got2 = client.collect(t2).expect("collect 2");
    let got1 = client.collect(t1).expect("collect 1");

    let ids = |got: &[econcast_service::WireResult]| -> Vec<f64> {
        got.iter()
            .map(|r| r.as_ref().expect("served").throughput)
            .collect()
    };
    let (ids1, ids2) = (ids(&got1), ids(&got2));
    // Request order within each ticket: consecutive ascending ids,
    // with ticket 2's ids following ticket 1's.
    assert_eq!(ids1[1], ids1[0] + 1.0);
    assert_eq!(ids1[2], ids1[0] + 2.0);
    assert_eq!(ids2[0], ids1[0] + 3.0);
    assert_eq!(ids2[1], ids1[0] + 4.0);
    assert_eq!(ids2[2], ids1[0] + 5.0);

    drop(client);
    fake.join().expect("fake server");
}

#[test]
fn mid_pipeline_corruption_fails_only_the_affected_ticket() {
    // Ticket 1's replies all arrive intact; ticket 2's second reply is
    // a CRC-corrupt frame. Collecting ticket 1 succeeds with full
    // results; collecting ticket 2 errors — the corruption takes down
    // exactly the call it belongs to.
    let (addr, fake) = interleaving_fake_server(4, vec![0, 1, 2, 3], true, false);
    let batch = mixed_batch(2);
    let mut client = PolicyClient::connect(addr, 2).expect("connect");

    let t1 = client.submit_batch(&batch).expect("submit 1");
    let t2 = client.submit_batch(&batch).expect("submit 2");
    let got1 = client.collect(t1).expect("ticket 1 is unaffected");
    assert_eq!(got1.len(), 2);
    assert!(got1.iter().all(|r| r.is_ok()));
    let err = client
        .collect(t2)
        .expect_err("ticket 2 hits the corrupt frame");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    drop(client);
    fake.join().expect("fake server");
}

#[test]
fn mid_pipeline_truncation_fails_only_the_affected_ticket() {
    // Same shape, but ticket 2's second reply is cut in half and the
    // connection closes. Ticket 1 collects cleanly from the buffered
    // intact frames; ticket 2 surfaces the truncation as EOF.
    let (addr, fake) = interleaving_fake_server(4, vec![0, 1, 2, 3], false, true);
    let batch = mixed_batch(2);
    let mut client = PolicyClient::connect(addr, 2).expect("connect");

    let t1 = client.submit_batch(&batch).expect("submit 1");
    let t2 = client.submit_batch(&batch).expect("submit 2");
    let got1 = client.collect(t1).expect("ticket 1 is unaffected");
    assert_eq!(got1.len(), 2);
    assert!(got1.iter().all(|r| r.is_ok()));
    let err = client
        .collect(t2)
        .expect_err("ticket 2 hits the truncation");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    drop(client);
    fake.join().expect("fake server");
}

#[test]
fn request_order_gathering_is_bit_identical_across_worker_counts() {
    // The pinned determinism invariant extended to the pipelined
    // path: at 1, 2, and 4 workers per shard, two in-flight tickets
    // collected in reverse order gather bit-identical results.
    let whole = mixed_batch(32);
    let (a, b) = whole.split_at(16);

    let mut single = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let expected_a = single.serve_batch(a);
    let expected_b = single.serve_batch(b);

    for workers in [1usize, 2, 4] {
        let handle = PolicyServer::bind("127.0.0.1:0", server(2, workers))
            .expect("bind")
            .spawn();
        let mut client = PolicyClient::connect(handle.addr(), 16).expect("connect");
        let ta = client.submit_batch(a).expect("submit a");
        let tb = client.submit_batch(b).expect("submit b");
        let got_b = client.collect(tb).expect("collect b");
        let got_a = client.collect(ta).expect("collect a");
        assert_bit_identical(&got_a, &expected_a, &format!("workers={workers} batch a"));
        assert_bit_identical(&got_b, &expected_b, &format!("workers={workers} batch b"));
        drop(client);
        handle.shutdown();
    }
}
