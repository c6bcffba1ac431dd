//! Socket-path acceptance tests: the TCP sharded server must agree
//! bit-for-bit with the in-process service, survive adversarial
//! streams by dropping the connection, and spread concurrent clients
//! across shards.

use econcast_core::{NodeParams, ThroughputMode};
use econcast_proto::crc::crc16_ccitt;
use econcast_proto::service::{ServiceCodec, ServiceMessage, WireHello};
use econcast_service::workload::mixed_batch;
use econcast_service::{
    PolicyClient, PolicyRequest, PolicyServer, PolicyService, RouterConfig, ServerConfig,
    ServiceConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;

fn server(shards: usize) -> ServerConfig {
    ServerConfig {
        router: RouterConfig {
            shards,
            service: ServiceConfig {
                workers: Some(1),
                ..ServiceConfig::default()
            },
            ..RouterConfig::default()
        },
        ..ServerConfig::default()
    }
}

#[test]
fn tcp_sharded_responses_bit_identical_to_in_process() {
    let batch = mixed_batch(64);

    // In-process reference: one PolicyService, same per-shard config.
    let mut single = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let expected = single.serve_batch(&batch);

    let handle = PolicyServer::bind("127.0.0.1:0", server(3))
        .expect("bind")
        .spawn();
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    assert_eq!(client.shards(), 3, "welcome reports the shard count");
    let got = client.serve_batch(&batch).expect("clean round trip");

    assert_eq!(got.len(), batch.len());
    for (i, (wire, exp)) in got.iter().zip(&expected).enumerate() {
        let (wire, exp) = (wire.as_ref().unwrap(), exp.as_ref().unwrap());
        assert_eq!(wire.policies.len(), exp.policies.len());
        for (wp, np) in wire.policies.iter().zip(&exp.policies) {
            assert_eq!(wp.listen.to_bits(), np.listen.to_bits(), "request {i}");
            assert_eq!(wp.transmit.to_bits(), np.transmit.to_bits(), "request {i}");
        }
        assert_eq!(wire.throughput.to_bits(), exp.throughput.to_bits());
        assert_eq!(
            wire.cert_t_sigma.to_bits(),
            exp.certificate.t_sigma.to_bits()
        );
        assert_eq!(wire.cert_oracle.to_bits(), exp.certificate.oracle.to_bits());
        assert_eq!(
            wire.cert_dual_upper.to_bits(),
            exp.certificate.dual_upper.to_bits()
        );
        assert_eq!(wire.converged, exp.converged);
        // The tier label may shift to Exact when TCP segmentation
        // splits the pipeline into several server-side batches (an
        // alias of an earlier sub-batch's solve replays from the LRU);
        // the payload above must not change either way.
        assert!(
            wire.tier == exp.tier || wire.tier == econcast_service::ServedTier::Exact,
            "request {i}: tier {:?} vs expected {:?}",
            wire.tier,
            exp.tier
        );
    }

    // Stats over the wire: every request is accounted for, across all
    // shards, and per-shard snapshots sum to the aggregate — modulo
    // the admission counters, which are front-wide (like the cluster's
    // robustness counters) and rides the aggregate only.
    let aggregate = client.stats(None).expect("aggregate stats");
    assert_eq!(aggregate.requests, batch.len() as u64);
    let mut summed = econcast_service::ServiceStats::default();
    let mut live_shards = 0;
    for s in 0..client.shards() {
        let shard = client.stats(Some(s)).expect("shard stats");
        live_shards += u32::from(shard.requests > 0);
        summed.merge(&shard);
    }
    // Closed-loop run well under capacity: nothing shed or degraded,
    // but the queue saw the batch pass through.
    assert_eq!(aggregate.shed_rejects, 0);
    assert_eq!(aggregate.degraded_serves, 0);
    assert_eq!(aggregate.deadline_expired, 0);
    assert!(
        aggregate.queue_depth_peak >= 1 && aggregate.queue_depth_peak <= batch.len() as u64,
        "queue peak {} out of range",
        aggregate.queue_depth_peak
    );
    let mut tiers_only = aggregate;
    tiers_only.queue_depth_peak = 0;
    assert_eq!(summed, tiers_only);
    assert!(live_shards >= 2, "the mix should span shards");

    drop(client);
    handle.shutdown();
}

#[test]
fn concurrent_clients_on_disjoint_shards() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(4))
        .expect("bind")
        .spawn();
    let addr = handle.addr();

    // Each client hammers its own set of homogeneous families; shard
    // disjointness means no client can perturb another's responses.
    let mut workers = Vec::new();
    for c in 0..4u32 {
        workers.push(std::thread::spawn(move || {
            let mut client = PolicyClient::connect(addr, 8).expect("connect");
            let reqs: Vec<PolicyRequest> = (0..8)
                .map(|k| {
                    PolicyRequest::homogeneous(
                        2 + (c as usize) * 8 + k,
                        NodeParams::from_microwatts(10.0, 500.0, 450.0),
                        0.5,
                        ThroughputMode::Groupput,
                        1e-2,
                    )
                })
                .collect();
            let first = client.serve_batch(&reqs).expect("serve");
            for round in 0..3 {
                let again = client.serve_batch(&reqs).expect("serve again");
                for (i, (a, b)) in first.iter().zip(&again).enumerate() {
                    let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                    assert_eq!(
                        a.throughput.to_bits(),
                        b.throughput.to_bits(),
                        "client {c} round {round} request {i} replay diverged"
                    );
                }
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread");
    }

    let router = handle.router();
    let total: u64 = (0..4).map(|s| router.shard_routed(s)).sum();
    assert_eq!(total, 4 * 8 * 4, "every request routed exactly once");
    let live = (0..4).filter(|&s| router.shard_routed(s) > 0).count();
    assert!(live >= 2, "32 distinct families should span shards");
    handle.shutdown();
}

#[test]
fn corrupt_frame_drops_the_connection_without_a_reply() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();

    let mut wire = bytes::BytesMut::new();
    ServiceCodec::encode(
        &ServiceMessage::Request(mixed_batch(1)[0].to_wire(7)),
        &mut wire,
    );
    let mut corrupt = wire.to_vec();
    *corrupt.last_mut().unwrap() ^= 0xFF; // break the CRC

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&corrupt).expect("send");
    let mut reply = Vec::new();
    let n = stream
        .read_to_end(&mut reply)
        .expect("server closes cleanly");
    assert_eq!(n, 0, "no reply for a corrupt stream, just EOF");
    handle.shutdown();
}

#[test]
fn foreign_version_hello_is_closed_without_a_welcome() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();

    // A well-formed `Hello` stamped v6, CRC recomputed over the new
    // version octet: the frame is intact, only the version is foreign.
    let mut wire = bytes::BytesMut::new();
    ServiceCodec::encode(
        &ServiceMessage::Hello(WireHello {
            id: 1,
            max_batch: 8,
        }),
        &mut wire,
    );
    let mut hello = wire.to_vec();
    hello[3] = 6; // after the u16 length prefix and the type octet
    let body_end = hello.len() - 2;
    let crc = crc16_ccitt(&hello[2..body_end]);
    hello[body_end..].copy_from_slice(&crc.to_be_bytes());

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&hello).expect("send");
    let mut reply = Vec::new();
    let n = stream
        .read_to_end(&mut reply)
        .expect("server closes cleanly");
    assert_eq!(n, 0, "no Welcome for a v6 hello, just EOF");

    // The same server still serves a current-version client.
    let batch = mixed_batch(4);
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    let out = client.serve_batch(&batch).expect("serve");
    assert!(out.iter().all(Result::is_ok));
    handle.shutdown();
}

#[test]
fn truncated_frame_gets_no_reply() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();

    let mut wire = bytes::BytesMut::new();
    ServiceCodec::encode(
        &ServiceMessage::Request(mixed_batch(1)[0].to_wire(9)),
        &mut wire,
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Send all but the last byte, then half-close: the server must not
    // answer a frame it never fully received.
    stream.write_all(&wire[..wire.len() - 1]).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = Vec::new();
    let n = stream.read_to_end(&mut reply).expect("clean close");
    assert_eq!(n, 0, "truncated frame produced no response");

    // The server is still healthy for well-formed clients.
    let mut client = PolicyClient::connect(handle.addr(), 1).expect("connect");
    let out = client.serve_batch(&mixed_batch(1)).expect("serve");
    assert!(out[0].is_ok());
    handle.shutdown();
}

#[test]
fn shutdown_does_not_hang_when_the_accept_pool_is_saturated() {
    // One-slot accept pool, one live client holding it: the acceptor
    // is parked waiting for a free slot, where the shutdown
    // throwaway-connection trick alone cannot reach it. shutdown()
    // must still return promptly (the gate is interrupted), and the
    // live connection must be drained cleanly — everything the client
    // already sent is answered, then the handler closes at its next
    // idle tick, so the client sees a crisp end-of-stream rather than
    // a hang or a mid-frame cut.
    let handle = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..server(2)
        },
    )
    .expect("bind")
    .spawn();
    let mut client = PolicyClient::connect(handle.addr(), 1).expect("connect");
    // Make sure the handler thread really owns the one slot before
    // shutting down (the serve proves the connection is established
    // server-side, so a second accept would block on the gate).
    let out = client.serve_batch(&mixed_batch(1)).expect("serve");
    assert!(out[0].is_ok());

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        done_tx.send(()).expect("report shutdown");
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown wedged behind the saturated accept pool");

    // Shutdown waited for the handler to drain, so by the time it
    // returned the connection is closed — the next call fails fast
    // with a clean stream-closed error, never a hang.
    let err = client
        .serve_batch(&mixed_batch(1))
        .expect_err("drained connection is closed after shutdown");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
        ),
        "expected a clean close, got {err:?}"
    );
}

#[test]
fn garbage_length_prefix_is_fatal_not_a_hang() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // A plausible length prefix followed by garbage bytes.
    let mut junk = vec![0x00, 0x10];
    junk.extend(std::iter::repeat_n(0xAB, 0x10));
    stream.write_all(&junk).expect("send");
    let mut reply = Vec::new();
    let n = stream.read_to_end(&mut reply).expect("server closes");
    assert_eq!(n, 0);
    handle.shutdown();
}

#[test]
fn ping_round_trips_without_touching_shard_state() {
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();
    let mut client = PolicyClient::connect(handle.addr(), 1).expect("connect");
    for _ in 0..3 {
        client.ping().expect("pong");
    }
    // Pings are pure liveness: no request/batch counters move.
    let stats = client.stats(None).expect("stats");
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.batches, 0);
    handle.shutdown();
}

#[test]
fn corrupt_mid_stream_reply_fails_the_call_not_prior_results() {
    // Satellite regression for the PolicyClient failure contract: a
    // server whose reply stream goes corrupt *mid-batch* must surface
    // as an `Err` from that `serve_batch` call — no partial result
    // vector, no panic — while results from earlier completed calls
    // stay intact and usable. A hand-rolled misbehaving server plays
    // the corruption.
    use econcast_proto::service::{WirePolicy, WirePolicyResponse, WireWelcome, WIRE_VERSION};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut codec = ServiceCodec::new();
        let mut buf = [0u8; 4096];
        let mut answered = 0u32;
        loop {
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
                        &ServiceMessage::Welcome(WireWelcome {
                            id: h.id,
                            shards: 1,
                            max_batch: 64,
                        }),
                        &mut out,
                    ),
                    ServiceMessage::Request(r) => {
                        answered += 1;
                        let reply = ServiceMessage::Response(WirePolicyResponse {
                            corr: r.corr,
                            id: r.id,
                            tier: econcast_service::ServedTier::Exact,
                            kernel: econcast_service::PolicyKernel::ClosedForm,
                            converged: true,
                            throughput: f64::from(answered),
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
                        if answered == 4 {
                            // The 4th reply overall (2nd of batch 2):
                            // a correctly length-prefixed frame whose
                            // body fails its CRC.
                            let mut corrupt = bytes::BytesMut::new();
                            ServiceCodec::encode(&reply, &mut corrupt);
                            let last = corrupt.len() - 1;
                            corrupt[last] ^= 0xFF;
                            out.extend_from_slice(&corrupt);
                        } else {
                            ServiceCodec::encode(&reply, &mut out);
                        }
                    }
                    _ => {}
                }
            }
            if !out.is_empty() && stream.write_all(&out).is_err() {
                return;
            }
        }
    });

    let batch = mixed_batch(2);
    let mut client = PolicyClient::connect(addr, 2).expect("connect");
    assert_eq!(WIRE_VERSION, 7, "test written against wire v7");

    // Batch 1: clean round trip; keep the results.
    let first = client.serve_batch(&batch).expect("clean batch");
    assert_eq!(first.len(), 2);
    let t0 = first[0].as_ref().expect("served").throughput;
    assert_eq!(t0, 1.0, "fake server tags replies in answer order");

    // Batch 2: the stream goes corrupt after one good reply. The call
    // fails as a unit — InvalidData, not a partial vector, not a hang.
    let err = client.serve_batch(&batch).expect_err("corrupt stream");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Prior results are untouched by the later corruption: every
    // response was CRC-checked when decoded.
    assert_eq!(first[0].as_ref().unwrap().throughput, 1.0);
    assert_eq!(first[1].as_ref().unwrap().throughput, 2.0);

    drop(client);
    fake.join().expect("fake server");
}

#[test]
fn large_n_requests_round_trip_the_sharded_tcp_path() {
    // The lifted ceiling reaches the wire: heterogeneous N ∈ {32, 64}
    // requests — beyond any enumeration table — round-trip the sharded
    // TCP front-end bit-identical to the in-process service, and the
    // wire response carries the factorized-kernel tag.
    use econcast_proto::service::PolicyKernel;

    let batch: Vec<PolicyRequest> = [32usize, 64]
        .iter()
        .flat_map(|&n| {
            [ThroughputMode::Groupput, ThroughputMode::Anyput]
                .into_iter()
                .map(move |mode| PolicyRequest {
                    budgets_w: (0..n).map(|i| (2.0 + 1.5 * i as f64) * 1e-6).collect(),
                    listen_w: 500e-6,
                    transmit_w: 450e-6,
                    sigma: 0.5,
                    objective: mode,
                    tolerance: 1e-2,
                })
        })
        .collect();

    let mut single = PolicyService::new(ServiceConfig {
        workers: Some(1),
        ..ServiceConfig::default()
    });
    let expected = single.serve_batch(&batch);

    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    let got = client.serve_batch(&batch).expect("clean round trip");

    for (i, (wire, exp)) in got.iter().zip(&expected).enumerate() {
        let (wire, exp) = (wire.as_ref().unwrap(), exp.as_ref().unwrap());
        assert_eq!(wire.kernel, PolicyKernel::Factorized, "request {i}");
        assert_eq!(wire.policies.len(), exp.policies.len(), "request {i}");
        for (wp, np) in wire.policies.iter().zip(&exp.policies) {
            assert_eq!(wp.listen.to_bits(), np.listen.to_bits(), "request {i}");
            assert_eq!(wp.transmit.to_bits(), np.transmit.to_bits(), "request {i}");
        }
        assert_eq!(wire.throughput.to_bits(), exp.throughput.to_bits());
    }
    handle.shutdown();
}

/// Opens a raw connection and completes the `Hello`/`Welcome`
/// handshake by hand, with a 5 s read timeout so a missing reply
/// fails the test instead of hanging it.
fn handshaken(addr: std::net::SocketAddr) -> (TcpStream, ServiceCodec) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let mut codec = ServiceCodec::new();
    let mut out = bytes::BytesMut::new();
    let hello = WireHello {
        id: 1,
        max_batch: 1,
    };
    ServiceCodec::encode(&ServiceMessage::Hello(hello), &mut out);
    stream.write_all(&out).expect("send hello");
    assert!(matches!(
        read_msg(&mut stream, &mut codec),
        ServiceMessage::Welcome(_)
    ));
    (stream, codec)
}

/// Reads until one whole message decodes; any stream error fails.
fn read_msg(stream: &mut TcpStream, codec: &mut ServiceCodec) -> ServiceMessage {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(msg) = codec.next_message().expect("clean stream") {
            return msg;
        }
        match stream.read(&mut buf) {
            Ok(0) => panic!("peer closed before replying"),
            Ok(n) => codec.feed(&buf[..n]),
            Err(e) => panic!("client-visible stream error: {e}"),
        }
    }
}

/// Reads the clean end of a drained stream: EOF, no bytes, no error.
fn expect_clean_eof(stream: &mut TcpStream) {
    let mut tail = [0u8; 64];
    match stream.read(&mut tail) {
        Ok(0) => {}
        Ok(n) => panic!("{n} unexpected bytes after the drain"),
        Err(e) => panic!("client-visible stream error on drain: {e}"),
    }
}

#[test]
fn shutdown_drains_a_mid_frame_request_and_closes_idle_clients_at_once() {
    // The single-process twin of the cluster front's drain test: a
    // shutdown issued while one client is mid-frame waits for the
    // frame's tail, serves and answers the request, then closes;
    // idle clients read a clean EOF as soon as the stop is raised,
    // and shutdown() returns well within its 5 s drain bound.
    use std::time::{Duration, Instant};
    let handle = PolicyServer::bind("127.0.0.1:0", server(2))
        .expect("bind")
        .spawn();
    let addr = handle.addr();
    let mut idle: Vec<TcpStream> = (0..2).map(|_| handshaken(addr).0).collect();
    let (mut stream, mut codec) = handshaken(addr);

    // Send only the first half of a request frame, then shut down
    // while the frame is dangling.
    let req = mixed_batch(1).pop().expect("one request");
    let mut frame = bytes::BytesMut::new();
    ServiceCodec::encode(&ServiceMessage::Request(req.to_wire(42)), &mut frame);
    let split = frame.len() / 2;
    stream.write_all(&frame[..split]).expect("send frame head");
    std::thread::sleep(Duration::from_millis(250)); // handler buffers the head
    let shutdown = std::thread::spawn(move || {
        let t0 = Instant::now();
        handle.shutdown();
        t0.elapsed()
    });

    // Idle clients are closed by the stop itself, while the mid-frame
    // client still holds the drain open.
    for s in &mut idle {
        expect_clean_eof(s);
    }
    std::thread::sleep(Duration::from_millis(500)); // drain grace running

    // The tail arrives inside the grace window: the request is served
    // and answered before the connection closes, then a clean EOF.
    stream.write_all(&frame[split..]).expect("send frame tail");
    match read_msg(&mut stream, &mut codec) {
        ServiceMessage::Response(r) => assert_eq!(r.id, 42),
        other => panic!("expected the drained response, got {other:?}"),
    }
    expect_clean_eof(&mut stream);

    let took = shutdown.join().expect("shutdown thread");
    assert!(
        took < Duration::from_millis(2500),
        "shutdown took {took:?}, not well within the 5 s drain bound"
    );
}

#[test]
fn client_waits_fail_timed_out_against_a_server_that_never_answers() {
    use econcast_proto::service::WireWelcome;
    use std::time::{Duration, Instant};
    let timeout = Duration::from_millis(300);
    let slack = Duration::from_secs(2);

    // Accepts every connection and holds it open until the client
    // hangs up; answers a `Hello` only when `welcome` is set, and
    // nothing else ever.
    let silent_server = |welcome: bool| {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut codec = ServiceCodec::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                for msg in codec.drain().expect("clean client") {
                    if let (true, ServiceMessage::Hello(h)) = (welcome, msg) {
                        let mut out = bytes::BytesMut::new();
                        let w = WireWelcome {
                            id: h.id,
                            shards: 1,
                            max_batch: 8,
                        };
                        ServiceCodec::encode(&ServiceMessage::Welcome(w), &mut out);
                        stream.write_all(&out).expect("send welcome");
                    }
                }
            }
        });
        (addr, thread)
    };

    // No `Welcome` ever: the connect's handshake wait times out.
    let (addr, thread) = silent_server(false);
    let t0 = Instant::now();
    let err = PolicyClient::connect_with_timeout(addr, 1, timeout).expect_err("no welcome");
    let took = t0.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err:?}");
    assert!(took >= timeout && took < timeout + slack, "took {took:?}");
    thread.join().expect("silent server");

    // A `Welcome`, then silence: a collect's wait times out.
    let (addr, thread) = silent_server(true);
    let mut client = PolicyClient::connect_with_timeout(addr, 1, timeout).expect("welcome");
    let ticket = client.submit_batch(&mixed_batch(1)).expect("submit");
    let t0 = Instant::now();
    let err = client.collect(ticket).expect_err("no reply");
    let took = t0.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err:?}");
    assert!(took >= timeout && took < timeout + slack, "took {took:?}");
    drop(client);
    thread.join().expect("silent server");
}
