//! The wire front-end: a [`PolicyService`] speaking the
//! `econcast-proto` service messages over a length-prefixed byte
//! stream.

use crate::request::{error_to_wire, PolicyRequest};
use crate::service::PolicyService;
use bytes::BytesMut;
use econcast_proto::service::{
    ServiceCodec, ServiceErrorCode, ServiceMessage, WirePolicyError, WirePong, WireStatsResponse,
    WireWelcome, STATS_SHARD_AGGREGATE,
};
use econcast_proto::DecodeError;

/// A policy server bound to a byte stream: feed it request bytes,
/// poll it for response bytes. One `poll_batch` call serves every
/// fully-received request as a single batch, so clients that pipeline
/// `k` requests before polling get `k`-way batching (and in-batch
/// dedup) for free.
#[derive(Debug, Default)]
pub struct WireServer {
    codec: ServiceCodec,
    service: PolicyService,
    /// Non-request messages received (protocol misuse; dropped).
    ignored: u64,
}

impl WireServer {
    /// Wraps a service.
    pub fn new(service: PolicyService) -> Self {
        WireServer {
            codec: ServiceCodec::new(),
            service,
            ignored: 0,
        }
    }

    /// Read access to the wrapped service (stats, …).
    pub fn service(&self) -> &PolicyService {
        &self.service
    }

    /// Non-request messages dropped so far.
    pub fn ignored_messages(&self) -> u64 {
        self.ignored
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.codec.feed(bytes);
    }

    /// Serves every fully-received request as one batch, returning the
    /// encoded length-prefixed responses (in request order, one
    /// response or error message per request, after any handshake or
    /// stats replies). Returns an empty buffer when nothing actionable
    /// is buffered. Decode errors are fatal for the stream, matching
    /// the codec's semantics.
    pub fn poll_batch(&mut self) -> Result<BytesMut, DecodeError> {
        let mut ids = Vec::new();
        let mut requests = Vec::new();
        let mut out = BytesMut::new();
        for msg in self.codec.drain()? {
            match msg {
                ServiceMessage::Request(w) => {
                    ids.push((w.corr, w.id));
                    requests.push(PolicyRequest::from_wire(&w));
                }
                // The in-process server is the single-shard special
                // case of the deployment protocol: answer the
                // handshake and stats probes like the TCP front-end.
                ServiceMessage::Hello(h) => {
                    ServiceCodec::encode(
                        &ServiceMessage::Welcome(WireWelcome {
                            id: h.id,
                            shards: 1,
                            max_batch: u16::MAX,
                        }),
                        &mut out,
                    );
                }
                ServiceMessage::StatsRequest(r) => {
                    let msg = if r.shard == 0 || r.shard == STATS_SHARD_AGGREGATE {
                        ServiceMessage::StatsResponse(WireStatsResponse {
                            id: r.id,
                            shard: r.shard,
                            stats: self.service.stats().to_wire(),
                        })
                    } else {
                        ServiceMessage::Error(WirePolicyError {
                            corr: 0,
                            id: r.id,
                            code: ServiceErrorCode::BadRequest,
                            retry_after_us: 0,
                        })
                    };
                    ServiceCodec::encode(&msg, &mut out);
                }
                ServiceMessage::Ping(p) => {
                    ServiceCodec::encode(&ServiceMessage::Pong(WirePong { id: p.id }), &mut out);
                }
                // Metrics scrape: the hub snapshot with
                // this service's LRU gauges injected — the
                // single-shard special case of the TCP front-end's
                // scrape path.
                ServiceMessage::MetricsRequest(r) => {
                    let mut snap = econcast_metrics::snapshot();
                    snap.gauges[econcast_metrics::GAUGE_LRU_ENTRIES].1 =
                        self.service.stats().lru_len;
                    snap.gauges[econcast_metrics::GAUGE_LRU_BYTES].1 =
                        self.service.cache_bytes() as u64;
                    ServiceCodec::encode(
                        &ServiceMessage::MetricsResponse(
                            econcast_proto::service::WireMetricsResponse {
                                id: r.id,
                                snapshot: crate::metrics::snapshot_to_wire(&snap),
                            },
                        ),
                        &mut out,
                    );
                }
                ServiceMessage::Response(_)
                | ServiceMessage::Error(_)
                | ServiceMessage::Welcome(_)
                | ServiceMessage::StatsResponse(_)
                | ServiceMessage::Pong(_)
                | ServiceMessage::MetricsResponse(_) => self.ignored += 1,
            }
        }
        if requests.is_empty() {
            return Ok(out);
        }
        let results = self.service.serve_batch(&requests);
        let t0 = econcast_trace::armed_now();
        for (&(corr, id), result) in ids.iter().zip(&results) {
            let mut msg = match result {
                Ok(resp) => ServiceMessage::Response(resp.to_wire(id)),
                Err(e) => ServiceMessage::Error(error_to_wire(e, id)),
            };
            match &mut msg {
                ServiceMessage::Response(r) => r.corr = corr,
                ServiceMessage::Error(e) => e.corr = corr,
                _ => unreachable!(),
            }
            ServiceCodec::encode(&msg, &mut out);
        }
        econcast_trace::complete_from("proto", "frame_encode", t0, &[("msgs", ids.len() as u64)]);
        Ok(out)
    }
}
