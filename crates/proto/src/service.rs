//! Wire messages for the policy-serving subsystem (`econcast-service`).
//!
//! The policy server accepts batches of *policy requests* — "here are
//! my N nodes' power budgets, tell each of them how much to listen and
//! transmit" — and answers with per-node policies plus the
//! achievability-gap certificate of `econcast-oracle::gap`. These
//! messages ride the same CRC-16/CCITT integrity layer as the radio
//! frames in [`crate::frame`], but form a separate family (type octets
//! `0x10..`) so the two wire surfaces can evolve independently.
//!
//! Wire layout (big-endian, CRC-16/CCITT-FALSE over everything before
//! the CRC; all floats are IEEE-754 bit patterns, so round-trips are
//! exact):
//!
//! ```text
//! Request:  [0x10][ver][corr u32][id u32][deadline_us u32]
//!           [obj u8][sigma f64][tol f64]
//!           [listen f64][transmit f64][n u16]{ [rho f64] }×n [crc u16]
//! Response: [0x11][ver][corr u32][id u32][tier u8][kernel u8][converged u8]
//!           [throughput f64][t_sigma f64][oracle f64][dual_upper f64]
//!           [n u16]{ [listen f64][transmit f64] }×n [crc u16]
//! Error:    [0x12][ver][corr u32][id u32][code u8][crc u16]
//! Hello:    [0x13][ver][id u32][max_batch u16][crc u16]
//! Welcome:  [0x14][ver][id u32][shards u16][max_batch u16][crc u16]
//! Ping:     [0x17][ver][id u32][crc u16]
//! Pong:     [0x18][ver][id u32][crc u16]
//! Overload: [0x1B][ver][corr u32][id u32][retry_after_us u32][crc u16]
//! MetricsReq: [0x1C][ver][id u32][shard u16][crc u16]
//! Metrics:  [0x1D][ver][id u32]
//!           [nc u16]{ [counter u64] }×nc
//!           [ng u16]{ [kind u8][value u64] }×ng
//!           [nh u16]{ [nb u16]{ [bucket u16][count u64] }×nb }×nh
//!           [crc u16]
//! ```
//!
//! `ver` is always [`WIRE_VERSION`]; any other version octet is
//! rejected (as [`DecodeError::UnsupportedVersion`], after the CRC
//! check). Type octets 0x15, 0x16, 0x19 and 0x1A are retired and
//! decode as [`DecodeError::UnknownFrameType`], as does any octet
//! outside the table.
//!
//! `Hello`/`Welcome` form the connection handshake of the TCP policy
//! server: the client announces the largest batch it intends to
//! pipeline, the server answers with its shard count and the batch cap
//! it will honor. `MetricsReq` asks for one shard's metrics scrape
//! (`shard = 0xFFFF` aggregates across all shards) and is answered by
//! `Metrics`: the counters in the metrics registry's index order,
//! merge-kind-tagged gauges and sparse histograms. It is the only
//! counter frame. `Ping` is answered by `Pong` echoing the id — a pure
//! liveness/round-trip probe that touches no shard state, cheap enough
//! for health checkers to send on a tight cadence.
//!
//! The data-plane frames carry a `corr` correlation id, echoed in every
//! reply, so several batches can be in flight on one connection and
//! complete out of order. Budgets are listed in the *caller's* node
//! order and the response's policies come back in that same order —
//! canonicalization for caching is entirely the server's business and
//! never leaks onto the wire.

use crate::crc::crc16_ccitt;
use crate::error::DecodeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use econcast_metrics::{HistSnapshot, MetricsSnapshot};

/// Current service wire-format version.
pub const WIRE_VERSION: u8 = 7;

/// Hard cap on per-message node counts so every message fits a u16
/// stream-length prefix (a 4000-node response is 64 042 bytes).
pub const MAX_WIRE_NODES: usize = 4000;

const TYPE_REQUEST: u8 = 0x10;
const TYPE_RESPONSE: u8 = 0x11;
const TYPE_ERROR: u8 = 0x12;
const TYPE_HELLO: u8 = 0x13;
const TYPE_WELCOME: u8 = 0x14;
const TYPE_PING: u8 = 0x17;
const TYPE_PONG: u8 = 0x18;
const TYPE_OVERLOADED: u8 = 0x1B;
const TYPE_METRICS_REQUEST: u8 = 0x1C;
const TYPE_METRICS_RESPONSE: u8 = 0x1D;

/// Bytes of a Request frame before its budgets: type through the node
/// count.
const REQUEST_FIXED: usize = 49;

/// Bytes of a Response frame before its policies: type through the
/// node count.
const RESPONSE_FIXED: usize = 47;

/// Where the `corr` and `id` fields sit in every data-plane frame.
const CORR_AT: usize = 2;
const ID_AT: usize = 6;

/// Cap on counters per metrics scrape (frame must fit the u16
/// stream-length prefix; the registry currently uses 26).
pub const MAX_WIRE_METRICS_COUNTERS: usize = 256;

/// Cap on gauges per metrics scrape.
pub const MAX_WIRE_METRICS_GAUGES: usize = 256;

/// Cap on histograms per metrics scrape.
pub const MAX_WIRE_METRICS_HISTS: usize = 8;

/// Cap on non-zero buckets per histogram (the shared log-bucket
/// scheme has 496 buckets; 512 leaves headroom without threatening
/// the u16 length prefix).
pub const MAX_WIRE_METRICS_BUCKETS: usize = 512;

/// The `shard` value of a [`WireMetricsRequest`] that asks for the
/// scrape aggregated across every shard instead of one shard's.
pub const STATS_SHARD_AGGREGATE: u16 = 0xFFFF;

/// Which throughput objective the requested policy optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireObjective {
    /// Groupput (Definition 1): count every delivered copy.
    Groupput,
    /// Anyput (Definition 2): count packets delivered to ≥ 1 listener.
    Anyput,
}

impl WireObjective {
    fn to_u8(self) -> u8 {
        match self {
            WireObjective::Groupput => 0,
            WireObjective::Anyput => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(WireObjective::Groupput),
            1 => Ok(WireObjective::Anyput),
            _ => Err(DecodeError::InvalidField("objective")),
        }
    }
}

/// Which cache tier produced a response (also the server's per-tier
/// stats key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedTier {
    /// A fresh exact (P4) dual-descent solve.
    Solver,
    /// Exact-match LRU hit on the canonicalized instance.
    Exact,
    /// The homogeneous closed form (scalar-dual bisection over the
    /// O(1) binomial Gibbs summary). Octet 2, the retired grid tier,
    /// is refused.
    ClosedForm,
}

impl ServedTier {
    fn to_u8(self) -> u8 {
        match self {
            ServedTier::Solver => 0,
            ServedTier::Exact => 1,
            ServedTier::ClosedForm => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(ServedTier::Solver),
            1 => Ok(ServedTier::Exact),
            3 => Ok(ServedTier::ClosedForm),
            _ => Err(DecodeError::InvalidField("tier")),
        }
    }
}

/// Which solve kernel produced the policy backing a response — the
/// debug companion to [`ServedTier`]: the tier says *which cache
/// layer* answered, the kernel says *what computed* the entry that
/// layer holds, so an exact-tier hit at `N = 32` is distinguishable
/// as "a prior factorized solve" rather than blending into the
/// closed-form traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKernel {
    /// The Gray-code streaming enumeration of `W`.
    GrayCode,
    /// The factorized polynomial large-N kernel.
    Factorized,
    /// The homogeneous scalar-dual closed form. Octet 3, the retired
    /// grid kernel, is refused.
    ClosedForm,
}

impl PolicyKernel {
    fn to_u8(self) -> u8 {
        match self {
            PolicyKernel::GrayCode => 0,
            PolicyKernel::Factorized => 1,
            PolicyKernel::ClosedForm => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(PolicyKernel::GrayCode),
            1 => Ok(PolicyKernel::Factorized),
            2 => Ok(PolicyKernel::ClosedForm),
            _ => Err(DecodeError::InvalidField("kernel")),
        }
    }
}

/// Why the server could not answer a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceErrorCode {
    /// A field failed validation (non-positive budget, σ ≤ 0, …).
    BadRequest,
    /// The instance is heterogeneous and too large for exact
    /// enumeration, and no fallback tier covers it.
    TooLarge,
    /// The server's admission ladder rejected the request under
    /// overload. Rides the dedicated `0x1B` frame — which carries the
    /// `retry_after_us` pacing hint — never the `0x12` code octet.
    Overloaded,
}

impl ServiceErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ServiceErrorCode::BadRequest => 0,
            ServiceErrorCode::TooLarge => 1,
            // Never rides the 0x12 code octet; encode picks the 0x1B
            // frame for it. The value exists only for completeness.
            ServiceErrorCode::Overloaded => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(ServiceErrorCode::BadRequest),
            1 => Ok(ServiceErrorCode::TooLarge),
            _ => Err(DecodeError::InvalidField("error code")),
        }
    }
}

/// A policy request: one instance of "solve (P4) for these budgets".
///
/// All nodes share the radio powers `(listen_w, transmit_w)` — the
/// paper's heterogeneity is in the harvested budgets, not the radio —
/// while `budgets_w[i]` carries each node's `ρ_i` in caller order.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePolicyRequest {
    /// Batch correlation id, echoed in the reply. All requests of one
    /// pipelined submit share a `corr`; `0` means "unknown" (a caller
    /// that does not pipeline).
    pub corr: u32,
    /// Caller-chosen per-request id, echoed in the response.
    pub id: u32,
    /// Deadline budget in microseconds: how long the caller is
    /// willing to wait for this answer, measured from the server's
    /// receipt. `0` means "no deadline". A server that cannot finish
    /// inside the budget answers `Overloaded` instead of a late
    /// result.
    pub deadline_us: u32,
    /// Throughput objective.
    pub objective: WireObjective,
    /// Entropy temperature σ.
    pub sigma: f64,
    /// Requested relative accuracy of the returned policy (the cache
    /// tier contract; see the service crate docs).
    pub tolerance: f64,
    /// Listen power `L` (W), shared by all nodes.
    pub listen_w: f64,
    /// Transmit power `X` (W), shared by all nodes.
    pub transmit_w: f64,
    /// Per-node power budgets `ρ_i` (W), caller order.
    pub budgets_w: Vec<f64>,
}

/// One node's served policy: the fractions of time to spend listening
/// and transmitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePolicy {
    /// Listen-time fraction `α_i`.
    pub listen: f64,
    /// Transmit-time fraction `β_i`.
    pub transmit: f64,
}

/// A served policy plus its achievability certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePolicyResponse {
    /// Echo of the request's batch correlation id.
    pub corr: u32,
    /// Echo of the request id.
    pub id: u32,
    /// Which cache tier answered.
    pub tier: ServedTier,
    /// Which solve kernel produced the underlying policy.
    pub kernel: PolicyKernel,
    /// Whether the underlying dual solve met its tolerance (always
    /// true for the closed-form tier).
    pub converged: bool,
    /// Expected network throughput `E_π[T_w]` under the policy.
    pub throughput: f64,
    /// Certificate: achievable lower end `T^σ`.
    pub cert_t_sigma: f64,
    /// Certificate: the LP oracle `T*`.
    pub cert_oracle: f64,
    /// Certificate: weak-duality upper bound `D(η) ≥ T*`.
    pub cert_dual_upper: f64,
    /// Per-node policies, in the *request's* node order.
    pub policies: Vec<WirePolicy>,
}

/// Every field of a Request frame but its budgets: what an encoder
/// needs beside the budget slice, so a caller holding its own request
/// type frames it without first copying it into a
/// [`WirePolicyRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestHeader {
    /// Batch correlation id.
    pub corr: u32,
    /// Per-request id.
    pub id: u32,
    /// Deadline budget in microseconds (0 = none).
    pub deadline_us: u32,
    /// Throughput objective.
    pub objective: WireObjective,
    /// Entropy temperature σ.
    pub sigma: f64,
    /// Requested relative accuracy.
    pub tolerance: f64,
    /// Listen power `L` (W).
    pub listen_w: f64,
    /// Transmit power `X` (W).
    pub transmit_w: f64,
}

/// Every field of a Response frame but its policies — the
/// [`RequestHeader`] of the reply direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseHeader {
    /// Echo of the request's batch correlation id.
    pub corr: u32,
    /// Echo of the request id.
    pub id: u32,
    /// Which cache tier answered.
    pub tier: ServedTier,
    /// Which solve kernel produced the underlying policy.
    pub kernel: PolicyKernel,
    /// Whether the underlying dual solve met its tolerance.
    pub converged: bool,
    /// Expected network throughput under the policy.
    pub throughput: f64,
    /// Certificate: achievable lower end `T^σ`.
    pub cert_t_sigma: f64,
    /// Certificate: the LP oracle `T*`.
    pub cert_oracle: f64,
    /// Certificate: weak-duality upper bound `D(η)`.
    pub cert_dual_upper: f64,
}

/// A Response frame that passed every check [`ServiceMessage::decode`]
/// makes of one — length, CRC, version, the tier, kernel and
/// converged octets, and the node cap — borrowed from the bytes it
/// was verified in. `decode` itself verifies with
/// [`VerifiedResponse::verify`] and then parses, so the two can never
/// disagree on which frames are Responses. A relay forwards
/// [`frame`](VerifiedResponse::frame) as bytes
/// ([`ServiceCodec::forward_response`]); a caller that stored the
/// bytes parses them later with [`parse_verified_response`], without
/// a second CRC pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedResponse<'a> {
    frame: &'a [u8],
    corr: u32,
    id: u32,
    nodes: usize,
}

impl<'a> VerifiedResponse<'a> {
    /// Verifies the Response frame at the start of `data` (which may
    /// run past it). Errors are exactly `decode`'s for the same bytes;
    /// a frame of any other type is refused as
    /// [`DecodeError::UnknownFrameType`].
    pub fn verify(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 2 {
            return Err(DecodeError::Truncated {
                needed: 8,
                available: data.len(),
            });
        }
        if data[0] != TYPE_RESPONSE {
            return Err(DecodeError::UnknownFrameType(data[0]));
        }
        if data.len() < RESPONSE_FIXED {
            return Err(DecodeError::Truncated {
                needed: RESPONSE_FIXED + 2,
                available: data.len(),
            });
        }
        let nodes = usize::from(be_u16(data, RESPONSE_FIXED - 2));
        let total = RESPONSE_FIXED + 16 * nodes + 2;
        let frame = data.get(..total).ok_or(DecodeError::Truncated {
            needed: total,
            available: data.len(),
        })?;
        check_crc_and_version(frame)?;
        ServedTier::from_u8(frame[10])?;
        PolicyKernel::from_u8(frame[11])?;
        if frame[12] > 1 {
            return Err(DecodeError::InvalidField("converged"));
        }
        if nodes > MAX_WIRE_NODES {
            return Err(DecodeError::MalformedLength);
        }
        Ok(VerifiedResponse {
            frame,
            corr: be_u32(frame, CORR_AT),
            id: be_u32(frame, ID_AT),
            nodes,
        })
    }

    /// The frame's bytes, CRC included, without a length prefix.
    pub fn frame(&self) -> &'a [u8] {
        self.frame
    }

    /// The frame's correlation id.
    pub fn corr(&self) -> u32 {
        self.corr
    }

    /// The frame's request id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// How many per-node policies the frame carries.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Parses the verified frame.
    pub fn parse(&self) -> WirePolicyResponse {
        parse_verified_response(self.frame)
    }
}

/// Parses the bytes of a frame that [`VerifiedResponse::verify`]
/// accepted (its [`frame`](VerifiedResponse::frame), possibly stored
/// and read back) without checking anything again.
///
/// # Panics
///
/// Panics when the bytes are not a verified Response frame.
pub fn parse_verified_response(frame: &[u8]) -> WirePolicyResponse {
    let mut cur = &frame[CORR_AT..frame.len() - 2];
    let corr = cur.get_u32();
    let id = cur.get_u32();
    let tier = ServedTier::from_u8(cur.get_u8()).expect("verified tier");
    let kernel = PolicyKernel::from_u8(cur.get_u8()).expect("verified kernel");
    let converged = cur.get_u8() == 1;
    let throughput = cur.get_f64();
    let cert_t_sigma = cur.get_f64();
    let cert_oracle = cur.get_f64();
    let cert_dual_upper = cur.get_f64();
    let n = usize::from(cur.get_u16());
    let mut policies = Vec::with_capacity(n);
    for _ in 0..n {
        let listen = cur.get_f64();
        let transmit = cur.get_f64();
        policies.push(WirePolicy { listen, transmit });
    }
    WirePolicyResponse {
        corr,
        id,
        tier,
        kernel,
        converged,
        throughput,
        cert_t_sigma,
        cert_oracle,
        cert_dual_upper,
        policies,
    }
}

fn be_u16(data: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([data[at], data[at + 1]])
}

fn be_u32(data: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// The two checks every frame passes before any field is read: the
/// trailing CRC over everything before it, then the version octet —
/// so corrupt bytes surface as `BadChecksum`, and a corrupt version
/// octet as `BadChecksum` rather than `UnsupportedVersion`.
fn check_crc_and_version(frame: &[u8]) -> Result<(), DecodeError> {
    let (payload, tail) = frame.split_at(frame.len() - 2);
    if crc16_ccitt(payload) != u16::from_be_bytes([tail[0], tail[1]]) {
        return Err(DecodeError::BadChecksum);
    }
    if payload[1] != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion(payload[1]));
    }
    Ok(())
}

/// Writes one Request frame, CRC included — the only place its layout
/// is written.
fn put_request(buf: &mut BytesMut, h: &RequestHeader, budgets: &[f64]) {
    assert!(
        budgets.len() <= MAX_WIRE_NODES,
        "request exceeds MAX_WIRE_NODES"
    );
    let start = buf.len();
    buf.put_u8(TYPE_REQUEST);
    buf.put_u8(WIRE_VERSION);
    buf.put_u32(h.corr);
    buf.put_u32(h.id);
    buf.put_u32(h.deadline_us);
    buf.put_u8(h.objective.to_u8());
    buf.put_f64(h.sigma);
    buf.put_f64(h.tolerance);
    buf.put_f64(h.listen_w);
    buf.put_f64(h.transmit_w);
    buf.put_u16(budgets.len() as u16);
    for &rho in budgets {
        buf.put_f64(rho);
    }
    let crc = crc16_ccitt(&buf[start..]);
    buf.put_u16(crc);
}

/// Writes one Response frame, CRC included — the only place its
/// layout is written.
fn put_response(
    buf: &mut BytesMut,
    h: &ResponseHeader,
    policies: impl ExactSizeIterator<Item = WirePolicy>,
) {
    assert!(
        policies.len() <= MAX_WIRE_NODES,
        "response exceeds MAX_WIRE_NODES"
    );
    let start = buf.len();
    buf.put_u8(TYPE_RESPONSE);
    buf.put_u8(WIRE_VERSION);
    buf.put_u32(h.corr);
    buf.put_u32(h.id);
    buf.put_u8(h.tier.to_u8());
    buf.put_u8(h.kernel.to_u8());
    buf.put_u8(u8::from(h.converged));
    buf.put_f64(h.throughput);
    buf.put_f64(h.cert_t_sigma);
    buf.put_f64(h.cert_oracle);
    buf.put_f64(h.cert_dual_upper);
    buf.put_u16(policies.len() as u16);
    for p in policies {
        buf.put_f64(p.listen);
        buf.put_f64(p.transmit);
    }
    let crc = crc16_ccitt(&buf[start..]);
    buf.put_u16(crc);
}

/// Appends a length prefix for a frame of `len` bytes.
fn put_prefix(buf: &mut BytesMut, len: usize) {
    assert!(len <= u16::MAX as usize, "message too large for u16 prefix");
    buf.put_u16(len as u16);
}

impl WirePolicyRequest {
    /// Every field but the budgets.
    fn header(&self) -> RequestHeader {
        RequestHeader {
            corr: self.corr,
            id: self.id,
            deadline_us: self.deadline_us,
            objective: self.objective,
            sigma: self.sigma,
            tolerance: self.tolerance,
            listen_w: self.listen_w,
            transmit_w: self.transmit_w,
        }
    }
}

impl WirePolicyResponse {
    /// Every field but the policies.
    fn header(&self) -> ResponseHeader {
        ResponseHeader {
            corr: self.corr,
            id: self.id,
            tier: self.tier,
            kernel: self.kernel,
            converged: self.converged,
            throughput: self.throughput,
            cert_t_sigma: self.cert_t_sigma,
            cert_oracle: self.cert_oracle,
            cert_dual_upper: self.cert_dual_upper,
        }
    }
}

/// A per-request error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePolicyError {
    /// Echo of the request's batch correlation id.
    pub corr: u32,
    /// Echo of the request id.
    pub id: u32,
    /// What went wrong.
    pub code: ServiceErrorCode,
    /// Pacing hint for [`ServiceErrorCode::Overloaded`]: how long the caller should back off before retrying, in
    /// microseconds (0 = "retry whenever"). Always 0 for the other
    /// codes — the `0x12` frame does not carry it.
    pub retry_after_us: u32,
}

/// Connection opener: the client introduces itself before the first
/// request. The version octet already rides every message; the hello
/// carries the client's pipelining intent so the server can size its
/// batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHello {
    /// Caller-chosen correlation id, echoed in the welcome.
    pub id: u32,
    /// Largest request batch the client intends to pipeline before
    /// reading responses (informational; 0 = unknown).
    pub max_batch: u16,
}

/// Handshake reply: the server's deployment shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireWelcome {
    /// Echo of the hello id.
    pub id: u32,
    /// Number of policy-cache shards behind this endpoint.
    pub shards: u16,
    /// Largest batch the server will serve as one unit.
    pub max_batch: u16,
}

/// Liveness probe: "are you there, and is the request path alive?".
/// Answered by [`WirePong`] echoing the id. Carries no other state —
/// the cluster layer's health checkers send these on a tight cadence
/// and must not perturb shard counters or caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePing {
    /// Caller-chosen correlation id, echoed in the pong.
    pub id: u32,
}

/// Liveness reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePong {
    /// Echo of the ping id.
    pub id: u32,
}

/// Asks for a point-in-time scrape of one shard's metrics, or of the
/// whole endpoint's ([`STATS_SHARD_AGGREGATE`]). A cluster front
/// answers the aggregate with its cluster-wide fan-in and a shard
/// index with that slot's scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMetricsRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u32,
    /// Shard index, or [`STATS_SHARD_AGGREGATE`].
    pub shard: u16,
}

/// Metrics scrape reply. The scrape rides the wire as the metrics
/// plane's own [`MetricsSnapshot`]: dense counters, merge-kind-tagged
/// gauges (`0` = sum across sources, `1` = max) and sparse log-bucket
/// histograms — self-describing, so a fan-in merges without an
/// out-of-band schema, and a newer peer's extra registry slots ride
/// through an older relay unharmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMetricsResponse {
    /// Echo of the request id.
    pub id: u32,
    /// The snapshot.
    pub snapshot: MetricsSnapshot,
}

/// Any service-family message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceMessage {
    /// Client → server.
    Request(WirePolicyRequest),
    /// Server → client (success).
    Response(WirePolicyResponse),
    /// Server → client (failure).
    Error(WirePolicyError),
    /// Client → server: connection handshake opener.
    Hello(WireHello),
    /// Server → client: handshake reply with the deployment shape.
    Welcome(WireWelcome),
    /// Client → server: liveness probe.
    Ping(WirePing),
    /// Server → client: liveness reply.
    Pong(WirePong),
    /// Client → server: metrics scrape request.
    MetricsRequest(WireMetricsRequest),
    /// Server → client: metrics snapshot.
    MetricsResponse(WireMetricsResponse),
}

impl ServiceMessage {
    /// Encodes the message (including CRC) into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes into an existing buffer (appends).
    ///
    /// # Panics
    ///
    /// Panics when a node list exceeds [`MAX_WIRE_NODES`] — requests
    /// that large cannot be framed and indicate a caller bug.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        match self {
            ServiceMessage::Request(r) => return put_request(buf, &r.header(), &r.budgets_w),
            ServiceMessage::Response(r) => {
                return put_response(buf, &r.header(), r.policies.iter().copied())
            }
            ServiceMessage::Error(e) => {
                if e.code == ServiceErrorCode::Overloaded {
                    // Overload rejections ride their own frame so the
                    // retry hint has a place to live.
                    buf.put_u8(TYPE_OVERLOADED);
                    buf.put_u8(WIRE_VERSION);
                    buf.put_u32(e.corr);
                    buf.put_u32(e.id);
                    buf.put_u32(e.retry_after_us);
                } else {
                    buf.put_u8(TYPE_ERROR);
                    buf.put_u8(WIRE_VERSION);
                    buf.put_u32(e.corr);
                    buf.put_u32(e.id);
                    buf.put_u8(e.code.to_u8());
                }
            }
            ServiceMessage::Hello(h) => {
                buf.put_u8(TYPE_HELLO);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(h.id);
                buf.put_u16(h.max_batch);
            }
            ServiceMessage::Welcome(w) => {
                buf.put_u8(TYPE_WELCOME);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(w.id);
                buf.put_u16(w.shards);
                buf.put_u16(w.max_batch);
            }
            ServiceMessage::Ping(p) => {
                buf.put_u8(TYPE_PING);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(p.id);
            }
            ServiceMessage::Pong(p) => {
                buf.put_u8(TYPE_PONG);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(p.id);
            }
            ServiceMessage::MetricsRequest(r) => {
                buf.put_u8(TYPE_METRICS_REQUEST);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(r.id);
                buf.put_u16(r.shard);
            }
            ServiceMessage::MetricsResponse(r) => {
                let s = &r.snapshot;
                assert!(
                    s.counters.len() <= MAX_WIRE_METRICS_COUNTERS
                        && s.gauges.len() <= MAX_WIRE_METRICS_GAUGES
                        && s.hists.len() <= MAX_WIRE_METRICS_HISTS
                        && s.hists
                            .iter()
                            .all(|h| h.buckets.len() <= MAX_WIRE_METRICS_BUCKETS),
                    "metrics snapshot exceeds wire caps"
                );
                buf.put_u8(TYPE_METRICS_RESPONSE);
                buf.put_u8(WIRE_VERSION);
                buf.put_u32(r.id);
                buf.put_u16(s.counters.len() as u16);
                for &c in &s.counters {
                    buf.put_u64(c);
                }
                buf.put_u16(s.gauges.len() as u16);
                for &(kind, v) in &s.gauges {
                    buf.put_u8(kind);
                    buf.put_u64(v);
                }
                buf.put_u16(s.hists.len() as u16);
                for h in &s.hists {
                    buf.put_u16(h.buckets.len() as u16);
                    for &(idx, n) in &h.buckets {
                        buf.put_u16(idx);
                        buf.put_u64(n);
                    }
                }
            }
        }
        let crc = crc16_ccitt(&buf[start..]);
        buf.put_u16(crc);
    }

    /// The exact encoded size in bytes, CRC included.
    pub fn encoded_len(&self) -> usize {
        match self {
            ServiceMessage::Request(r) => 49 + 8 * r.budgets_w.len() + 2,
            ServiceMessage::Response(r) => 47 + 16 * r.policies.len() + 2,
            ServiceMessage::Error(e) if e.code == ServiceErrorCode::Overloaded => 14 + 2,
            ServiceMessage::Error(_) => 11 + 2,
            ServiceMessage::Hello(_) => 8 + 2,
            ServiceMessage::Welcome(_) => 10 + 2,
            ServiceMessage::Ping(_) | ServiceMessage::Pong(_) => 6 + 2,
            ServiceMessage::MetricsRequest(_) => 8 + 2,
            ServiceMessage::MetricsResponse(r) => {
                let s = &r.snapshot;
                let hists: usize = s.hists.iter().map(|h| 2 + 10 * h.buckets.len()).sum();
                6 + 2 + 8 * s.counters.len() + 2 + 9 * s.gauges.len() + 2 + hists + 2
            }
        }
    }

    /// Decodes one message from the start of `data`, returning the
    /// message and the number of bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(ServiceMessage, usize), DecodeError> {
        if data.len() < 2 {
            return Err(DecodeError::Truncated {
                needed: 8,
                available: data.len(),
            });
        }
        // A Response is verified, then parsed: the verifier is the one
        // statement of which bytes are a Response.
        if data[0] == TYPE_RESPONSE {
            let v = VerifiedResponse::verify(data)?;
            return Ok((ServiceMessage::Response(v.parse()), v.frame.len()));
        }
        // Total length first (needs the count field for the
        // variable-size messages), then CRC, then version, then fields
        // — so corrupt bytes surface as BadChecksum, not field errors,
        // and a corrupt version byte surfaces as BadChecksum rather
        // than UnsupportedVersion.
        let total_len = match data[0] {
            TYPE_REQUEST => {
                if data.len() < REQUEST_FIXED {
                    return Err(DecodeError::Truncated {
                        needed: REQUEST_FIXED + 2,
                        available: data.len(),
                    });
                }
                REQUEST_FIXED + 8 * usize::from(be_u16(data, REQUEST_FIXED - 2)) + 2
            }
            TYPE_ERROR => 13,
            TYPE_OVERLOADED => 16,
            TYPE_HELLO | TYPE_METRICS_REQUEST => 10,
            TYPE_WELCOME => 12,
            TYPE_PING | TYPE_PONG => 8,
            TYPE_METRICS_RESPONSE => {
                // Three counted sections, one nested — walk them to
                // find the frame length, guarding every count read.
                let read_u16 = |off: usize| -> Result<usize, DecodeError> {
                    if data.len() < off + 2 {
                        return Err(DecodeError::Truncated {
                            needed: off + 2,
                            available: data.len(),
                        });
                    }
                    Ok(u16::from_be_bytes([data[off], data[off + 1]]) as usize)
                };
                let mut off = 6; // type + ver + id
                let nc = read_u16(off)?;
                off += 2 + 8 * nc;
                let ng = read_u16(off)?;
                off += 2 + 9 * ng;
                let nh = read_u16(off)?;
                off += 2;
                for _ in 0..nh {
                    let nb = read_u16(off)?;
                    off += 2 + 10 * nb;
                }
                off + 2
            }
            t => return Err(DecodeError::UnknownFrameType(t)),
        };
        if data.len() < total_len {
            return Err(DecodeError::Truncated {
                needed: total_len,
                available: data.len(),
            });
        }
        let frame_bytes = &data[..total_len];
        check_crc_and_version(frame_bytes)?;

        let mut cur = &frame_bytes[2..total_len - 2]; // skip type + version octets
        let msg = match data[0] {
            TYPE_REQUEST => {
                let corr = cur.get_u32();
                let id = cur.get_u32();
                let deadline_us = cur.get_u32();
                let objective = WireObjective::from_u8(cur.get_u8())?;
                let sigma = cur.get_f64();
                let tolerance = cur.get_f64();
                let listen_w = cur.get_f64();
                let transmit_w = cur.get_f64();
                let n = cur.get_u16() as usize;
                if n > MAX_WIRE_NODES {
                    return Err(DecodeError::MalformedLength);
                }
                let mut budgets_w = Vec::with_capacity(n);
                for _ in 0..n {
                    budgets_w.push(cur.get_f64());
                }
                ServiceMessage::Request(WirePolicyRequest {
                    corr,
                    id,
                    deadline_us,
                    objective,
                    sigma,
                    tolerance,
                    listen_w,
                    transmit_w,
                    budgets_w,
                })
            }
            TYPE_ERROR => {
                let corr = cur.get_u32();
                let id = cur.get_u32();
                let code = ServiceErrorCode::from_u8(cur.get_u8())?;
                ServiceMessage::Error(WirePolicyError {
                    corr,
                    id,
                    code,
                    retry_after_us: 0,
                })
            }
            TYPE_OVERLOADED => {
                let corr = cur.get_u32();
                let id = cur.get_u32();
                let retry_after_us = cur.get_u32();
                ServiceMessage::Error(WirePolicyError {
                    corr,
                    id,
                    code: ServiceErrorCode::Overloaded,
                    retry_after_us,
                })
            }
            TYPE_HELLO => {
                let id = cur.get_u32();
                let max_batch = cur.get_u16();
                ServiceMessage::Hello(WireHello { id, max_batch })
            }
            TYPE_WELCOME => {
                let id = cur.get_u32();
                let shards = cur.get_u16();
                let max_batch = cur.get_u16();
                ServiceMessage::Welcome(WireWelcome {
                    id,
                    shards,
                    max_batch,
                })
            }
            TYPE_PING => ServiceMessage::Ping(WirePing { id: cur.get_u32() }),
            TYPE_PONG => ServiceMessage::Pong(WirePong { id: cur.get_u32() }),
            TYPE_METRICS_REQUEST => {
                let id = cur.get_u32();
                let shard = cur.get_u16();
                ServiceMessage::MetricsRequest(WireMetricsRequest { id, shard })
            }
            TYPE_METRICS_RESPONSE => {
                let id = cur.get_u32();
                let nc = cur.get_u16() as usize;
                if nc > MAX_WIRE_METRICS_COUNTERS {
                    return Err(DecodeError::MalformedLength);
                }
                let mut counters = Vec::with_capacity(nc);
                for _ in 0..nc {
                    counters.push(cur.get_u64());
                }
                let ng = cur.get_u16() as usize;
                if ng > MAX_WIRE_METRICS_GAUGES {
                    return Err(DecodeError::MalformedLength);
                }
                let mut gauges = Vec::with_capacity(ng);
                for _ in 0..ng {
                    let kind = cur.get_u8();
                    if kind > 1 {
                        return Err(DecodeError::InvalidField("gauge kind"));
                    }
                    gauges.push((kind, cur.get_u64()));
                }
                let nh = cur.get_u16() as usize;
                if nh > MAX_WIRE_METRICS_HISTS {
                    return Err(DecodeError::MalformedLength);
                }
                let mut hists = Vec::with_capacity(nh);
                for _ in 0..nh {
                    let nb = cur.get_u16() as usize;
                    if nb > MAX_WIRE_METRICS_BUCKETS {
                        return Err(DecodeError::MalformedLength);
                    }
                    let mut buckets = Vec::with_capacity(nb);
                    for _ in 0..nb {
                        let idx = cur.get_u16();
                        buckets.push((idx, cur.get_u64()));
                    }
                    // Ascending-index discipline is part of the
                    // format: it makes merge linear and equality
                    // canonical.
                    if buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
                        return Err(DecodeError::InvalidField("hist bucket order"));
                    }
                    hists.push(HistSnapshot { buckets });
                }
                ServiceMessage::MetricsResponse(WireMetricsResponse {
                    id,
                    snapshot: MetricsSnapshot {
                        counters,
                        gauges,
                        hists,
                    },
                })
            }
            _ => unreachable!("validated above"),
        };
        Ok((msg, total_len))
    }
}

/// Incremental encoder/decoder for a stream of length-prefixed service
/// messages — the service-side twin of [`crate::StreamCodec`], with
/// the same `u16` length prefix and fatal-error semantics.
#[derive(Debug, Default)]
pub struct ServiceCodec {
    buffer: BytesMut,
    /// Bytes of the frame [`next_incoming`](ServiceCodec::next_incoming)
    /// last lent out, dropped from `buffer` on the next call.
    consumed: usize,
}

/// One frame taken off the stream by [`ServiceCodec::next_incoming`].
#[derive(Debug)]
pub enum Incoming<'a> {
    /// A verified Response frame, left as bytes in the codec's buffer.
    Response(VerifiedResponse<'a>),
    /// Any other message, decoded.
    Message(ServiceMessage),
}

impl ServiceCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one message with its length prefix into `out`.
    pub fn encode(msg: &ServiceMessage, out: &mut BytesMut) {
        put_prefix(out, msg.encoded_len());
        msg.encode_into(out);
    }

    /// Encodes one Response with its length prefix into `out`, straight
    /// from its header and policies.
    pub fn encode_response(
        out: &mut BytesMut,
        head: &ResponseHeader,
        policies: impl ExactSizeIterator<Item = WirePolicy>,
    ) {
        put_prefix(out, RESPONSE_FIXED + 16 * policies.len() + 2);
        put_response(out, head, policies);
    }

    /// Appends a verified Response frame (the bytes of
    /// [`VerifiedResponse::frame`]) with its length prefix, its
    /// `corr` and `id` rewritten and its CRC stamped afresh: the
    /// relay's reply path, which never parses the policies. Only a
    /// verified frame may be re-stamped — a fresh CRC over unverified
    /// bytes would launder corruption into a valid frame.
    pub fn forward_response(out: &mut BytesMut, frame: &[u8], corr: u32, id: u32) {
        debug_assert!(
            VerifiedResponse::verify(frame).is_ok_and(|v| v.frame.len() == frame.len()),
            "only verified Response frames are forwarded"
        );
        put_prefix(out, frame.len());
        let start = out.len();
        let body = frame.len() - 2;
        out.extend_from_slice(&frame[..body]);
        out[start + CORR_AT..start + ID_AT].copy_from_slice(&corr.to_be_bytes());
        out[start + ID_AT..start + ID_AT + 4].copy_from_slice(&id.to_be_bytes());
        let crc = crc16_ccitt(&out[start..]);
        out.put_u16(crc);
    }

    /// Appends received bytes to the internal reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.advance(std::mem::take(&mut self.consumed));
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet decoded.
    pub fn pending(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    /// Takes the next complete frame off the stream: a Response is
    /// verified and lent out as bytes (valid until the codec is used
    /// again), anything else is decoded. `Ok(None)` means more bytes
    /// are needed; errors are fatal for the stream.
    pub fn next_incoming(&mut self) -> Result<Option<Incoming<'_>>, DecodeError> {
        self.buffer.advance(std::mem::take(&mut self.consumed));
        if self.buffer.len() < 2 {
            return Ok(None);
        }
        let len = usize::from(be_u16(&self.buffer, 0));
        if self.buffer.len() < 2 + len {
            return Ok(None);
        }
        // Read in place from the reassembly buffer; the cursor only
        // advances once the frame checked out.
        let frame = &self.buffer[2..2 + len];
        let (incoming, used) = if frame.first() == Some(&TYPE_RESPONSE) {
            let v = VerifiedResponse::verify(frame)?;
            (Incoming::Response(v), v.frame.len())
        } else {
            let (msg, used) = ServiceMessage::decode(frame)?;
            (Incoming::Message(msg), used)
        };
        if used != len {
            return Err(DecodeError::MalformedLength);
        }
        self.consumed = 2 + len;
        Ok(Some(incoming))
    }

    /// Attempts to decode the next complete message. `Ok(None)` means
    /// more bytes are needed; errors are fatal for the stream.
    pub fn next_message(&mut self) -> Result<Option<ServiceMessage>, DecodeError> {
        Ok(self.next_incoming()?.map(|incoming| match incoming {
            Incoming::Response(v) => ServiceMessage::Response(v.parse()),
            Incoming::Message(msg) => msg,
        }))
    }

    /// Drains all currently decodable messages.
    pub fn drain(&mut self) -> Result<Vec<ServiceMessage>, DecodeError> {
        let t0 = econcast_trace::armed_now();
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        // Idle read ticks drain nothing — don't trace those.
        if !out.is_empty() {
            econcast_trace::complete_from(
                "proto",
                "frame_decode",
                t0,
                &[("msgs", out.len() as u64)],
            );
        }
        Ok(out)
    }
}

/// Reusable scatter buffer for the pipelined write path: frames are
/// encoded back to back into one backing buffer that survives across
/// batches, so a steady-state submit allocates nothing — the buffer is
/// cleared (capacity kept) once the kernel has taken every byte. One
/// large contiguous write per batch replaces the per-message
/// `BytesMut` churn of the old path.
///
/// The writer loop is: [`push_all`](ScatterEncoder::push_all) (or
/// [`push`](ScatterEncoder::push)) to frame messages, then alternate
/// [`pending`](ScatterEncoder::pending) →
/// `write` → [`advance`](ScatterEncoder::advance) until
/// [`is_drained`](ScatterEncoder::is_drained).
#[derive(Debug, Default)]
pub struct ScatterEncoder {
    buf: BytesMut,
    written: usize,
    frames: usize,
}

impl ScatterEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all buffered frames and resets the write cursor, keeping
    /// the backing allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.written = 0;
        self.frames = 0;
    }

    /// Appends one length-prefixed frame. `version` must be
    /// [`WIRE_VERSION`], the only version this build speaks.
    pub fn push(&mut self, msg: &ServiceMessage, version: u8) {
        assert_eq!(version, WIRE_VERSION, "unsupported wire version");
        ServiceCodec::encode(msg, &mut self.buf);
        self.frames += 1;
    }

    /// Appends one length-prefixed Request frame, encoded straight
    /// from its header and budgets.
    pub fn push_request(&mut self, head: &RequestHeader, budgets: &[f64]) {
        put_prefix(&mut self.buf, REQUEST_FIXED + 8 * budgets.len() + 2);
        put_request(&mut self.buf, head, budgets);
        self.frames += 1;
    }

    /// Appends a batch of length-prefixed frames, traced as one
    /// `proto/frame_encode` span — the scatter-path twin of the span
    /// the server's reply encoder emits, so the traced frame lifecycle
    /// stays complete on the pipelined path.
    pub fn push_all<'a>(
        &mut self,
        msgs: impl IntoIterator<Item = &'a ServiceMessage>,
        version: u8,
    ) {
        let t0 = econcast_trace::armed_now();
        let before = self.frames;
        for m in msgs {
            self.push(m, version);
        }
        if self.frames > before {
            econcast_trace::complete_from(
                "proto",
                "frame_encode",
                t0,
                &[("msgs", (self.frames - before) as u64)],
            );
        }
    }

    /// The encoded bytes not yet handed to the kernel.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.written..]
    }

    /// Whether every buffered byte has been written out.
    pub fn is_drained(&self) -> bool {
        self.written == self.buf.len()
    }

    /// Marks `n` bytes as written. Once the buffer fully drains it is
    /// cleared in place, so the capacity is reused by the next batch.
    pub fn advance(&mut self, n: usize) {
        self.written += n;
        debug_assert!(self.written <= self.buf.len(), "advanced past the buffer");
        if self.written >= self.buf.len() {
            self.clear();
        }
    }

    /// Frames pushed since the last full drain.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Total buffered bytes (written or not).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no frames at all.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request() -> ServiceMessage {
        ServiceMessage::Request(WirePolicyRequest {
            corr: 0xAB0BA,
            id: 7,
            deadline_us: 250_000,
            objective: WireObjective::Groupput,
            sigma: 0.5,
            tolerance: 1e-3,
            listen_w: 500e-6,
            transmit_w: 450e-6,
            budgets_w: vec![10e-6, 20e-6, 5e-6],
        })
    }

    fn sample_response() -> ServiceMessage {
        ServiceMessage::Response(WirePolicyResponse {
            corr: 0xAB0BA,
            id: 7,
            tier: ServedTier::ClosedForm,
            kernel: PolicyKernel::ClosedForm,
            converged: true,
            throughput: 3.25,
            cert_t_sigma: 3.25,
            cert_oracle: 4.0,
            cert_dual_upper: 4.5,
            policies: vec![
                WirePolicy {
                    listen: 0.1,
                    transmit: 0.02,
                },
                WirePolicy {
                    listen: 0.2,
                    transmit: 0.04,
                },
            ],
        })
    }

    #[test]
    fn request_roundtrip_and_size() {
        let m = sample_request();
        let b = m.encode();
        assert_eq!(b.len(), m.encoded_len());
        assert_eq!(b.len(), 49 + 24 + 2, "v6 request: 41 + corr + deadline");
        let (decoded, used) = ServiceMessage::decode(&b).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(used, b.len());
    }

    #[test]
    fn response_roundtrip_and_size() {
        let m = sample_response();
        let b = m.encode();
        assert_eq!(b.len(), m.encoded_len());
        assert_eq!(b.len(), 47 + 32 + 2);
        let (decoded, used) = ServiceMessage::decode(&b).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(used, b.len());
    }

    #[test]
    fn error_roundtrip() {
        for code in [ServiceErrorCode::BadRequest, ServiceErrorCode::TooLarge] {
            let m = ServiceMessage::Error(WirePolicyError {
                corr: 3,
                id: 9,
                code,
                retry_after_us: 0,
            });
            let b = m.encode();
            assert_eq!(b.len(), 13);
            assert_eq!(ServiceMessage::decode(&b).unwrap().0, m);
        }
    }

    #[test]
    fn overloaded_roundtrip_and_size() {
        let m = ServiceMessage::Error(WirePolicyError {
            corr: 0xC0FFEE,
            id: 42,
            code: ServiceErrorCode::Overloaded,
            retry_after_us: 1_500,
        });
        let b = m.encode();
        assert_eq!(b.len(), m.encoded_len());
        assert_eq!(b.len(), 16, "0x1B frame: hdr + corr + id + retry + crc");
        assert_eq!(b[0], 0x1B);
        let (decoded, used) = ServiceMessage::decode(&b).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(used, b.len());
        for cut in 0..b.len() {
            assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
        // A pre-v6 stamp on the v6-born frame (valid CRC) is refused:
        // no v5 binary can have produced it.
        let mut forged = b.to_vec();
        forged[1] = 5;
        let body_len = forged.len() - 2;
        let crc = crate::crc::crc16_ccitt(&forged[..body_len]);
        forged[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            ServiceMessage::decode(&forged),
            Err(DecodeError::UnsupportedVersion(5))
        );
    }

    /// A full-registry scrape: every counter slot distinct (one at
    /// `u64::MAX`), kind-tagged gauges, one populated histogram.
    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::zeroed();
        for (i, c) in snap.counters.iter_mut().enumerate() {
            *c = 1 + 3 * i as u64;
        }
        snap.counters[econcast_metrics::CTR_BATCHES] = u64::MAX;
        snap.gauges[econcast_metrics::GAUGE_QUEUE_DEPTH].1 = 9;
        snap.gauges[econcast_metrics::GAUGE_QUEUE_DEPTH_PEAK].1 = 1_000_000;
        snap.hists[econcast_metrics::HIST_BATCH_NS].buckets = vec![(0, 3), (17, 5), (495, 1)];
        snap
    }

    fn sample_metrics_response() -> ServiceMessage {
        ServiceMessage::MetricsResponse(WireMetricsResponse {
            id: 77,
            snapshot: sample_snapshot(),
        })
    }

    #[test]
    fn metrics_request_roundtrip_and_size() {
        let m = ServiceMessage::MetricsRequest(WireMetricsRequest {
            id: 0xFEED,
            shard: 3,
        });
        let b = m.encode();
        assert_eq!(b.len(), m.encoded_len());
        assert_eq!(b.len(), 10, "0x1C frame: hdr + id + shard + crc");
        assert_eq!(b[0], 0x1C);
        assert_eq!(b[1], WIRE_VERSION);
        let (decoded, used) = ServiceMessage::decode(&b).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(used, b.len());
        for cut in 0..b.len() {
            assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
        // A pre-v7 stamp on the v7-born frame (valid CRC) is refused:
        // no v6 binary can have produced it.
        let mut forged = b.to_vec();
        forged[1] = 6;
        let body_len = forged.len() - 2;
        let crc = crate::crc::crc16_ccitt(&forged[..body_len]);
        forged[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            ServiceMessage::decode(&forged),
            Err(DecodeError::UnsupportedVersion(6))
        );
    }

    #[test]
    fn metrics_response_roundtrip_and_size() {
        let m = sample_metrics_response();
        let b = m.encode();
        assert_eq!(b.len(), m.encoded_len());
        // 6 hdr + (2 + 26·8) counters + (2 + 6·9) gauges
        // + (2 + (2 + 3·10) + (2 + 0)) hists + 2 crc
        assert_eq!(econcast_metrics::NUM_COUNTERS, 26);
        assert_eq!(econcast_metrics::NUM_GAUGES, 6);
        assert_eq!(b.len(), 6 + 210 + 56 + 36 + 2);
        assert_eq!(b[0], 0x1D);
        let (decoded, used) = ServiceMessage::decode(&b).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(used, b.len());
        for cut in 0..b.len() {
            assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
        let mut forged = b.to_vec();
        forged[1] = 6;
        let body_len = forged.len() - 2;
        let crc = crate::crc::crc16_ccitt(&forged[..body_len]);
        forged[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            ServiceMessage::decode(&forged),
            Err(DecodeError::UnsupportedVersion(6))
        );

        // The empty snapshot is the minimal well-formed scrape.
        let empty = ServiceMessage::MetricsResponse(WireMetricsResponse {
            id: 0,
            snapshot: MetricsSnapshot::default(),
        });
        let be = empty.encode();
        assert_eq!(be.len(), 14);
        assert_eq!(ServiceMessage::decode(&be).unwrap().0, empty);
    }

    #[test]
    fn metrics_hist_bucket_order_enforced() {
        // Out-of-order (and duplicate) bucket indices encode fine —
        // the discipline is enforced where it matters, at decode.
        for buckets in [vec![(5u16, 1u64), (3, 2)], vec![(5, 1), (5, 2)]] {
            let mut snapshot = sample_snapshot();
            snapshot.hists[0].buckets = buckets;
            let m = ServiceMessage::MetricsResponse(WireMetricsResponse { id: 1, snapshot });
            assert_eq!(
                ServiceMessage::decode(&m.encode()),
                Err(DecodeError::InvalidField("hist bucket order"))
            );
        }
    }

    #[test]
    fn metrics_gauge_kind_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.gauges[1] = (2, 7);
        let m = ServiceMessage::MetricsResponse(WireMetricsResponse { id: 1, snapshot });
        assert_eq!(
            ServiceMessage::decode(&m.encode()),
            Err(DecodeError::InvalidField("gauge kind"))
        );
    }

    #[test]
    fn metrics_counter_cap_enforced() {
        // The full registry sits well inside the cap, and a scrape of
        // it decodes.
        let full = sample_metrics_response();
        const { assert!(econcast_metrics::NUM_COUNTERS <= MAX_WIRE_METRICS_COUNTERS) };
        assert_eq!(ServiceMessage::decode(&full.encode()).unwrap().0, full);
        // Hand-assemble a frame whose counter count exceeds the cap
        // (the encoder refuses to produce one) with a valid CRC, so
        // the cap check itself is exercised rather than the CRC.
        let over = MAX_WIRE_METRICS_COUNTERS + 1;
        let mut raw = vec![TYPE_METRICS_RESPONSE, WIRE_VERSION];
        raw.extend_from_slice(&7u32.to_be_bytes());
        raw.extend_from_slice(&(over as u16).to_be_bytes());
        raw.resize(raw.len() + 8 * over, 0);
        raw.extend_from_slice(&0u16.to_be_bytes()); // ng
        raw.extend_from_slice(&0u16.to_be_bytes()); // nh
        let crc = crate::crc::crc16_ccitt(&raw);
        raw.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            ServiceMessage::decode(&raw),
            Err(DecodeError::MalformedLength)
        );
    }

    #[test]
    fn handshake_and_stats_roundtrip() {
        // The control-plane pairs: the handshake, the metrics scrape
        // (the only counter frame) for the aggregate and for one shard,
        // and the health probe.
        for m in [
            ServiceMessage::Hello(WireHello {
                id: 3,
                max_batch: 256,
            }),
            ServiceMessage::Welcome(WireWelcome {
                id: 3,
                shards: 4,
                max_batch: 1024,
            }),
            ServiceMessage::MetricsRequest(WireMetricsRequest {
                id: 9,
                shard: STATS_SHARD_AGGREGATE,
            }),
            ServiceMessage::MetricsRequest(WireMetricsRequest { id: 9, shard: 2 }),
            ServiceMessage::Ping(WirePing { id: 11 }),
            ServiceMessage::Pong(WirePong { id: 11 }),
        ] {
            let b = m.encode();
            assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            assert_eq!(decoded, m);
            assert_eq!(used, b.len());
            // Truncations of the fixed-size messages fail cleanly.
            for cut in 0..b.len() {
                assert!(matches!(
                    ServiceMessage::decode(&b[..cut]),
                    Err(DecodeError::Truncated { .. })
                ));
            }
        }
        // The shard rides the two octets after the id.
        let b = ServiceMessage::MetricsRequest(WireMetricsRequest {
            id: 0,
            shard: 0x0102,
        })
        .encode();
        assert_eq!(&b[6..8], &[0x01, 0x02]);
    }

    #[test]
    fn ping_pong_roundtrip_and_size() {
        // The v3 health pair mirrors the handshake pair: fixed
        // size, CRC-checked, id echo intact.
        let ping = ServiceMessage::Ping(WirePing { id: 0xDEAD_BEEF });
        let pong = ServiceMessage::Pong(WirePong { id: 0xDEAD_BEEF });
        for m in [ping, pong] {
            let b = m.encode();
            assert_eq!(b.len(), m.encoded_len());
            assert_eq!(b.len(), 8);
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            assert_eq!(decoded, m);
            assert_eq!(used, b.len());
        }
        // Ping and pong are distinct types: one never decodes as the
        // other even with identical ids.
        let pb = ServiceMessage::Ping(WirePing { id: 5 }).encode();
        assert!(matches!(
            ServiceMessage::decode(&pb).unwrap().0,
            ServiceMessage::Ping(_)
        ));
    }

    #[test]
    fn stats_corruption_detected() {
        let mut b = sample_metrics_response().encode().to_vec();
        b[12] ^= 0x01; // inside the counter block (after nc at 6..8)
        assert_eq!(ServiceMessage::decode(&b), Err(DecodeError::BadChecksum));
    }

    /// `frame` with octet `at` set to `value` and the CRC recomputed,
    /// so the field check itself is exercised.
    fn with_octet(frame: &[u8], at: usize, value: u8) -> Vec<u8> {
        let mut b = frame.to_vec();
        b[at] = value;
        let body_len = b.len() - 2;
        let crc = crate::crc::crc16_ccitt(&b[..body_len]);
        b[body_len..].copy_from_slice(&crc.to_be_bytes());
        b
    }

    /// `frame` with its version octet replaced by `version` and the
    /// CRC recomputed, so the version check itself is exercised.
    fn restamped(frame: &[u8], version: u8) -> Vec<u8> {
        with_octet(frame, 1, version)
    }

    /// One message of every type in the family.
    fn one_of_each() -> Vec<ServiceMessage> {
        let error = |code, retry_after_us| {
            ServiceMessage::Error(WirePolicyError {
                corr: 3,
                id: 9,
                code,
                retry_after_us,
            })
        };
        vec![
            sample_request(),
            sample_response(),
            error(ServiceErrorCode::TooLarge, 0),
            error(ServiceErrorCode::Overloaded, 1_500),
            ServiceMessage::Hello(WireHello {
                id: 3,
                max_batch: 256,
            }),
            ServiceMessage::Welcome(WireWelcome {
                id: 3,
                shards: 4,
                max_batch: 1024,
            }),
            ServiceMessage::Ping(WirePing { id: 11 }),
            ServiceMessage::Pong(WirePong { id: 11 }),
            ServiceMessage::MetricsRequest(WireMetricsRequest { id: 5, shard: 1 }),
            sample_metrics_response(),
        ]
    }

    /// Every message type is accepted only at [`WIRE_VERSION`]: any
    /// other version octet (with a valid CRC) is `UnsupportedVersion`,
    /// while a corrupted version octet (stale CRC) is a checksum error.
    #[test]
    fn version_mismatch_rejected() {
        for m in one_of_each() {
            let b = m.encode();
            assert_eq!(ServiceMessage::decode(&b).unwrap().0, m);
            for version in [0u8, 4, 5, 6, WIRE_VERSION + 1, 255] {
                assert_eq!(
                    ServiceMessage::decode(&restamped(&b, version)),
                    Err(DecodeError::UnsupportedVersion(version)),
                    "{m:?} stamped v{version}"
                );
                let mut corrupt = b.to_vec();
                corrupt[1] = version;
                assert_eq!(
                    ServiceMessage::decode(&corrupt),
                    Err(DecodeError::BadChecksum),
                    "{m:?} with a corrupt version octet {version}"
                );
            }
        }
    }

    #[test]
    fn versions_below_min_rejected() {
        // WIRE_VERSION is also the oldest version served: every lower
        // stamp with a valid CRC is refused, none falls back to an older
        // layout.
        let b = sample_request().encode();
        for version in 0..WIRE_VERSION {
            assert_eq!(
                ServiceMessage::decode(&restamped(&b, version)),
                Err(DecodeError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn corrupt_crc_rejected_before_fields() {
        // Corrupting the objective byte must surface as BadChecksum
        // (integrity first), not InvalidField.
        let mut b = sample_request().encode().to_vec();
        b[10] = 0x7F; // objective octet (after type+ver+corr+id)
        assert_eq!(ServiceMessage::decode(&b), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let b = sample_response().encode();
        match ServiceMessage::decode(&b[..b.len() - 1]) {
            Err(DecodeError::Truncated { needed, available }) => {
                assert_eq!(needed, b.len());
                assert_eq!(available, b.len() - 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(matches!(
            ServiceMessage::decode(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        // Cut inside the fixed header, before the count field.
        assert!(matches!(
            ServiceMessage::decode(&b[..20]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(
            ServiceMessage::decode(&[0x42, 1, 0, 0]),
            Err(DecodeError::UnknownFrameType(0x42))
        );
    }

    /// Decodes `frame` both directly and through the stream codec;
    /// both must refuse it with `want`.
    fn assert_refused(frame: &[u8], want: DecodeError) {
        assert_eq!(ServiceMessage::decode(frame), Err(want.clone()));
        let mut wire = BytesMut::new();
        wire.put_u16(frame.len() as u16);
        wire.extend_from_slice(frame);
        let mut codec = ServiceCodec::new();
        codec.feed(&wire);
        assert_eq!(codec.next_message(), Err(want));
    }

    #[test]
    fn retired_grid_tier_octet_is_refused() {
        // Response: [0x11][ver][corr u32][id u32][tier u8]...
        let b = sample_response().encode();
        assert_eq!(b[10], ServedTier::ClosedForm.to_u8());
        assert_refused(&with_octet(&b, 10, 2), DecodeError::InvalidField("tier"));
        // The live octets on either side still decode.
        for tier in [0u8, 1, 3] {
            assert!(ServiceMessage::decode(&with_octet(&b, 10, tier)).is_ok());
        }
    }

    #[test]
    fn retired_grid_kernel_octet_is_refused() {
        // Response: ...[tier u8][kernel u8]...
        let b = sample_response().encode();
        assert_eq!(b[11], PolicyKernel::ClosedForm.to_u8());
        assert_refused(&with_octet(&b, 11, 3), DecodeError::InvalidField("kernel"));
        for kernel in [0u8, 1, 2] {
            assert!(ServiceMessage::decode(&with_octet(&b, 11, kernel)).is_ok());
        }
    }

    #[test]
    fn retired_mix_message_types_are_refused() {
        // The frames the retired warm-handoff pair used to carry, at
        // the current version with a valid CRC: an empty seed
        // ([0x19][ver][id u32][count u16]) and an ack
        // ([0x1A][ver][id u32][absorbed u16][grids_built u16]).
        let seal = |mut body: Vec<u8>| {
            let crc = crate::crc::crc16_ccitt(&body);
            body.extend_from_slice(&crc.to_be_bytes());
            body
        };
        let seed = seal(vec![0x19, WIRE_VERSION, 0, 0, 0, 21, 0, 0]);
        let ack = seal(vec![0x1A, WIRE_VERSION, 0, 0, 0, 21, 0, 2, 0, 1]);
        assert_refused(&seed, DecodeError::UnknownFrameType(0x19));
        assert_refused(&ack, DecodeError::UnknownFrameType(0x1A));
        // No live message encodes to either octet.
        for m in one_of_each() {
            assert!(!matches!(m.encode()[0], 0x19 | 0x1A), "{m:?}");
        }
    }

    #[test]
    fn retired_stats_message_types_are_refused() {
        // The frames the retired stats pair used to carry, at the
        // current version with a valid CRC: a request
        // ([0x15][ver][id u32][shard u16]) and a reply
        // ([0x16][ver][id u32][shard u16]{ [counter u64] }×20).
        let seal = |mut body: Vec<u8>| {
            let crc = crate::crc::crc16_ccitt(&body);
            body.extend_from_slice(&crc.to_be_bytes());
            body
        };
        let req = seal(vec![0x15, WIRE_VERSION, 0, 0, 0, 9, 0xFF, 0xFF]);
        let mut reply = vec![0x16, WIRE_VERSION, 0, 0, 0, 9, 0, 0];
        reply.extend(std::iter::repeat_n(0u8, 8 * 20));
        assert_refused(&req, DecodeError::UnknownFrameType(0x15));
        assert_refused(&seal(reply), DecodeError::UnknownFrameType(0x16));
        for m in one_of_each() {
            assert!(!matches!(m.encode()[0], 0x15 | 0x16), "{m:?}");
        }
    }

    #[test]
    fn codec_roundtrip_with_chunked_feed() {
        let msgs = vec![sample_request(), sample_response()];
        let mut wire = BytesMut::new();
        for m in &msgs {
            ServiceCodec::encode(m, &mut wire);
        }
        let mut codec = ServiceCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(5) {
            codec.feed(piece);
            while let Some(m) = codec.next_message().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, msgs);
        assert_eq!(codec.pending(), 0);
    }

    #[test]
    fn codec_corruption_is_fatal() {
        let mut wire = BytesMut::new();
        ServiceCodec::encode(&sample_request(), &mut wire);
        wire[10] ^= 0xFF;
        let mut codec = ServiceCodec::new();
        codec.feed(&wire);
        assert!(codec.next_message().is_err());
    }

    /// Every single-bit flip of a stream-framed N=66 response (the
    /// size a batch-256 call carries, checksummed by the folding CRC)
    /// is refused: a flip in the body fails to decode, and a flip in
    /// the length prefix either fails or waits for bytes that never
    /// come. No flipped frame decodes.
    #[test]
    fn every_bit_flip_of_a_folded_response_is_rejected() {
        let m = ServiceMessage::Response(WirePolicyResponse {
            corr: 0xAB0BA,
            id: 7,
            tier: ServedTier::ClosedForm,
            kernel: PolicyKernel::ClosedForm,
            converged: true,
            throughput: 3.25,
            cert_t_sigma: 3.25,
            cert_oracle: 4.0,
            cert_dual_upper: 4.5,
            policies: (0..66)
                .map(|i| WirePolicy {
                    listen: 0.01 * f64::from(i),
                    transmit: 1e-3 / (1.0 + f64::from(i)),
                })
                .collect(),
        });
        let mut wire = BytesMut::new();
        ServiceCodec::encode(&m, &mut wire);
        assert_eq!(wire.len(), 2 + 1105);
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut codec = ServiceCodec::new();
            codec.feed(&flipped);
            let r = codec.next_message();
            if bit < 16 {
                assert!(!matches!(r, Ok(Some(_))), "prefix bit {bit} decoded: {r:?}");
            } else {
                assert!(r.is_err(), "body bit {bit} not refused: {r:?}");
            }
        }
    }

    /// The verifier and `decode` agree on `data`: the verifier accepts
    /// exactly when `decode` yields a Response, and a frame typed as a
    /// Response is refused with the same error by both.
    fn verifier_agrees_with_decode(data: &[u8]) -> bool {
        let verified = VerifiedResponse::verify(data);
        let decoded = ServiceMessage::decode(data);
        let decoded_response = matches!(decoded, Ok((ServiceMessage::Response(_), _)));
        assert_eq!(
            verified.is_ok(),
            decoded_response,
            "{verified:?} vs {decoded:?}"
        );
        match (&verified, &decoded) {
            (Ok(v), Ok((ServiceMessage::Response(r), used))) => {
                assert_eq!(&v.parse(), r);
                assert_eq!(v.frame().len(), *used);
                assert_eq!(
                    (v.corr(), v.id(), v.nodes()),
                    (r.corr, r.id, r.policies.len())
                );
            }
            (Err(ve), Err(de)) if data.first() == Some(&TYPE_RESPONSE) => assert_eq!(ve, de),
            _ => {}
        }
        verified.is_ok()
    }

    fn response_with_nodes(n: usize) -> WirePolicyResponse {
        WirePolicyResponse {
            corr: 0xC0FFEE,
            id: 41,
            tier: ServedTier::Exact,
            kernel: PolicyKernel::Factorized,
            converged: false,
            throughput: 0.75,
            cert_t_sigma: 0.75,
            cert_oracle: 0.8,
            cert_dual_upper: 0.9,
            policies: (0..n)
                .map(|i| WirePolicy {
                    listen: 1.0 / (2.0 + i as f64),
                    transmit: 1e-3 * i as f64,
                })
                .collect(),
        }
    }

    /// Every single-bit flip, every truncation, every tier, kernel and
    /// converged octet, every version and an over-cap node count: the
    /// verifier accepts exactly the frames `decode` accepts as a
    /// Response, with the same error otherwise.
    #[test]
    fn verifier_accepts_exactly_what_decode_accepts() {
        let frame = ServiceMessage::Response(response_with_nodes(66)).encode();
        assert!(verifier_agrees_with_decode(&frame));
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(!verifier_agrees_with_decode(&flipped), "bit {bit}");
        }
        for cut in 0..frame.len() {
            assert!(!verifier_agrees_with_decode(&frame[..cut]), "cut {cut}");
        }
        // Octets 10, 11 and 12 are the tier, kernel and converged
        // flag; the retired grid tier (2) and grid kernel (3) and
        // every other unassigned value are refused.
        for value in 0..=255u8 {
            let tier_ok = matches!(value, 0 | 1 | 3);
            assert_eq!(
                verifier_agrees_with_decode(&with_octet(&frame, 10, value)),
                tier_ok
            );
            assert_eq!(
                verifier_agrees_with_decode(&with_octet(&frame, 11, value)),
                value <= 2
            );
            assert_eq!(
                verifier_agrees_with_decode(&with_octet(&frame, 12, value)),
                value <= 1
            );
            assert_eq!(
                verifier_agrees_with_decode(&restamped(&frame, value)),
                value == WIRE_VERSION
            );
        }
        assert_eq!(
            VerifiedResponse::verify(&restamped(&frame, 6)),
            Err(DecodeError::UnsupportedVersion(6))
        );
        // One node past the cap, with a valid CRC over a frame that
        // really is that long.
        let full = ServiceMessage::Response(response_with_nodes(MAX_WIRE_NODES)).encode();
        let mut over = full[..full.len() - 2].to_vec();
        over.extend_from_slice(&[0; 16]);
        over[RESPONSE_FIXED - 2..RESPONSE_FIXED]
            .copy_from_slice(&(MAX_WIRE_NODES as u16 + 1).to_be_bytes());
        over.extend_from_slice(&[0, 0]);
        let over = with_octet(&over, 0, TYPE_RESPONSE);
        assert!(!verifier_agrees_with_decode(&over));
        assert_eq!(
            VerifiedResponse::verify(&over),
            Err(DecodeError::MalformedLength)
        );
        // Other frame types are not Responses.
        for m in one_of_each() {
            let b = m.encode();
            assert_eq!(
                verifier_agrees_with_decode(&b),
                matches!(m, ServiceMessage::Response(_))
            );
        }
    }

    /// A forwarded frame is the original with `corr` and `id`
    /// rewritten and a valid CRC; every other byte is untouched.
    #[test]
    fn forwarded_response_rewrites_only_corr_id_and_crc() {
        let original = response_with_nodes(5);
        let frame = ServiceMessage::Response(original.clone()).encode();
        let mut out = BytesMut::new();
        ServiceCodec::forward_response(&mut out, &frame, 0x1234_5678, 99);
        let mut codec = ServiceCodec::new();
        codec.feed(&out);
        let Some(ServiceMessage::Response(got)) = codec.next_message().unwrap() else {
            panic!("forwarded frame is a Response");
        };
        let mut want = original;
        want.corr = 0x1234_5678;
        want.id = 99;
        assert_eq!(got, want);
        assert_eq!(out.len(), 2 + frame.len());
        assert_eq!(&out[2 + 10..out.len() - 2], &frame[10..frame.len() - 2]);
    }

    /// The direct encoders write the same bytes as the message
    /// encoder, and `next_incoming` lends Responses out unparsed.
    #[test]
    fn direct_encoders_match_message_bytes() {
        let (ServiceMessage::Request(req), ServiceMessage::Response(resp)) =
            (sample_request(), sample_response())
        else {
            unreachable!()
        };
        let mut reference = BytesMut::new();
        ServiceCodec::encode(&ServiceMessage::Request(req.clone()), &mut reference);
        ServiceCodec::encode(&ServiceMessage::Response(resp.clone()), &mut reference);
        let mut enc = ScatterEncoder::new();
        enc.push_request(&req.header(), &req.budgets_w);
        let mut direct = BytesMut::new();
        direct.extend_from_slice(enc.pending());
        ServiceCodec::encode_response(&mut direct, &resp.header(), resp.policies.iter().copied());
        assert_eq!(&direct[..], &reference[..]);

        let mut codec = ServiceCodec::new();
        codec.feed(&direct);
        assert!(matches!(
            codec.next_incoming().unwrap(),
            Some(Incoming::Message(ServiceMessage::Request(_)))
        ));
        let Some(Incoming::Response(v)) = codec.next_incoming().unwrap() else {
            panic!("a Response is lent out as a verified frame");
        };
        assert_eq!(v.parse(), resp);
        assert_eq!(parse_verified_response(v.frame()), resp);
        assert!(codec.next_incoming().unwrap().is_none());
        assert_eq!(codec.pending(), 0);
    }

    /// The scatter encoder frames batches into one reusable buffer:
    /// the bytes are exactly the per-message codec's, and a drained
    /// buffer resets for the next batch without dropping frames.
    #[test]
    fn scatter_encoder_matches_codec_bytes_and_reuses_buffer() {
        let msgs = vec![sample_request(), sample_response()];
        let mut reference = BytesMut::new();
        for m in &msgs {
            ServiceCodec::encode(m, &mut reference);
        }
        let mut enc = ScatterEncoder::new();
        enc.push_all(&msgs, WIRE_VERSION);
        assert_eq!(enc.frames(), 2);
        assert_eq!(enc.pending(), &reference[..]);

        // Partial writes advance the cursor without re-encoding.
        let half = enc.pending().len() / 2;
        let tail = enc.pending()[half..].to_vec();
        enc.advance(half);
        assert_eq!(enc.pending(), &tail[..]);
        assert!(!enc.is_drained());
        enc.advance(tail.len());
        assert!(enc.is_drained());
        assert!(enc.is_empty());
        assert_eq!(enc.frames(), 0);

        // The next batch reuses the cleared buffer and still decodes.
        enc.push_all(&msgs, WIRE_VERSION);
        let mut codec = ServiceCodec::new();
        codec.feed(enc.pending());
        let mut decoded = Vec::new();
        while let Some(m) = codec.next_message().unwrap() {
            decoded.push(m);
        }
        assert_eq!(decoded, msgs);
    }

    proptest! {
        /// Arbitrary (finite-float) requests round-trip exactly.
        #[test]
        fn prop_request_roundtrip(
            corr in any::<u32>(),
            id in any::<u32>(),
            deadline_us in any::<u32>(),
            obj in 0u8..2,
            sigma in 0.01f64..10.0,
            tol in 1e-9f64..1.0,
            l in 1e-9f64..1.0,
            x in 1e-9f64..1.0,
            budgets in proptest::collection::vec(1e-9f64..1.0, 0..40),
        ) {
            let m = ServiceMessage::Request(WirePolicyRequest {
                corr,
                id,
                deadline_us,
                objective: WireObjective::from_u8(obj).unwrap(),
                sigma,
                tolerance: tol,
                listen_w: l,
                transmit_w: x,
                budgets_w: budgets,
            });
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
        }

        /// Arbitrary responses round-trip exactly.
        #[test]
        fn prop_response_roundtrip(
            corr in any::<u32>(),
            id in any::<u32>(),
            tier in 0usize..3,
            kernel in 0u8..3,
            converged in any::<bool>(),
            t in 0.0f64..100.0,
            policies in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..40),
        ) {
            let m = ServiceMessage::Response(WirePolicyResponse {
                corr,
                id,
                tier: [ServedTier::Solver, ServedTier::Exact, ServedTier::ClosedForm][tier],
                kernel: PolicyKernel::from_u8(kernel).unwrap(),
                converged,
                throughput: t,
                cert_t_sigma: t,
                cert_oracle: t * 1.25,
                cert_dual_upper: t * 1.5,
                policies: policies
                    .into_iter()
                    .map(|(listen, transmit)| WirePolicy { listen, transmit })
                    .collect(),
            });
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
        }

        /// Random responses of 1 to 4000 nodes: the verifier accepts
        /// each, and agrees with `decode` on every truncation.
        #[test]
        fn prop_verifier_accepts_random_responses(
            corr in any::<u32>(),
            id in any::<u32>(),
            n in 1usize..=4000,
            tier in 0usize..3,
            kernel in 0u8..3,
            converged in any::<bool>(),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut r = response_with_nodes(n);
            r.corr = corr;
            r.id = id;
            r.tier = [ServedTier::Solver, ServedTier::Exact, ServedTier::ClosedForm][tier];
            r.kernel = PolicyKernel::from_u8(kernel).unwrap();
            r.converged = converged;
            let b = ServiceMessage::Response(r).encode();
            prop_assert!(verifier_agrees_with_decode(&b));
            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(!verifier_agrees_with_decode(&b[..cut]));
        }

        /// Every truncation of a valid encoding fails with Truncated —
        /// never a panic, never a bogus success.
        #[test]
        fn prop_truncations_fail_cleanly(
            corr in any::<u32>(),
            budgets in proptest::collection::vec(1e-9f64..1.0, 1..20),
            cut_frac in 0.0f64..1.0,
        ) {
            let m = ServiceMessage::Request(WirePolicyRequest {
                corr,
                id: 1,
                deadline_us: 0,
                objective: WireObjective::Anyput,
                sigma: 0.5,
                tolerance: 1e-3,
                listen_w: 1e-3,
                transmit_w: 1e-3,
                budgets_w: budgets,
            });
            let b = m.encode();
            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }

        /// Single-byte corruption anywhere in the body is caught by the
        /// CRC (or, for the leading type octet, by type validation).
        #[test]
        fn prop_corruption_detected(
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let m = sample_response();
            let mut b = m.encode().to_vec();
            let pos = ((b.len() - 1) as f64 * pos_frac) as usize;
            b[pos] ^= flip;
            let r = ServiceMessage::decode(&b);
            // Corrupting a count field can also shift the expected
            // length (Truncated); all are clean rejections.
            prop_assert!(r.is_err());
        }

        /// Random garbage never panics the decoder.
        #[test]
        fn prop_decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = ServiceMessage::decode(&bytes);
        }

        /// Ping/Pong round-trip for arbitrary ids, and every proper
        /// truncation fails with Truncated — mirroring the
        /// handshake/scrape suite for the v3 health pair.
        #[test]
        fn prop_ping_pong_roundtrip_and_truncation(
            id in any::<u32>(),
            pong in any::<bool>(),
        ) {
            let m = if pong {
                ServiceMessage::Pong(WirePong { id })
            } else {
                ServiceMessage::Ping(WirePing { id })
            };
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
            for cut in 0..b.len() {
                prop_assert!(matches!(
                    ServiceMessage::decode(&b[..cut]),
                    Err(DecodeError::Truncated { .. })
                ));
            }
        }

        /// Single-byte corruption anywhere in a Ping/Pong frame is a
        /// clean rejection (CRC, type validation, or version check) —
        /// never a panic, never a silent success.
        #[test]
        fn prop_ping_pong_corruption_detected(
            id in any::<u32>(),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let m = ServiceMessage::Ping(WirePing { id });
            let mut b = m.encode().to_vec();
            let pos = ((b.len() - 1) as f64 * pos_frac) as usize;
            b[pos] ^= flip;
            // Flipping the type octet to TYPE_PONG is the one
            // corruption the CRC cannot see *as* corruption only if
            // the CRC also matched — it cannot, since the CRC covers
            // the type octet.
            prop_assert!(ServiceMessage::decode(&b).is_err());
        }

        /// Cross-version interop: a v4 peer's request is refused, never
        /// misread. Its genuine v4 layout (no correlation id, no
        /// deadline) and the current layout stamped v4 both fail to
        /// decode — the latter as `UnsupportedVersion(4)` — and every
        /// truncation is still a clean `Truncated`.
        #[test]
        fn prop_v4_request_interop(
            corr in any::<u32>(),
            id in any::<u32>(),
            budgets in proptest::collection::vec(1e-9f64..1.0, 0..20),
            cut_frac in 0.0f64..1.0,
        ) {
            let b = ServiceMessage::Request(WirePolicyRequest {
                corr,
                id,
                deadline_us: id ^ corr,
                objective: WireObjective::Groupput,
                sigma: 0.5,
                tolerance: 1e-3,
                listen_w: 1e-3,
                transmit_w: 1e-3,
                budgets_w: budgets,
            })
            .encode();
            let v4 = restamped(&b, 4);
            prop_assert_eq!(
                ServiceMessage::decode(&v4),
                Err(DecodeError::UnsupportedVersion(4))
            );
            // The v4 layout: drop corr (bytes 2..6) and deadline (10..14).
            let mut legacy = b[..2].to_vec();
            legacy.extend_from_slice(&b[6..10]);
            legacy.extend_from_slice(&b[14..]);
            prop_assert!(ServiceMessage::decode(&restamped(&legacy, 4)).is_err());

            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(matches!(
                ServiceMessage::decode(&v4[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }

        /// Cross-version interop for the other correlated data-plane
        /// frames: a response or error in the v4 layout (no correlation
        /// id) or stamped v4 is refused, and every truncation is still a
        /// clean `Truncated`.
        #[test]
        fn prop_v4_response_and_error_interop(
            corr in any::<u32>(),
            id in any::<u32>(),
            is_error in any::<bool>(),
            cut_frac in 0.0f64..1.0,
        ) {
            let m = if is_error {
                ServiceMessage::Error(WirePolicyError {
                    corr,
                    id,
                    code: ServiceErrorCode::BadRequest,
                    retry_after_us: 0,
                })
            } else {
                let ServiceMessage::Response(mut r) = sample_response() else {
                    unreachable!()
                };
                r.corr = corr;
                r.id = id;
                ServiceMessage::Response(r)
            };
            let b = m.encode();
            let v4 = restamped(&b, 4);
            prop_assert_eq!(
                ServiceMessage::decode(&v4),
                Err(DecodeError::UnsupportedVersion(4))
            );
            let mut legacy = b[..2].to_vec();
            legacy.extend_from_slice(&b[6..]);
            prop_assert!(ServiceMessage::decode(&restamped(&legacy, 4)).is_err());

            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(matches!(
                ServiceMessage::decode(&v4[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }

        /// A stream that switches version mid-way stops there: the
        /// codec yields every current-version frame before the first
        /// foreign-stamped one, in order with their correlation ids,
        /// then fails with `UnsupportedVersion` — and cutting the
        /// stream at any byte boundary yields exactly the complete
        /// frames before the cut (up to that first foreign frame).
        #[test]
        fn prop_mixed_version_stream_decode(
            frames in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), 0u8..8, 0usize..6),
                1..12,
            ),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut stream = BytesMut::new();
            let mut boundaries = vec![0usize];
            let mut expected = Vec::new();
            let mut foreign = None;
            for &(corr, id, pick, n) in &frames {
                let m = ServiceMessage::Request(WirePolicyRequest {
                    corr,
                    id,
                    deadline_us: 0,
                    objective: WireObjective::Anyput,
                    sigma: 0.5,
                    tolerance: 1e-3,
                    listen_w: 1e-3,
                    transmit_w: 1e-3,
                    budgets_w: vec![1e-3; n],
                });
                let mut framed = BytesMut::new();
                ServiceCodec::encode(&m, &mut framed);
                let mut framed = framed.to_vec();
                // Picks 0..3 stamp an older version (4, 5, 6).
                if pick < 3 {
                    let version = 4 + pick;
                    let body = restamped(&framed[2..], version);
                    framed.truncate(2);
                    framed.extend_from_slice(&body);
                    foreign.get_or_insert((boundaries.len() - 1, version));
                } else if foreign.is_none() {
                    expected.push((corr, id));
                }
                stream.extend_from_slice(&framed);
                boundaries.push(stream.len());
            }
            let mut codec = ServiceCodec::new();
            codec.feed(&stream);
            let mut got = Vec::new();
            let end = loop {
                match codec.next_message() {
                    Ok(Some(ServiceMessage::Request(r))) => got.push((r.corr, r.id)),
                    other => break other,
                }
            };
            prop_assert_eq!(&got, &expected);
            match foreign {
                Some((_, version)) => {
                    prop_assert_eq!(end, Err(DecodeError::UnsupportedVersion(version)))
                }
                None => prop_assert_eq!(end, Ok(None)),
            }

            // Any cut point: every frame wholly before the cut decodes,
            // nothing after it (or after the first foreign frame) does.
            let cut = (stream.len() as f64 * cut_frac) as usize;
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            let whole = foreign.map_or(whole, |(k, _)| whole.min(k));
            let mut codec = ServiceCodec::new();
            codec.feed(&stream[..cut]);
            let mut got = 0usize;
            while let Ok(Some(_)) = codec.next_message() {
                got += 1;
            }
            prop_assert_eq!(got, whole);
        }

        /// Every Overloaded reply is well-formed wire: exactly 16
        /// bytes on the 0x1B type, round-trips bit-exactly for any
        /// (corr, id, retry) triple, and every truncation or
        /// single-byte corruption is a clean typed rejection.
        #[test]
        fn prop_overloaded_well_formed(
            corr in any::<u32>(),
            id in any::<u32>(),
            retry_after_us in any::<u32>(),
            cut_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let m = ServiceMessage::Error(WirePolicyError {
                corr,
                id,
                code: ServiceErrorCode::Overloaded,
                retry_after_us,
            });
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            prop_assert_eq!(b.len(), 16);
            prop_assert_eq!(b[0], 0x1B);
            prop_assert_eq!(b[1], WIRE_VERSION);
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
            for cut in 0..b.len() {
                prop_assert!(matches!(
                    ServiceMessage::decode(&b[..cut]),
                    Err(DecodeError::Truncated { .. })
                ));
            }
            let mut corrupt = b.to_vec();
            let pos = ((b.len() - 1) as f64 * cut_frac) as usize;
            corrupt[pos] ^= flip;
            prop_assert!(ServiceMessage::decode(&corrupt).is_err());
        }

        /// Deadline interop: a request round-trips its deadline
        /// bit-exactly, while the same request stamped with an older
        /// version (4, 5 or 6) is refused rather than decoded with the
        /// deadline dropped.
        #[test]
        fn prop_deadline_version_interop(
            corr in any::<u32>(),
            id in any::<u32>(),
            deadline_us in 1u32..u32::MAX,
            n in 0usize..12,
        ) {
            let m = ServiceMessage::Request(WirePolicyRequest {
                corr,
                id,
                deadline_us,
                objective: WireObjective::Groupput,
                sigma: 0.5,
                tolerance: 1e-3,
                listen_w: 1e-3,
                transmit_w: 1e-3,
                budgets_w: vec![1e-3; n],
            });
            let b = m.encode();
            prop_assert_eq!(b.len(), 49 + 8 * n + 2);
            let (decoded, _) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);

            for version in [4u8, 5, 6] {
                prop_assert_eq!(
                    ServiceMessage::decode(&restamped(&b, version)),
                    Err(DecodeError::UnsupportedVersion(version))
                );
            }
        }

        /// Metrics-snapshot wire round-trip is lossless: arbitrary
        /// counters, kind-tagged gauges, and strictly-ascending sparse
        /// histograms come back bit-exact, and every proper truncation
        /// fails with Truncated — the v7 scrape pair inherits the
        /// framing discipline of the rest of the family.
        #[test]
        fn prop_metrics_snapshot_roundtrip(
            id in any::<u32>(),
            counters in proptest::collection::vec(any::<u64>(), 0..48),
            gauges in proptest::collection::vec((0u8..=1, any::<u64>()), 0..16),
            gaps in proptest::collection::vec((1u16..400, any::<u64>()), 0..50),
            cut_frac in 0.0f64..1.0,
        ) {
            // Strictly-positive gaps prefix-sum into strictly-
            // ascending bucket indices.
            let mut idx = 0u32;
            let mut buckets: Vec<(u16, u64)> = Vec::new();
            for (gap, count) in gaps {
                idx += u32::from(gap);
                if idx > u32::from(u16::MAX) {
                    break;
                }
                buckets.push((idx as u16, count));
            }
            let m = ServiceMessage::MetricsResponse(WireMetricsResponse {
                id,
                snapshot: MetricsSnapshot {
                    counters,
                    gauges,
                    hists: vec![HistSnapshot { buckets }, HistSnapshot::default()],
                },
            });
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }

        /// Scrape requests for any id and shard round-trip, every
        /// proper truncation fails with Truncated, and any single-byte
        /// corruption is a clean rejection.
        #[test]
        fn prop_metrics_request_roundtrip_truncation_and_corruption(
            id in any::<u32>(),
            shard in any::<u16>(),
            cut_frac in 0.0f64..1.0,
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let m = ServiceMessage::MetricsRequest(WireMetricsRequest { id, shard });
            let b = m.encode();
            prop_assert_eq!(b.len(), m.encoded_len());
            let (decoded, used) = ServiceMessage::decode(&b).unwrap();
            prop_assert_eq!(decoded, m);
            prop_assert_eq!(used, b.len());
            let cut = ((b.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(matches!(
                ServiceMessage::decode(&b[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
            let mut corrupt = b.to_vec();
            let pos = ((corrupt.len() - 1) as f64 * pos_frac) as usize;
            corrupt[pos] ^= flip;
            prop_assert!(ServiceMessage::decode(&corrupt).is_err());
        }

        /// A retired stats frame is refused whatever it carries, by
        /// the decoder and by the stream codec (so a server drops the
        /// connection without a reply), exactly like 0x19/0x1A.
        #[test]
        fn prop_retired_stats_frames_refused(
            reply in any::<bool>(),
            id in any::<u32>(),
            shard in any::<u16>(),
            counters in proptest::collection::vec(any::<u64>(), 20),
        ) {
            let ty = if reply { 0x16 } else { 0x15 };
            let mut body = vec![ty, WIRE_VERSION];
            body.extend_from_slice(&id.to_be_bytes());
            body.extend_from_slice(&shard.to_be_bytes());
            if reply {
                for c in &counters {
                    body.extend_from_slice(&c.to_be_bytes());
                }
            }
            let crc = crate::crc::crc16_ccitt(&body);
            body.extend_from_slice(&crc.to_be_bytes());
            prop_assert_eq!(
                ServiceMessage::decode(&body),
                Err(DecodeError::UnknownFrameType(ty))
            );
            let mut codec = ServiceCodec::new();
            let mut wire = BytesMut::new();
            wire.put_u16(body.len() as u16);
            wire.extend_from_slice(&body);
            codec.feed(&wire);
            prop_assert_eq!(codec.drain(), Err(DecodeError::UnknownFrameType(ty)));
        }

        /// Single-byte corruption anywhere in a metrics frame is a
        /// clean typed rejection — CRC, version window, cap check, or
        /// bucket-order discipline; never a panic, never a silent
        /// success.
        #[test]
        fn prop_metrics_corruption_detected(
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let mut b = sample_metrics_response().encode().to_vec();
            let pos = ((b.len() - 1) as f64 * pos_frac) as usize;
            b[pos] ^= flip;
            prop_assert!(ServiceMessage::decode(&b).is_err());
        }
    }
}
