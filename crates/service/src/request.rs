//! Native request/response types and their wire conversions.

use bytes::BytesMut;
use econcast_core::{NodeParams, ThroughputMode};
use econcast_oracle::AchievabilityGap;
use econcast_proto::service::{
    PolicyKernel, RequestHeader, ResponseHeader, ServedTier, ServiceCodec, ServiceErrorCode,
    WireObjective, WirePolicy, WirePolicyError, WirePolicyRequest, WirePolicyResponse,
    MAX_WIRE_NODES,
};

/// One policy request: "tell these `n` nodes how to behave".
///
/// All nodes share the radio powers `(listen_w, transmit_w)`; the
/// heterogeneity is in the budgets, matching the paper's experiment
/// grids (same CC2500 radio, different harvesting conditions).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRequest {
    /// Per-node power budgets `ρ_i` (W), in the caller's node order.
    pub budgets_w: Vec<f64>,
    /// Listen power `L` (W).
    pub listen_w: f64,
    /// Transmit power `X` (W).
    pub transmit_w: f64,
    /// Entropy temperature σ.
    pub sigma: f64,
    /// Throughput objective.
    pub objective: ThroughputMode,
    /// Requested relative policy accuracy (quantized onto decade tiers
    /// for caching; see [`econcast_statespace::quantize_tolerance`]).
    pub tolerance: f64,
}

/// One node's served policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePolicy {
    /// Listen-time fraction `α_i`.
    pub listen: f64,
    /// Transmit-time fraction `β_i`.
    pub transmit: f64,
}

/// A served policy batch entry: per-node policies in the *request's*
/// node order, plus the achievability-gap certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResponse {
    /// Per-node `(listen, transmit)` fractions, caller order.
    pub policies: Vec<NodePolicy>,
    /// Expected network throughput `E_π[T_w]` under the policy.
    pub throughput: f64,
    /// Which cache tier answered.
    pub tier: ServedTier,
    /// Which solve kernel produced the underlying policy — stable
    /// across cache hits (an exact-tier hit reports the kernel that
    /// originally filled the entry), so large-N cache behaviour is
    /// observable per kernel.
    pub kernel: PolicyKernel,
    /// Whether the producing solve met its tolerance (true for the
    /// closed-form tier, whose scalar dual is solved exactly).
    pub converged: bool,
    /// Weak-duality certificate `T^σ ≤ T* ≤ D(η)`.
    pub certificate: AchievabilityGap,
}

/// Why a request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A field failed validation.
    BadRequest(&'static str),
    /// Heterogeneous instance beyond the exact solver's reach.
    TooLarge {
        /// Requested node count.
        n: usize,
        /// The service's exact-enumeration ceiling.
        max: usize,
    },
    /// The admission queue is past its shed ladder: the request was
    /// rejected (or its deadline expired) rather than served late.
    /// Rides the dedicated `Overloaded` frame, never `0x12`.
    Overloaded {
        /// Server's drain-time estimate: retry no sooner than this.
        retry_after_us: u32,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(what) => write!(f, "bad request: {what}"),
            ServiceError::TooLarge { n, max } => write!(
                f,
                "heterogeneous instance with {n} nodes exceeds the exact solver ceiling ({max})"
            ),
            ServiceError::Overloaded { retry_after_us } => {
                write!(f, "server overloaded; retry after {retry_after_us}µs")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// The wire error code for this error.
    pub fn wire_code(&self) -> ServiceErrorCode {
        match self {
            ServiceError::BadRequest(_) => ServiceErrorCode::BadRequest,
            ServiceError::TooLarge { .. } => ServiceErrorCode::TooLarge,
            ServiceError::Overloaded { .. } => ServiceErrorCode::Overloaded,
        }
    }
}

/// Converts the wire objective to the core throughput mode.
pub fn mode_from_wire(obj: WireObjective) -> ThroughputMode {
    match obj {
        WireObjective::Groupput => ThroughputMode::Groupput,
        WireObjective::Anyput => ThroughputMode::Anyput,
    }
}

/// Converts the core throughput mode to the wire objective.
pub fn mode_to_wire(mode: ThroughputMode) -> WireObjective {
    match mode {
        ThroughputMode::Groupput => WireObjective::Groupput,
        ThroughputMode::Anyput => WireObjective::Anyput,
    }
}

impl PolicyRequest {
    /// A homogeneous clique request: `n` nodes at the same params.
    pub fn homogeneous(
        n: usize,
        params: NodeParams,
        sigma: f64,
        objective: ThroughputMode,
        tolerance: f64,
    ) -> Self {
        PolicyRequest {
            budgets_w: vec![params.budget_w; n],
            listen_w: params.listen_w,
            transmit_w: params.transmit_w,
            sigma,
            objective,
            tolerance,
        }
    }

    /// Number of nodes in the instance.
    pub fn num_nodes(&self) -> usize {
        self.budgets_w.len()
    }

    /// The [`NodeParams`] vector in caller order.
    pub fn nodes(&self) -> Vec<NodeParams> {
        self.budgets_w
            .iter()
            .map(|&rho| NodeParams::new(rho, self.listen_w, self.transmit_w))
            .collect()
    }

    /// Validates every field; `Err` carries what failed.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let fin_pos = |v: f64| v > 0.0 && v.is_finite();
        if self.budgets_w.is_empty() {
            return Err(ServiceError::BadRequest("empty budget vector"));
        }
        if self.budgets_w.len() > MAX_WIRE_NODES {
            return Err(ServiceError::BadRequest("node count exceeds wire cap"));
        }
        if !self.budgets_w.iter().all(|&b| fin_pos(b)) {
            return Err(ServiceError::BadRequest("budgets must be positive finite"));
        }
        if !fin_pos(self.listen_w) || !fin_pos(self.transmit_w) {
            return Err(ServiceError::BadRequest(
                "radio powers must be positive finite",
            ));
        }
        // A subnormal σ passes `fin_pos` but its 1/σ is ∞, which every
        // Gibbs weight divides by.
        if !fin_pos(self.sigma) || !fin_pos(1.0 / self.sigma) {
            return Err(ServiceError::BadRequest(
                "sigma must be positive finite with a finite reciprocal",
            ));
        }
        if !fin_pos(self.tolerance) {
            return Err(ServiceError::BadRequest(
                "tolerance must be positive finite",
            ));
        }
        Ok(())
    }

    /// Builds the native request from a wire request, taking over its
    /// budget vector (no validation — call
    /// [`PolicyRequest::validate`] before serving).
    pub fn from_wire(w: WirePolicyRequest) -> Self {
        PolicyRequest {
            budgets_w: w.budgets_w,
            listen_w: w.listen_w,
            transmit_w: w.transmit_w,
            sigma: w.sigma,
            objective: mode_from_wire(w.objective),
            tolerance: w.tolerance,
        }
    }

    /// Every wire field but the budgets, for encoding the request
    /// straight from this struct
    /// ([`ScatterEncoder::push_request`](econcast_proto::ScatterEncoder::push_request)).
    pub fn wire_header(&self, corr: u32, id: u32, deadline_us: u32) -> RequestHeader {
        RequestHeader {
            corr,
            id,
            deadline_us,
            objective: mode_to_wire(self.objective),
            sigma: self.sigma,
            tolerance: self.tolerance,
            listen_w: self.listen_w,
            transmit_w: self.transmit_w,
        }
    }

    /// Encodes the native request as a wire request with the given id.
    /// The batch correlation id starts at 0 ("not pipelined"); the
    /// pipelined client stamps its own before framing.
    pub fn to_wire(&self, id: u32) -> WirePolicyRequest {
        WirePolicyRequest {
            corr: 0,
            id,
            deadline_us: 0,
            objective: mode_to_wire(self.objective),
            sigma: self.sigma,
            tolerance: self.tolerance,
            listen_w: self.listen_w,
            transmit_w: self.transmit_w,
            budgets_w: self.budgets_w.clone(),
        }
    }
}

impl PolicyResponse {
    /// Rebuilds a native response from its wire form — the remote-
    /// shard dialer's inverse of [`PolicyResponse::to_wire`]. The wire
    /// response does not carry σ (the requester knows it), so the
    /// certificate's σ field is restored from the originating
    /// request; every other field round-trips bit-exactly, which is
    /// what lets a cluster deployment preserve the bit-identical-
    /// response guarantee across process boundaries.
    pub fn from_wire(w: &WirePolicyResponse, sigma: f64) -> Self {
        PolicyResponse {
            policies: w
                .policies
                .iter()
                .map(|p| NodePolicy {
                    listen: p.listen,
                    transmit: p.transmit,
                })
                .collect(),
            throughput: w.throughput,
            tier: w.tier,
            kernel: w.kernel,
            converged: w.converged,
            certificate: AchievabilityGap {
                sigma,
                t_sigma: w.cert_t_sigma,
                oracle: w.cert_oracle,
                dual_upper: w.cert_dual_upper,
                converged: w.converged,
            },
        }
    }

    /// Appends this response as a length-prefixed Response frame
    /// carrying `corr` and `id`, encoded straight from this struct.
    pub fn encode_wire(&self, corr: u32, id: u32, out: &mut BytesMut) {
        let head = ResponseHeader {
            corr,
            id,
            tier: self.tier,
            kernel: self.kernel,
            converged: self.converged,
            throughput: self.throughput,
            cert_t_sigma: self.certificate.t_sigma,
            cert_oracle: self.certificate.oracle,
            cert_dual_upper: self.certificate.dual_upper,
        };
        let policies = self.policies.iter().map(|p| WirePolicy {
            listen: p.listen,
            transmit: p.transmit,
        });
        ServiceCodec::encode_response(out, &head, policies);
    }

    /// Encodes the native response as a wire response with the given
    /// id.
    pub fn to_wire(&self, id: u32) -> WirePolicyResponse {
        WirePolicyResponse {
            corr: 0,
            id,
            tier: self.tier,
            kernel: self.kernel,
            converged: self.converged,
            throughput: self.throughput,
            cert_t_sigma: self.certificate.t_sigma,
            cert_oracle: self.certificate.oracle,
            cert_dual_upper: self.certificate.dual_upper,
            policies: self
                .policies
                .iter()
                .map(|p| WirePolicy {
                    listen: p.listen,
                    transmit: p.transmit,
                })
                .collect(),
        }
    }
}

/// Encodes a service error as a wire error with the given id.
pub fn error_to_wire(err: &ServiceError, id: u32) -> WirePolicyError {
    WirePolicyError {
        corr: 0,
        id,
        code: err.wire_code(),
        retry_after_us: match err {
            ServiceError::Overloaded { retry_after_us } => *retry_after_us,
            _ => 0,
        },
    }
}
