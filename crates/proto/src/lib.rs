//! # econcast-proto — wire formats for EconCast frames
//!
//! The testbed implementation (Section VIII) exchanges three kinds of
//! frames over the CC2500 radio:
//!
//! * **data packets** — "each data packet contains the node ID and
//!   information about the number of packets it has received from each
//!   other node" (Section VIII-D); 40 ms on air in the experiments;
//! * **pings** — 0.4 ms minimal frames sent by recipients during the
//!   8 ms ping interval after each packet so the transmitter can
//!   estimate `ĉ(t)` (Section VIII-C). A ping carries no payload —
//!   the paper calls them *informationless* — but on real radios even
//!   an energy pulse has a minimal preamble/sync word, which is what
//!   [`Frame::Ping`] models;
//! * **preambles** — the carrier-sense target.
//!
//! This crate defines a compact binary encoding over [`bytes`] with a
//! CRC-16/CCITT integrity check (implemented from scratch — the
//! approved dependency list has no CRC crate) and a length-prefixed
//! stream codec used by the emulated observer node's serial link.
//!
//! A second, *versioned* message family ([`service`], type octets
//! `0x10..`) carries the policy-serving subsystem's request/response
//! traffic (`econcast-service`) over the same CRC and length-prefix
//! machinery.

pub mod codec;
pub mod crc;
pub mod error;
pub mod frame;
pub mod service;

pub use codec::StreamCodec;
pub use error::DecodeError;
pub use frame::{DataFrame, Frame, PingFrame, ReceptionReport};
pub use service::{
    Incoming, RequestHeader, ResponseHeader, ScatterEncoder, ServedTier, ServiceCodec,
    ServiceErrorCode, ServiceMessage, VerifiedResponse, WireObjective, WirePolicy, WirePolicyError,
    WirePolicyRequest, WirePolicyResponse, WIRE_VERSION,
};
