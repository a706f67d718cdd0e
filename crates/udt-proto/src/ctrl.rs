//! Control packets: handshake, ACK, ACK2, NAK, keep-alive, shutdown.
//!
//! Control packets share a 12-byte header with data packets but set the
//! leading flag bit. The 15 bits after the flag carry the packet type; the
//! second header word carries type-specific "additional info" (the ACK
//! sequence number for ACK/ACK2, the answer flag of a shutdown, unused
//! otherwise); type-specific control information follows the header.

use crate::auth::AuthField;
use crate::seqno::{SeqNo, SeqRange};

/// Control packet type codes (wire values follow the UDT draft).
pub mod type_code {
    /// Connection handshake.
    pub const HANDSHAKE: u16 = 0x0;
    /// Keep-alive.
    pub const KEEPALIVE: u16 = 0x1;
    /// Selective acknowledgement (timer-based, one per SYN).
    pub const ACK: u16 = 0x2;
    /// Negative acknowledgement: explicit loss report.
    pub const NAK: u16 = 0x3;
    /// Connection teardown.
    pub const SHUTDOWN: u16 = 0x5;
    /// Acknowledgement of an ACK (used for RTT measurement).
    pub const ACK2: u16 = 0x6;
}

/// Handshake request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeReqType {
    /// Client → server connection request.
    Request,
    /// Server → client response.
    Response,
    /// Server → client cookie challenge: a stateless listener answers an
    /// uncookied request with one of these and allocates nothing until the
    /// initiator echoes the cookie back in a fresh request (SYN-cookie
    /// style; see the listener-hardening notes in the `udt` crate).
    Challenge,
}

impl HandshakeReqType {
    /// Wire encoding.
    pub fn to_wire(self) -> i32 {
        match self {
            HandshakeReqType::Request => 1,
            HandshakeReqType::Response => -1,
            HandshakeReqType::Challenge => 2,
        }
    }

    /// Decode from wire; unknown values are rejected by the codec.
    pub fn from_wire(v: i32) -> Option<HandshakeReqType> {
        match v {
            1 => Some(HandshakeReqType::Request),
            -1 => Some(HandshakeReqType::Response),
            2 => Some(HandshakeReqType::Challenge),
            _ => None,
        }
    }
}

/// Optional handshake extension carrying the resilience fields: the
/// stateless-listener cookie and the session-resume pair.
///
/// The extension is version-gated on the wire: a peer that predates it
/// emits the bare 24-byte handshake body and ignores trailing bytes, so
/// both directions interoperate — an absent extension simply means "no
/// cookie echoed, no resumable session".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HandshakeExt {
    /// Stateless handshake cookie. In a `Challenge` this is the server's
    /// freshly derived cookie; in a `Request` it is the echo (0 = none
    /// yet); unused (0) in a `Response`.
    pub cookie: u32,
    /// Resumable-session identifier chosen by the initiator (0 = the
    /// connection is not part of a resumable session).
    pub session_token: u64,
    /// Byte-offset resume field. In a `Request` it is the initiator's
    /// confirmed receive high-water mark (download resume); in a
    /// `Response` it is the acceptor's confirmed high-water mark for
    /// `session_token` (upload resume).
    pub resume_offset: u64,
    /// UDT-AUTH negotiation field (see [`crate::auth`]): flags, the
    /// client's per-attempt nonce, and a field-level MAC over the whole
    /// handshake. Absent on unauthenticated handshakes and when talking
    /// to peers that predate it — on the wire the block is gated by a
    /// magic value after the base extension, so all four combinations of
    /// old/new peers interoperate.
    pub auth: Option<AuthField>,
}

/// Handshake control information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeData {
    /// Protocol version (this implementation speaks version 2, the SC'04
    /// revision).
    pub version: u32,
    /// Request or response.
    pub req_type: HandshakeReqType,
    /// Initial data packet sequence number.
    pub init_seq: SeqNo,
    /// Maximum segment size in bytes (UDP payload: UDT header + data). Each
    /// side proposes; both use the minimum.
    pub mss: u32,
    /// Maximum flow window (receiver buffer capacity in packets).
    pub max_flow_win: u32,
    /// Connection id the peer should address packets to.
    pub socket_id: u32,
    /// Resilience extension (cookie + resume pair), absent when talking to
    /// (or as) a peer that predates it.
    pub ext: Option<HandshakeExt>,
}

/// ACK control information (the paper's §3.1/§3.2 feedback fields).
///
/// A *light* ACK carries only `rcv_next`; UDT emits light ACKs when acking
/// more often than the SYN timer would (very high packet rates), because the
/// receiver-side statistics are only refreshed once per SYN anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckData {
    /// All packets before this sequence number have been received.
    pub rcv_next: SeqNo,
    /// Round-trip time estimate, microseconds. `None` in a light ACK.
    pub rtt_us: Option<u32>,
    /// RTT variance, microseconds.
    pub rtt_var_us: Option<u32>,
    /// Available receiver buffer, in packets (flow control input, §3.2).
    pub avail_buf_pkts: Option<u32>,
    /// Packet arrival speed, packets/second (median-filtered, §3.2).
    pub recv_rate_pps: Option<u32>,
    /// Estimated link capacity, packets/second (packet pair, §3.4).
    pub link_cap_pps: Option<u32>,
}

impl AckData {
    /// A light ACK: sequence information only.
    pub fn light(rcv_next: SeqNo) -> AckData {
        AckData {
            rcv_next,
            rtt_us: None,
            rtt_var_us: None,
            avail_buf_pkts: None,
            recv_rate_pps: None,
            link_cap_pps: None,
        }
    }

    /// A full ACK with all receiver statistics.
    pub fn full(
        rcv_next: SeqNo,
        rtt_us: u32,
        rtt_var_us: u32,
        avail_buf_pkts: u32,
        recv_rate_pps: u32,
        link_cap_pps: u32,
    ) -> AckData {
        AckData {
            rcv_next,
            rtt_us: Some(rtt_us),
            rtt_var_us: Some(rtt_var_us),
            avail_buf_pkts: Some(avail_buf_pkts),
            recv_rate_pps: Some(recv_rate_pps),
            link_cap_pps: Some(link_cap_pps),
        }
    }

    /// `true` if this is a light (sequence-only) ACK.
    pub fn is_light(&self) -> bool {
        self.rtt_us.is_none()
    }
}

/// A control packet: common header fields plus the typed body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPacket {
    /// Sender timestamp, microseconds since connection start.
    pub timestamp_us: u32,
    /// Destination connection id.
    pub conn_id: u32,
    /// Typed body.
    pub body: ControlBody,
}

/// The typed body of a control packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlBody {
    /// Connection handshake.
    Handshake(HandshakeData),
    /// Keep-alive (no body).
    KeepAlive,
    /// Selective acknowledgement. `ack_seq` numbers the ACK itself so the
    /// matching ACK2 can be paired for RTT measurement.
    Ack {
        /// ACK sequence number (not a data sequence number).
        ack_seq: u32,
        /// Feedback fields.
        data: AckData,
    },
    /// Loss report: ranges of missing data packets.
    Nak(Vec<SeqRange>),
    /// Connection teardown, and its answer. An answer is never answered.
    Shutdown {
        /// This answers the peer's `Shutdown` (bit 0 of the additional-info
        /// word; a zero word is the plain request).
        answer: bool,
    },
    /// Acknowledgement of ACK `ack_seq`, for RTT measurement.
    Ack2 {
        /// The ACK sequence number being acknowledged.
        ack_seq: u32,
    },
}

impl ControlPacket {
    /// Wire type code of the body.
    pub fn type_code(&self) -> u16 {
        match &self.body {
            ControlBody::Handshake(_) => type_code::HANDSHAKE,
            ControlBody::KeepAlive => type_code::KEEPALIVE,
            ControlBody::Ack { .. } => type_code::ACK,
            ControlBody::Nak(_) => type_code::NAK,
            ControlBody::Shutdown { .. } => type_code::SHUTDOWN,
            ControlBody::Ack2 { .. } => type_code::ACK2,
        }
    }

    /// Convenience constructor for a keep-alive.
    pub fn keepalive(conn_id: u32) -> ControlPacket {
        ControlPacket {
            timestamp_us: 0,
            conn_id,
            body: ControlBody::KeepAlive,
        }
    }

    /// Convenience constructor for a shutdown.
    pub fn shutdown(conn_id: u32) -> ControlPacket {
        ControlPacket {
            timestamp_us: 0,
            conn_id,
            body: ControlBody::Shutdown { answer: false },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_match_bodies() {
        let hs = ControlPacket {
            timestamp_us: 0,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Request,
                init_seq: SeqNo::new(9),
                mss: 1500,
                max_flow_win: 25600,
                socket_id: 1,
                ext: None,
            }),
        };
        assert_eq!(hs.type_code(), type_code::HANDSHAKE);
        assert_eq!(ControlPacket::keepalive(0).type_code(), type_code::KEEPALIVE);
        assert_eq!(ControlPacket::shutdown(0).type_code(), type_code::SHUTDOWN);
    }

    #[test]
    fn light_ack_has_no_stats() {
        let a = AckData::light(SeqNo::new(5));
        assert!(a.is_light());
        let f = AckData::full(SeqNo::new(5), 1, 2, 3, 4, 5);
        assert!(!f.is_light());
    }

    #[test]
    fn handshake_req_type_roundtrip() {
        for t in [
            HandshakeReqType::Request,
            HandshakeReqType::Response,
            HandshakeReqType::Challenge,
        ] {
            assert_eq!(HandshakeReqType::from_wire(t.to_wire()), Some(t));
        }
        assert_eq!(HandshakeReqType::from_wire(0), None);
        assert_eq!(HandshakeReqType::from_wire(3), None);
    }
}
