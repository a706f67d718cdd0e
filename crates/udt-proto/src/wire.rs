//! Byte-level encoding and decoding of UDT packets.
//!
//! All fields are big-endian. The codec is zero-copy on the receive path for
//! data payloads: `decode` slices the payload out of the input `Bytes`
//! without copying.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::auth::{AuthField, AUTH_MAGIC, HS_AUTH_LEN};
use crate::ctrl::{
    type_code, AckData, ControlBody, ControlPacket, HandshakeData, HandshakeExt, HandshakeReqType,
};
use crate::nak::{decode_loss_list, encode_loss_list, NakDecodeError};
use crate::packet::{DataPacket, Packet};
use crate::seqno::SeqNo;

/// Data packet header length in bytes.
pub const DATA_HEADER_LEN: usize = 12;
/// Control packet header length in bytes (flag+type, additional info,
/// timestamp, connection id).
pub const CTRL_HEADER_LEN: usize = 16;

/// Flag bit distinguishing control from data packets.
const CTRL_FLAG: u32 = 0x8000_0000;

/// Bare handshake body length (pre-extension peers emit exactly this).
const HS_BASE_LEN: usize = 24;
/// Resilience extension length: cookie (4) + session token (8) + resume
/// offset (8). A handshake body of `HS_BASE_LEN + HS_EXT_LEN` bytes
/// carries the extension; anything in between is legacy padding a peer
/// may append and is ignored (version gating).
const HS_EXT_LEN: usize = 20;

/// Errors surfaced while decoding a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than the mandatory header.
    Truncated,
    /// Unknown control packet type code.
    UnknownControlType(u16),
    /// A control body field failed validation.
    BadControlBody(&'static str),
    /// The NAK loss list failed to decode.
    BadLossList(NakDecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram truncated"),
            WireError::UnknownControlType(t) => write!(f, "unknown control type {t:#x}"),
            WireError::BadControlBody(what) => write!(f, "bad control body: {what}"),
            WireError::BadLossList(e) => write!(f, "bad NAK loss list: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<NakDecodeError> for WireError {
    fn from(e: NakDecodeError) -> WireError {
        WireError::BadLossList(e)
    }
}

/// Exact encoded size of a packet, in bytes.
pub fn encoded_len(pkt: &Packet) -> usize {
    match pkt {
        Packet::Data(d) => DATA_HEADER_LEN + d.payload.len(),
        Packet::Control(c) => CTRL_HEADER_LEN + control_body_len(&c.body),
    }
}

fn control_body_len(body: &ControlBody) -> usize {
    match body {
        ControlBody::Handshake(h) => {
            HS_BASE_LEN
                + h.ext.map_or(0, |e| {
                    HS_EXT_LEN + if e.auth.is_some() { HS_AUTH_LEN } else { 0 }
                })
        }
        ControlBody::KeepAlive | ControlBody::Shutdown { .. } | ControlBody::Ack2 { .. } => 0,
        ControlBody::Ack { data, .. } => {
            if data.is_light() {
                4
            } else {
                24
            }
        }
        ControlBody::Nak(ranges) => {
            ranges.iter().map(|r| if r.is_single() { 4 } else { 8 }).sum()
        }
    }
}

/// Encode a packet into `buf`.
pub fn encode(pkt: &Packet, buf: &mut BytesMut) {
    buf.reserve(encoded_len(pkt));
    match pkt {
        Packet::Data(d) => {
            buf.put_u32(d.seq.raw()); // flag bit 0 guaranteed by SeqNo mask
            buf.put_u32(d.timestamp_us);
            buf.put_u32(d.conn_id);
            buf.put_slice(&d.payload);
        }
        Packet::Control(c) => {
            let type_word = CTRL_FLAG | (u32::from(c.type_code()) << 16);
            buf.put_u32(type_word);
            let additional = match &c.body {
                ControlBody::Ack { ack_seq, .. } | ControlBody::Ack2 { ack_seq } => *ack_seq,
                ControlBody::Shutdown { answer } => u32::from(*answer),
                _ => 0,
            };
            buf.put_u32(additional);
            buf.put_u32(c.timestamp_us);
            buf.put_u32(c.conn_id);
            match &c.body {
                ControlBody::Handshake(h) => {
                    buf.put_u32(h.version);
                    buf.put_i32(h.req_type.to_wire());
                    buf.put_u32(h.init_seq.raw());
                    buf.put_u32(h.mss);
                    buf.put_u32(h.max_flow_win);
                    buf.put_u32(h.socket_id);
                    if let Some(ext) = &h.ext {
                        buf.put_u32(ext.cookie);
                        buf.put_u64(ext.session_token);
                        buf.put_u64(ext.resume_offset);
                        if let Some(a) = &ext.auth {
                            // UDT-AUTH block, gated by its magic so a
                            // decoder can tell it from unrelated trailing
                            // bytes (and legacy decoders just ignore it).
                            buf.put_u32(AUTH_MAGIC);
                            buf.put_u32(a.flags);
                            buf.put_u32(a.nonce);
                            buf.put_u64(a.tag);
                        }
                    }
                }
                ControlBody::Ack { data, .. } => {
                    buf.put_u32(data.rcv_next.raw());
                    if !data.is_light() {
                        buf.put_u32(data.rtt_us.unwrap_or(0));
                        buf.put_u32(data.rtt_var_us.unwrap_or(0));
                        buf.put_u32(data.avail_buf_pkts.unwrap_or(0));
                        buf.put_u32(data.recv_rate_pps.unwrap_or(0));
                        buf.put_u32(data.link_cap_pps.unwrap_or(0));
                    }
                }
                ControlBody::Nak(ranges) => {
                    for w in encode_loss_list(ranges) {
                        buf.put_u32(w);
                    }
                }
                ControlBody::KeepAlive | ControlBody::Shutdown { .. } | ControlBody::Ack2 { .. } => {}
            }
        }
    }
}

/// Decode one datagram into a packet. The data payload aliases `datagram`
/// (no copy).
#[allow(clippy::needless_pass_by_value)] // Bytes is a refcounted handle; the payload aliases it
pub fn decode(datagram: Bytes) -> Result<Packet, WireError> {
    let mut buf = datagram.clone();
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let first = buf.get_u32();
    if first & CTRL_FLAG == 0 {
        if datagram.len() < DATA_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let timestamp_us = buf.get_u32();
        let conn_id = buf.get_u32();
        let payload = datagram.slice(DATA_HEADER_LEN..);
        Ok(Packet::Data(DataPacket {
            seq: SeqNo::new(first),
            timestamp_us,
            conn_id,
            payload,
        }))
    } else {
        if datagram.len() < CTRL_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let code = ((first >> 16) & 0x7FFF) as u16;
        let additional = buf.get_u32();
        let timestamp_us = buf.get_u32();
        let conn_id = buf.get_u32();
        let body = decode_control_body(code, additional, &mut buf)?;
        Ok(Packet::Control(ControlPacket {
            timestamp_us,
            conn_id,
            body,
        }))
    }
}

fn decode_control_body(
    code: u16,
    additional: u32,
    buf: &mut Bytes,
) -> Result<ControlBody, WireError> {
    match code {
        type_code::HANDSHAKE => {
            if buf.remaining() < HS_BASE_LEN {
                return Err(WireError::Truncated);
            }
            let version = buf.get_u32();
            let req_type = HandshakeReqType::from_wire(buf.get_i32())
                .ok_or(WireError::BadControlBody("handshake request type"))?;
            let init_seq = SeqNo::new(buf.get_u32());
            let mss = buf.get_u32();
            let max_flow_win = buf.get_u32();
            let socket_id = buf.get_u32();
            if mss < DATA_HEADER_LEN as u32 + 1 {
                return Err(WireError::BadControlBody("mss too small"));
            }
            // Version gate: the extension rides after the base body. A peer
            // that predates it sends the bare body (ext = None); trailing
            // bytes of any other length are ignored, not an error, so a
            // future larger extension still interops with this decoder.
            let ext = if buf.remaining() >= HS_EXT_LEN {
                let cookie = buf.get_u32();
                let session_token = buf.get_u64();
                let resume_offset = buf.get_u64();
                // The UDT-AUTH block follows the base extension and is
                // gated by its magic: enough trailing bytes with the wrong
                // leading word are some future extension we don't speak,
                // not a malformed packet.
                let auth = if buf.remaining() >= HS_AUTH_LEN
                    && buf.chunk().len() >= 4
                    // udt-lint: allow(unwrap) — chunk length checked above
                    && u32::from_be_bytes(buf.chunk()[..4].try_into().expect("4 bytes"))
                        == AUTH_MAGIC
                {
                    buf.advance(4);
                    Some(AuthField {
                        flags: buf.get_u32(),
                        nonce: buf.get_u32(),
                        tag: buf.get_u64(),
                    })
                } else {
                    None
                };
                Some(HandshakeExt {
                    cookie,
                    session_token,
                    resume_offset,
                    auth,
                })
            } else {
                None
            };
            Ok(ControlBody::Handshake(HandshakeData {
                version,
                req_type,
                init_seq,
                mss,
                max_flow_win,
                socket_id,
                ext,
            }))
        }
        type_code::KEEPALIVE => Ok(ControlBody::KeepAlive),
        type_code::SHUTDOWN => Ok(ControlBody::Shutdown {
            answer: additional & 1 != 0,
        }),
        type_code::ACK2 => Ok(ControlBody::Ack2 { ack_seq: additional }),
        type_code::ACK => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let rcv_next = SeqNo::new(buf.get_u32());
            let data = if buf.remaining() >= 20 {
                AckData::full(
                    rcv_next,
                    buf.get_u32(),
                    buf.get_u32(),
                    buf.get_u32(),
                    buf.get_u32(),
                    buf.get_u32(),
                )
            } else {
                AckData::light(rcv_next)
            };
            Ok(ControlBody::Ack {
                ack_seq: additional,
                data,
            })
        }
        type_code::NAK => {
            if !buf.remaining().is_multiple_of(4) {
                return Err(WireError::Truncated);
            }
            let mut words = Vec::with_capacity(buf.remaining() / 4);
            while buf.remaining() >= 4 {
                words.push(buf.get_u32());
            }
            Ok(ControlBody::Nak(decode_loss_list(&words)?))
        }
        other => Err(WireError::UnknownControlType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqno::SeqRange;

    #[allow(clippy::needless_pass_by_value)] // test helper: literal call sites
    fn roundtrip(pkt: Packet) {
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        assert_eq!(buf.len(), encoded_len(&pkt), "encoded_len mismatch");
        let decoded = decode(buf.freeze()).expect("decode");
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Packet::Data(DataPacket {
            seq: SeqNo::new(0x7FFF_FFFF),
            timestamp_us: 123_456,
            conn_id: 42,
            payload: Bytes::from(vec![7u8; 1488]),
        }));
    }

    #[test]
    fn empty_payload_roundtrip() {
        roundtrip(Packet::Data(DataPacket {
            seq: SeqNo::ZERO,
            timestamp_us: 0,
            conn_id: 0,
            payload: Bytes::new(),
        }));
    }

    #[test]
    fn handshake_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 9,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Response,
                init_seq: SeqNo::new(777),
                mss: 1500,
                max_flow_win: 25600,
                socket_id: 31337,
                ext: None,
            }),
        }));
    }

    #[test]
    fn handshake_ext_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 9,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Request,
                init_seq: SeqNo::new(777),
                mss: 1500,
                max_flow_win: 25600,
                socket_id: 31337,
                ext: Some(HandshakeExt {
                    cookie: 0xDEAD_BEEF,
                    session_token: 0x0123_4567_89AB_CDEF,
                    resume_offset: 7_654_321,
                    auth: None,
                }),
            }),
        }));
    }

    #[test]
    fn handshake_auth_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 9,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Request,
                init_seq: SeqNo::new(777),
                mss: 1500,
                max_flow_win: 25600,
                socket_id: 31337,
                ext: Some(HandshakeExt {
                    cookie: 0xDEAD_BEEF,
                    session_token: 1,
                    resume_offset: 2,
                    auth: Some(AuthField {
                        flags: 1,
                        nonce: 0xC0FF_EE00,
                        tag: 0x0123_4567_89AB_CDEF,
                    }),
                }),
            }),
        }));
    }

    #[test]
    fn bare_ext_handshake_decodes_to_no_auth() {
        // A resilience-era peer (extension but no UDT-AUTH block) must
        // decode with `auth: None`, and stray trailing bytes that happen
        // to be 20 long but carry the wrong magic are ignored, not
        // misparsed as an auth field.
        let pkt = Packet::Control(ControlPacket {
            timestamp_us: 3,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Request,
                init_seq: SeqNo::new(1),
                mss: 1400,
                max_flow_win: 8192,
                socket_id: 5,
                ext: Some(HandshakeExt {
                    cookie: 77,
                    session_token: 0,
                    resume_offset: 0,
                    auth: None,
                }),
            }),
        });
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        assert_eq!(buf.len(), CTRL_HEADER_LEN + 24 + 20);
        match decode(buf.clone().freeze()).unwrap() {
            Packet::Control(ControlPacket {
                body: ControlBody::Handshake(h),
                ..
            }) => assert_eq!(h.ext.unwrap().auth, None),
            other => panic!("unexpected decode: {other:?}"),
        }
        // Wrong-magic trailing block: still no auth field.
        buf.put_u32(0x1234_5678);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u64(0);
        match decode(buf.freeze()).unwrap() {
            Packet::Control(ControlPacket {
                body: ControlBody::Handshake(h),
                ..
            }) => {
                let e = h.ext.unwrap();
                assert_eq!(e.cookie, 77);
                assert_eq!(e.auth, None);
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn legacy_handshake_decodes_to_no_ext() {
        // A pre-extension peer emits the bare 24-byte body; the decoder must
        // yield `ext: None`, not an error and not a garbage extension.
        let pkt = Packet::Control(ControlPacket {
            timestamp_us: 3,
            conn_id: 0,
            body: ControlBody::Handshake(HandshakeData {
                version: 2,
                req_type: HandshakeReqType::Request,
                init_seq: SeqNo::new(1),
                mss: 1400,
                max_flow_win: 8192,
                socket_id: 5,
                ext: None,
            }),
        });
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        assert_eq!(buf.len(), CTRL_HEADER_LEN + 24);
        match decode(buf.freeze()).unwrap() {
            Packet::Control(ControlPacket {
                body: ControlBody::Handshake(h),
                ..
            }) => assert_eq!(h.ext, None),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn full_ack_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 5,
            conn_id: 3,
            body: ControlBody::Ack {
                ack_seq: 17,
                data: AckData::full(SeqNo::new(100), 10_000, 2_000, 8192, 80_000, 83_333),
            },
        }));
    }

    #[test]
    fn light_ack_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 5,
            conn_id: 3,
            body: ControlBody::Ack {
                ack_seq: 18,
                data: AckData::light(SeqNo::new(101)),
            },
        }));
    }

    #[test]
    fn nak_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 1,
            conn_id: 2,
            body: ControlBody::Nak(vec![
                SeqRange::new(SeqNo::new(10), SeqNo::new(40)),
                SeqRange::single(SeqNo::new(99)),
            ]),
        }));
    }

    #[test]
    fn ack2_keepalive_shutdown_roundtrip() {
        roundtrip(Packet::Control(ControlPacket {
            timestamp_us: 0,
            conn_id: 1,
            body: ControlBody::Ack2 { ack_seq: 55 },
        }));
        roundtrip(Packet::Control(ControlPacket::keepalive(1)));
        roundtrip(Packet::Control(ControlPacket::shutdown(1)));
    }

    #[test]
    fn a_shutdown_answer_is_one_bit_of_the_same_16_bytes() {
        let answer = Packet::Control(ControlPacket {
            body: ControlBody::Shutdown { answer: true },
            ..ControlPacket::shutdown(1)
        });
        roundtrip(answer.clone());
        let mut buf = BytesMut::new();
        encode(&answer, &mut buf);
        assert_eq!(buf.len(), CTRL_HEADER_LEN);
        assert_eq!(&buf[4..8], &1u32.to_be_bytes(), "the additional-info word");
        // What every peer before the flag sent: a zero word, a plain Shutdown.
        buf[7] = 0;
        let plain = Packet::Control(ControlPacket::shutdown(1));
        assert_eq!(decode(buf.freeze()), Ok(plain));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(decode(Bytes::from_static(&[0, 0, 0])), Err(WireError::Truncated));
        // Control header claims ACK but is only 8 bytes.
        let mut b = BytesMut::new();
        b.put_u32(CTRL_FLAG | (2 << 16));
        b.put_u32(0);
        assert_eq!(decode(b.freeze()), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_control_type_rejected() {
        let mut b = BytesMut::new();
        b.put_u32(CTRL_FLAG | (0x7F << 16));
        b.put_u32(0);
        b.put_u32(0);
        b.put_u32(0);
        assert_eq!(decode(b.freeze()), Err(WireError::UnknownControlType(0x7F)));
    }

    #[test]
    fn data_payload_is_zero_copy() {
        let pkt = Packet::Data(DataPacket {
            seq: SeqNo::new(1),
            timestamp_us: 0,
            conn_id: 0,
            payload: Bytes::from(vec![9u8; 64]),
        });
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        let datagram = buf.freeze();
        let decoded = decode(datagram.clone()).unwrap();
        if let Packet::Data(d) = decoded {
            // The payload must alias the datagram allocation.
            assert_eq!(
                d.payload.as_ptr(),
                datagram[DATA_HEADER_LEN..].as_ptr()
            );
        } else {
            panic!("expected data packet");
        }
    }
}
