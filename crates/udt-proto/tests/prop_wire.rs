//! Property tests for the wire codecs: every packet round-trips, the NAK
//! compression is lossless for arbitrary loss sets, and the decoder never
//! panics on arbitrary bytes.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use udt_proto::ctrl::{ControlBody, ControlPacket};
use udt_proto::nak::{decode_loss_list, encode_loss_list};
use udt_proto::{
    decode, encode, encoded_len, AckData, AuthField, DataPacket, HandshakeData, HandshakeExt,
    HandshakeReqType, Packet, SeqNo, SeqRange, SEQ_MAX,
};

fn seqno() -> impl Strategy<Value = SeqNo> {
    (0u32..=SEQ_MAX).prop_map(SeqNo::new)
}

fn seqrange() -> impl Strategy<Value = SeqRange> {
    (seqno(), 0u32..5000).prop_map(|(from, len)| SeqRange::new(from, from.add(len)))
}

fn ack_data() -> impl Strategy<Value = AckData> {
    prop_oneof![
        seqno().prop_map(AckData::light),
        (seqno(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(s, a, b, c, d, e)| AckData::full(s, a, b, c, d, e)),
    ]
}

fn packet() -> impl Strategy<Value = Packet> {
    let data = (seqno(), any::<u32>(), any::<u32>(), prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(seq, ts, id, payload)| {
            Packet::Data(DataPacket {
                seq,
                timestamp_us: ts,
                conn_id: id,
                payload: Bytes::from(payload),
            })
        });
    let hs_auth = prop_oneof![
        Just(None),
        (any::<u32>(), any::<u32>(), any::<u64>())
            .prop_map(|(flags, nonce, tag)| Some(AuthField { flags, nonce, tag })),
    ];
    let hs_ext = prop_oneof![
        Just(None),
        (any::<u32>(), any::<u64>(), any::<u64>(), hs_auth).prop_map(
            |(cookie, token, off, auth)| {
                Some(HandshakeExt {
                    cookie,
                    session_token: token,
                    resume_offset: off,
                    auth,
                })
            }
        ),
    ];
    let hs = (seqno(), 16u32..9000, any::<u32>(), any::<u32>(), 0u8..3, hs_ext).prop_map(
        |(init_seq, mss, win, sid, req, ext)| {
            Packet::Control(ControlPacket {
                timestamp_us: 0,
                conn_id: 0,
                body: ControlBody::Handshake(HandshakeData {
                    version: 2,
                    req_type: match req {
                        0 => HandshakeReqType::Request,
                        1 => HandshakeReqType::Response,
                        _ => HandshakeReqType::Challenge,
                    },
                    init_seq,
                    mss,
                    max_flow_win: win,
                    socket_id: sid,
                    ext,
                }),
            })
        },
    );
    let ack = (any::<u32>(), ack_data(), any::<u32>()).prop_map(|(ack_seq, data, id)| {
        Packet::Control(ControlPacket {
            timestamp_us: 1,
            conn_id: id,
            body: ControlBody::Ack { ack_seq, data },
        })
    });
    let nak = prop::collection::vec(seqrange(), 1..20).prop_map(|ranges| {
        Packet::Control(ControlPacket {
            timestamp_us: 2,
            conn_id: 3,
            body: ControlBody::Nak(ranges),
        })
    });
    let misc = prop_oneof![
        any::<u32>().prop_map(|a| Packet::Control(ControlPacket {
            timestamp_us: 0,
            conn_id: 0,
            body: ControlBody::Ack2 { ack_seq: a }
        })),
        Just(Packet::Control(ControlPacket::keepalive(9))),
        any::<bool>().prop_map(|answer| Packet::Control(ControlPacket {
            body: ControlBody::Shutdown { answer },
            ..ControlPacket::shutdown(9)
        })),
    ];
    prop_oneof![data, hs, ack, nak, misc]
}

/// Canonicalise: a decoded `[a, a]` range compares equal to a single.
fn flatten(ranges: &[SeqRange]) -> Vec<u32> {
    ranges
        .iter()
        .flat_map(|r| r.iter().map(|s| s.raw()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packet_roundtrip(pkt in packet()) {
        let mut buf = BytesMut::new();
        encode(&pkt, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len(&pkt));
        let decoded = decode(buf.freeze()).expect("decode");
        // NAK ranges may normalise (single-as-range); compare coverage.
        match (&decoded, &pkt) {
            (Packet::Control(a), Packet::Control(b)) => {
                if let (ControlBody::Nak(ra), ControlBody::Nak(rb)) = (&a.body, &b.body) {
                    prop_assert_eq!(flatten(ra), flatten(rb));
                    return Ok(());
                }
                prop_assert_eq!(&decoded, &pkt);
            }
            _ => prop_assert_eq!(&decoded, &pkt),
        }
    }

    #[test]
    fn nak_codec_roundtrip(ranges in prop::collection::vec(seqrange(), 0..64)) {
        let words = encode_loss_list(&ranges);
        let decoded = decode_loss_list(&words).expect("decode");
        prop_assert_eq!(flatten(&decoded), flatten(&ranges));
        // Compression invariant: at most 2 words per range.
        prop_assert!(words.len() <= 2 * ranges.len());
    }

    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode(Bytes::from(bytes)); // Ok or Err, never panic
    }

    #[test]
    fn seqno_ordering_antisymmetric(a in seqno(), d in 1u32..(1 << 30)) {
        let b = a.add(d);
        prop_assert!(a.lt_seq(b));
        prop_assert!(!b.lt_seq(a));
        prop_assert_eq!(a.offset_to(b), d as i32);
        prop_assert_eq!(b.offset_to(a), -(d as i32));
        prop_assert_eq!(b.sub(d), a);
    }
}
