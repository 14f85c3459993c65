//! The controller ⇄ broker ⇄ client message vocabulary.

use crate::wire::{Decode, Encode, WireError};
use bytes::{Bytes, BytesMut};

/// One tunnel's share of a demand's allocation, as pushed to brokers.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// s-d pair index in the controller's tunnel set.
    pub pair: u32,
    /// Tunnel index within the pair.
    pub tunnel: u32,
    /// Rate limit in Mbps.
    pub rate: f64,
}

impl Encode for FlowEntry {
    fn encode(&self, buf: &mut BytesMut) {
        self.pair.encode(buf);
        self.tunnel.encode(buf);
        self.rate.encode(buf);
    }
}

impl Decode for FlowEntry {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(FlowEntry {
            pair: u32::decode(buf)?,
            tunnel: u32::decode(buf)?,
            rate: f64::decode(buf)?,
        })
    }
}

/// Protocol messages. One enum for all parties keeps the codec simple; each
/// role only sends/handles its own subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// client → controller: request admission of a single-pair BA demand.
    SubmitDemand {
        id: u64,
        src: String,
        dst: String,
        bandwidth: f64,
        /// Availability target in [0, 1].
        beta: f64,
        price: f64,
        refund_ratio: f64,
    },
    /// client → controller: demand lifetime ended.
    WithdrawDemand {
        id: u64,
    },
    /// controller → client: withdraw processed (idempotent — retrying a
    /// withdraw whose ack was lost re-acks without side effects).
    WithdrawAck {
        id: u64,
    },
    /// controller → client.
    AdmissionReply {
        id: u64,
        admitted: bool,
    },
    /// broker → controller: identify as the broker for a DC.
    RegisterBroker {
        dc: String,
    },
    /// controller → broker: install/replace a demand's flow entries.
    InstallAllocation {
        demand: u64,
        entries: Vec<FlowEntry>,
    },
    /// controller → broker: remove a demand.
    RemoveAllocation {
        demand: u64,
    },
    /// broker → controller: a fate group changed state.
    LinkReport {
        group: u32,
        up: bool,
    },
    /// Liveness probe (either direction).
    Ping {
        token: u64,
    },
    Pong {
        token: u64,
    },
    /// client → controller: request the telemetry registry.
    StatsQuery,
    /// controller → client: Prometheus text-format exposition of the
    /// controller's metrics registry.
    StatsText {
        text: String,
    },
    /// client → controller: deterministic JSONL snapshot of metrics whose
    /// names start with `prefix` (empty prefix = everything). Answered
    /// with [`Message::StatsText`].
    StatsJsonQuery {
        prefix: String,
    },
    /// client → controller: render the causal span tree for one trace id
    /// from the controller's flight-recorder ring. Answered with
    /// [`Message::StatsText`].
    TraceQuery {
        trace_id: u64,
    },
}

// Message tags.
const T_SUBMIT: u8 = 1;
const T_WITHDRAW: u8 = 2;
const T_ADMISSION: u8 = 3;
const T_REGISTER: u8 = 4;
const T_INSTALL: u8 = 5;
const T_REMOVE: u8 = 6;
const T_LINK: u8 = 7;
// Tags 8 and 16 are unassigned.
const T_PING: u8 = 9;
const T_PONG: u8 = 10;
const T_WITHDRAW_ACK: u8 = 11;
const T_STATS_QUERY: u8 = 12;
const T_STATS_TEXT: u8 = 13;
const T_STATS_JSON_QUERY: u8 = 14;
const T_TRACE_QUERY: u8 = 15;

impl Encode for Message {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Message::SubmitDemand {
                id,
                src,
                dst,
                bandwidth,
                beta,
                price,
                refund_ratio,
            } => {
                T_SUBMIT.encode(buf);
                id.encode(buf);
                src.encode(buf);
                dst.encode(buf);
                bandwidth.encode(buf);
                beta.encode(buf);
                price.encode(buf);
                refund_ratio.encode(buf);
            }
            Message::WithdrawDemand { id } => {
                T_WITHDRAW.encode(buf);
                id.encode(buf);
            }
            Message::WithdrawAck { id } => {
                T_WITHDRAW_ACK.encode(buf);
                id.encode(buf);
            }
            Message::AdmissionReply { id, admitted } => {
                T_ADMISSION.encode(buf);
                id.encode(buf);
                admitted.encode(buf);
            }
            Message::RegisterBroker { dc } => {
                T_REGISTER.encode(buf);
                dc.encode(buf);
            }
            Message::InstallAllocation { demand, entries } => {
                T_INSTALL.encode(buf);
                demand.encode(buf);
                entries.encode(buf);
            }
            Message::RemoveAllocation { demand } => {
                T_REMOVE.encode(buf);
                demand.encode(buf);
            }
            Message::LinkReport { group, up } => {
                T_LINK.encode(buf);
                group.encode(buf);
                up.encode(buf);
            }
            Message::Ping { token } => {
                T_PING.encode(buf);
                token.encode(buf);
            }
            Message::Pong { token } => {
                T_PONG.encode(buf);
                token.encode(buf);
            }
            Message::StatsQuery => {
                T_STATS_QUERY.encode(buf);
            }
            Message::StatsText { text } => {
                T_STATS_TEXT.encode(buf);
                text.encode(buf);
            }
            Message::StatsJsonQuery { prefix } => {
                T_STATS_JSON_QUERY.encode(buf);
                prefix.encode(buf);
            }
            Message::TraceQuery { trace_id } => {
                T_TRACE_QUERY.encode(buf);
                trace_id.encode(buf);
            }
        }
    }
}

impl Decode for Message {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            T_SUBMIT => Message::SubmitDemand {
                id: u64::decode(buf)?,
                src: String::decode(buf)?,
                dst: String::decode(buf)?,
                bandwidth: f64::decode(buf)?,
                beta: f64::decode(buf)?,
                price: f64::decode(buf)?,
                refund_ratio: f64::decode(buf)?,
            },
            T_WITHDRAW => Message::WithdrawDemand {
                id: u64::decode(buf)?,
            },
            T_WITHDRAW_ACK => Message::WithdrawAck {
                id: u64::decode(buf)?,
            },
            T_ADMISSION => Message::AdmissionReply {
                id: u64::decode(buf)?,
                admitted: bool::decode(buf)?,
            },
            T_REGISTER => Message::RegisterBroker {
                dc: String::decode(buf)?,
            },
            T_INSTALL => Message::InstallAllocation {
                demand: u64::decode(buf)?,
                entries: Vec::<FlowEntry>::decode(buf)?,
            },
            T_REMOVE => Message::RemoveAllocation {
                demand: u64::decode(buf)?,
            },
            T_LINK => Message::LinkReport {
                group: u32::decode(buf)?,
                up: bool::decode(buf)?,
            },
            T_PING => Message::Ping {
                token: u64::decode(buf)?,
            },
            T_PONG => Message::Pong {
                token: u64::decode(buf)?,
            },
            T_STATS_QUERY => Message::StatsQuery,
            T_STATS_TEXT => Message::StatsText {
                text: String::decode(buf)?,
            },
            T_STATS_JSON_QUERY => Message::StatsJsonQuery {
                prefix: String::decode(buf)?,
            },
            T_TRACE_QUERY => Message::TraceQuery {
                trace_id: u64::decode(buf)?,
            },
            other => return Err(WireError::Malformed(format!("unknown tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = Message::decode(&mut bytes).unwrap();
        assert_eq!(msg, back);
        assert!(bytes.is_empty());
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::SubmitDemand {
            id: 42,
            src: "DC1".into(),
            dst: "DC4".into(),
            bandwidth: 25.5,
            beta: 0.999,
            price: 25.5,
            refund_ratio: 0.1,
        });
        roundtrip(Message::WithdrawDemand { id: 42 });
        roundtrip(Message::WithdrawAck { id: 42 });
        roundtrip(Message::AdmissionReply {
            id: 42,
            admitted: true,
        });
        roundtrip(Message::RegisterBroker { dc: "DC3".into() });
        roundtrip(Message::InstallAllocation {
            demand: 7,
            entries: vec![
                FlowEntry {
                    pair: 1,
                    tunnel: 0,
                    rate: 100.0,
                },
                FlowEntry {
                    pair: 1,
                    tunnel: 2,
                    rate: 55.5,
                },
            ],
        });
        roundtrip(Message::RemoveAllocation { demand: 7 });
        roundtrip(Message::LinkReport {
            group: 3,
            up: false,
        });
        roundtrip(Message::Ping { token: 1 });
        roundtrip(Message::Pong { token: 1 });
        roundtrip(Message::StatsQuery);
        roundtrip(Message::StatsText {
            text: "# TYPE bate_solver_solves_total counter\nbate_solver_solves_total 3\n"
                .into(),
        });
        roundtrip(Message::StatsJsonQuery {
            prefix: "bate_wire_".into(),
        });
        roundtrip(Message::StatsJsonQuery { prefix: "".into() });
        roundtrip(Message::TraceQuery {
            trace_id: 0xDEAD_BEEF_0BAD_F00D,
        });
    }

    /// An unassigned tag is a typed error, retired ones included: 16 is
    /// what a peer built before its retirement may still send.
    #[test]
    fn unknown_tag_is_rejected() {
        for tag in [99u8, 16] {
            let mut bytes = Bytes::from(vec![tag]);
            assert!(matches!(
                Message::decode(&mut bytes),
                Err(WireError::Malformed(_))
            ));
        }
    }

    /// Negative inputs (truncated, oversized-length, garbage) return typed
    /// errors — the pre-hardening code paths that `unwrap()`ed on decode
    /// turned these into panics.
    #[test]
    fn truncated_message_returns_typed_error() {
        let msg = Message::SubmitDemand {
            id: 9,
            src: "DC1".into(),
            dst: "DC2".into(),
            bandwidth: 100.0,
            beta: 0.99,
            price: 100.0,
            refund_ratio: 0.25,
        };
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let full = buf.freeze();
        // Every strict prefix must decode to an error or to a *different*
        // complete message — never panic.
        for cut in 1..full.len() {
            let mut prefix = full.slice(0..cut);
            match Message::decode(&mut prefix) {
                Err(WireError::Malformed(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
                Ok(parsed) => assert_ne!(parsed, msg, "prefix cannot equal original"),
            }
        }
    }

    #[test]
    fn oversized_vector_length_is_rejected() {
        // An InstallAllocation claiming u32::MAX entries: the length guard
        // fires before any per-element allocation.
        let mut buf = BytesMut::new();
        5u8.encode(&mut buf); // T_INSTALL
        7u64.encode(&mut buf); // demand
        u32::MAX.encode(&mut buf); // entries length
        let mut bytes = buf.freeze();
        assert!(matches!(
            Message::decode(&mut bytes),
            Err(WireError::Malformed(_))
        ));
        // A plausible-but-unbacked length (claims 5000 entries, carries
        // none) errors on the first missing element.
        let mut buf = BytesMut::new();
        5u8.encode(&mut buf);
        7u64.encode(&mut buf);
        5000u32.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(matches!(
            Message::decode(&mut bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // A deterministic pseudo-random garbage sweep (the proptest suite
        // in tests/codec_property.rs covers the randomized version).
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for len in 0..64usize {
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                data.push((x >> 56) as u8);
            }
            let mut bytes = Bytes::from(data);
            let _ = Message::decode(&mut bytes); // must not panic
        }
    }
}
