//! Wire encoding of the engine's control headers.
//!
//! The network layer carries opaque `(tag, size, Rope)` frames; this
//! module gives them protocol meaning. The codec is a tiny hand-rolled
//! fixed-layout format (no serde on the wire — the real NewMadeleine packs
//! headers into packet wrappers by hand too, §IV-B).
//!
//! The codec is *streaming* and *canonical*:
//!
//! * [`Wire::decode`] reads the header off the front of any [`Buf`]
//!   (typically the frame [`bytes::Rope`]) and leaves the payload bytes
//!   in place — parsing never copies or flattens the payload;
//! * exactly one byte sequence encodes each value (e.g. the RTS `rdma`
//!   flag must be `0` or `1`), so `decode(b) == Some(w)` implies
//!   `encode(w)` reproduces the consumed prefix byte-for-byte — the
//!   property the codec proptests pin.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Protocol-level identity of a wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// Small message sent inline: application tag + payload size.
    Eager {
        /// Application tag.
        app_tag: u64,
        /// Payload bytes.
        size: u32,
    },
    /// Several eager messages packed into one NIC packet (Fig. 1).
    EagerAggregate {
        /// The packed messages, in submission order.
        parts: Vec<EagerPart>,
    },
    /// Rendezvous request-to-send: announces a large message.
    Rts {
        /// Sender-side request id.
        req: u32,
        /// Application tag.
        app_tag: u64,
        /// Full payload size.
        size: u64,
        /// `true` if the sender exposes the buffer for RDMA read
        /// (the MVAPICH/OpenMPI-class protocol of \[10\]).
        rdma: bool,
    },
    /// Clear-to-send: the receiver matched the RTS and is ready.
    Cts {
        /// The sender-side request id being acknowledged.
        req: u32,
    },
    /// A chunk of rendezvous payload.
    Data {
        /// Sender-side request id.
        req: u32,
        /// Chunk index.
        chunk: u32,
        /// Total chunks.
        of: u32,
    },
    /// Transfer-finished notification (ends an RDMA-read rendezvous).
    Fin {
        /// The sender-side request id that completed.
        req: u32,
    },
}

/// One message inside an [`Wire::EagerAggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EagerPart {
    /// Application tag.
    pub app_tag: u64,
    /// Payload size.
    pub size: u32,
}

const K_EAGER: u8 = 1;
const K_AGG: u8 = 2;
const K_RTS: u8 = 3;
const K_CTS: u8 = 4;
const K_DATA: u8 = 5;
const K_FIN: u8 = 6;
/// Longest header whose length does not depend on its content (the RTS).
const MAX_FIXED_HEADER: usize = 1 + 21;

impl Wire {
    /// Exact encoded header length in bytes.
    pub fn header_len(&self) -> usize {
        match self {
            Wire::Eager { .. } => 1 + 12,
            Wire::EagerAggregate { parts } => 1 + 4 + parts.len() * 12,
            Wire::Rts { .. } => 1 + 21,
            Wire::Cts { .. } => 1 + 4,
            Wire::Data { .. } => 1 + 12,
            Wire::Fin { .. } => 1 + 4,
        }
    }

    /// Serializes the header: one allocation for the fixed-size headers
    /// (built on the stack, copied once into their shared buffer); only
    /// an aggregate, whose length depends on its part count, grows a
    /// buffer and freezes it.
    pub fn encode(&self) -> Bytes {
        if let Wire::EagerAggregate { .. } = self {
            let mut b = BytesMut::with_capacity(self.header_len());
            self.put(&mut b);
            return b.freeze();
        }
        let mut raw = [0u8; MAX_FIXED_HEADER];
        self.put(&mut &mut raw[..]);
        Bytes::copy_from_slice(&raw[..self.header_len()])
    }

    fn put(&self, b: &mut impl BufMut) {
        match self {
            Wire::Eager { app_tag, size } => {
                b.put_u8(K_EAGER);
                b.put_u64(*app_tag);
                b.put_u32(*size);
            }
            Wire::EagerAggregate { parts } => {
                b.put_u8(K_AGG);
                b.put_u32(parts.len() as u32);
                for p in parts {
                    b.put_u64(p.app_tag);
                    b.put_u32(p.size);
                }
            }
            Wire::Rts {
                req,
                app_tag,
                size,
                rdma,
            } => {
                b.put_u8(K_RTS);
                b.put_u32(*req);
                b.put_u64(*app_tag);
                b.put_u64(*size);
                b.put_u8(u8::from(*rdma));
            }
            Wire::Cts { req } => {
                b.put_u8(K_CTS);
                b.put_u32(*req);
            }
            Wire::Data { req, chunk, of } => {
                b.put_u8(K_DATA);
                b.put_u32(*req);
                b.put_u32(*chunk);
                b.put_u32(*of);
            }
            Wire::Fin { req } => {
                b.put_u8(K_FIN);
                b.put_u32(*req);
            }
        }
    }

    /// Parses a header off the front of `raw`, consuming exactly the
    /// header bytes and leaving any payload in place. Returns `None` on
    /// malformed input (short header, unknown kind, non-canonical flag
    /// byte); `raw` may then be partially consumed — callers drop the
    /// whole frame.
    pub fn decode<B: Buf + ?Sized>(raw: &mut B) -> Option<Wire> {
        if raw.remaining() < 1 {
            return None;
        }
        let kind = raw.get_u8();
        match kind {
            K_EAGER => {
                if raw.remaining() < 12 {
                    return None;
                }
                Some(Wire::Eager {
                    app_tag: raw.get_u64(),
                    size: raw.get_u32(),
                })
            }
            K_AGG => {
                if raw.remaining() < 4 {
                    return None;
                }
                let n = raw.get_u32() as usize;
                if n.checked_mul(12).is_none_or(|need| raw.remaining() < need) {
                    return None;
                }
                let parts = (0..n)
                    .map(|_| EagerPart {
                        app_tag: raw.get_u64(),
                        size: raw.get_u32(),
                    })
                    .collect();
                Some(Wire::EagerAggregate { parts })
            }
            K_RTS => {
                if raw.remaining() < 21 {
                    return None;
                }
                let req = raw.get_u32();
                let app_tag = raw.get_u64();
                let size = raw.get_u64();
                // Canonical flag: any value other than 0/1 is malformed,
                // so decode∘encode is the identity on the consumed prefix.
                let rdma = match raw.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                Some(Wire::Rts {
                    req,
                    app_tag,
                    size,
                    rdma,
                })
            }
            K_CTS => {
                if raw.remaining() < 4 {
                    return None;
                }
                Some(Wire::Cts { req: raw.get_u32() })
            }
            K_DATA => {
                if raw.remaining() < 12 {
                    return None;
                }
                Some(Wire::Data {
                    req: raw.get_u32(),
                    chunk: raw.get_u32(),
                    of: raw.get_u32(),
                })
            }
            K_FIN => {
                if raw.remaining() < 4 {
                    return None;
                }
                Some(Wire::Fin { req: raw.get_u32() })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(w: Wire) {
        let mut enc = w.encode();
        assert_eq!(enc.len(), w.header_len());
        assert_eq!(Wire::decode(&mut enc).as_ref(), Some(&w));
        assert_eq!(enc.remaining(), 0, "decode must consume the header");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Wire::Eager {
            app_tag: 0xDEAD_BEEF,
            size: 4096,
        });
        roundtrip(Wire::EagerAggregate {
            parts: vec![
                EagerPart {
                    app_tag: 1,
                    size: 100,
                },
                EagerPart {
                    app_tag: 2,
                    size: 200,
                },
            ],
        });
        roundtrip(Wire::Rts {
            req: 42,
            app_tag: 7,
            size: 1 << 20,
            rdma: true,
        });
        roundtrip(Wire::Cts { req: 42 });
        roundtrip(Wire::Data {
            req: 42,
            chunk: 3,
            of: 8,
        });
        roundtrip(Wire::Fin { req: 42 });
    }

    #[test]
    fn empty_aggregate_roundtrips() {
        roundtrip(Wire::EagerAggregate { parts: vec![] });
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(Wire::decode(&mut Bytes::new()), None);
        assert_eq!(Wire::decode(&mut Bytes::from_static(&[99])), None);
        assert_eq!(Wire::decode(&mut Bytes::from_static(&[K_RTS, 1, 2])), None);
        // Aggregate claiming more parts than present.
        let mut b = BytesMut::new();
        b.put_u8(K_AGG);
        b.put_u32(5);
        assert_eq!(Wire::decode(&mut b.freeze()), None);
    }

    #[test]
    fn decode_leaves_the_payload_in_place() {
        let w = Wire::Eager {
            app_tag: 9,
            size: 3,
        };
        let mut frame = bytes::Rope::from(w.encode());
        frame.push(Bytes::from(vec![0xA, 0xB, 0xC]));
        assert_eq!(Wire::decode(&mut frame), Some(w));
        assert_eq!(frame, vec![0xA, 0xB, 0xC], "payload untouched");
    }

    #[test]
    fn non_canonical_rts_flag_is_rejected() {
        let mut ok = Wire::Rts {
            req: 1,
            app_tag: 2,
            size: 3,
            rdma: true,
        }
        .encode()
        .to_vec();
        *ok.last_mut().unwrap() = 2; // any value outside {0,1}
        assert_eq!(Wire::decode(&mut Bytes::from(ok)), None);
    }
}
