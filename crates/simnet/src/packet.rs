//! Packets and ICMP semantics.
//!
//! Only the machinery the measurement techniques rely on is modeled, in the
//! spirit of smoltcp's "simplicity and robustness" goals:
//!
//! - **TTL-limited probing** (scamper/TSLP): a probe with TTL `h` elicits an
//!   ICMP Time Exceeded from the `h`-th router, sourced from the incoming
//!   interface address — that is how both ends of an interdomain link are
//!   measured (§3).
//! - **ICMP Echo / Echo Reply** for direct pings of interface addresses.
//! - **Record Route**: forward-path address recording used to check path
//!   symmetry (§5.2, the Record-routes method), capped at the classic nine
//!   slots of the IPv4 RR option.
//! - **IP-ID counters**: routers stamp responses from a shared per-router
//!   counter, which is the signal exploited by Ally-style alias resolution
//!   in bdrmap.

use crate::ip::Ipv4;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Maximum addresses held by the record-route option (RFC 791 allows 9).
pub const RECORD_ROUTE_SLOTS: usize = 9;

/// Default TTL for freshly minted packets.
pub const DEFAULT_TTL: u8 = 64;

/// Probe payload size used by the study (small packets, §4).
pub const PROBE_SIZE_BYTES: u32 = 64;

/// The kinds of packets the simulator forwards.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PacketKind {
    /// ICMP Echo Request (ping).
    EchoRequest,
    /// ICMP Echo Reply.
    EchoReply,
    /// ICMP Time Exceeded (TTL expired in transit); payload quotes the probe.
    TimeExceeded,
    /// ICMP Destination Unreachable.
    DestUnreachable,
    /// UDP probe datagram (scamper-style traceroute probe).
    UdpProbe,
}

impl PacketKind {
    /// True for ICMP error/reply messages generated by routers.
    pub fn is_response(self) -> bool {
        matches!(self, PacketKind::EchoReply | PacketKind::TimeExceeded | PacketKind::DestUnreachable)
    }
}

/// A unique id assigned by the originator; responses echo it back so probers
/// can match replies to outstanding probes (scamper uses ICMP id/seq and UDP
/// checksums for the same purpose).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct ProbeId(pub u64);

/// A simulated packet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Packet {
    /// Source address.
    pub src: Ipv4,
    /// Destination address.
    pub dst: Ipv4,
    /// Remaining time-to-live.
    pub ttl: u8,
    /// Packet kind.
    pub kind: PacketKind,
    /// Originator-assigned probe id (echoed in responses).
    pub probe: ProbeId,
    /// On-wire size in bytes (affects serialization delay).
    pub size: u32,
    /// IP-ID stamped by the sender (responses carry the responder's counter).
    pub ip_id: u16,
    /// Record-route option state, if the option is present.
    pub record_route: Option<RecordRoute>,
}

impl Packet {
    /// A fresh probe packet with the given kind and TTL.
    pub fn probe(src: Ipv4, dst: Ipv4, kind: PacketKind, ttl: u8, probe: ProbeId) -> Packet {
        Packet {
            src,
            dst,
            ttl,
            kind,
            probe,
            size: PROBE_SIZE_BYTES,
            ip_id: 0,
            record_route: None,
        }
    }

    /// Enable the record-route option on this packet.
    pub fn with_record_route(mut self) -> Packet {
        self.record_route = Some(RecordRoute::default());
        self
    }

    /// Build the response a router/host generates for this packet, if any.
    ///
    /// `from` is the address the response is sourced from (the incoming
    /// interface for Time Exceeded, the probed address for Echo Reply) and
    /// `ip_id` the responder's IP-ID counter value.
    pub fn make_response(&self, kind: PacketKind, from: Ipv4, ip_id: u16) -> Packet {
        debug_assert!(kind.is_response(), "response kind expected");
        Packet {
            src: from,
            dst: self.src,
            ttl: DEFAULT_TTL,
            kind,
            probe: self.probe,
            size: PROBE_SIZE_BYTES,
            ip_id,
            // ICMP errors quote the original header; the recorded route of the
            // forward path is visible to the prober through that quotation.
            record_route: self.record_route.clone(),
        }
    }

    /// Encode to a compact wire representation.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(40);
        b.put_u32(self.src.0);
        b.put_u32(self.dst.0);
        b.put_u8(self.ttl);
        b.put_u8(match self.kind {
            PacketKind::EchoRequest => 0,
            PacketKind::EchoReply => 1,
            PacketKind::TimeExceeded => 2,
            PacketKind::DestUnreachable => 3,
            PacketKind::UdpProbe => 4,
        });
        b.put_u64(self.probe.0);
        b.put_u32(self.size);
        b.put_u16(self.ip_id);
        match &self.record_route {
            None => b.put_u8(0xff),
            Some(rr) => {
                b.put_u8(rr.hops.len() as u8);
                for h in &rr.hops {
                    b.put_u32(h.0);
                }
            }
        }
        b.freeze()
    }

    /// Decode a packet encoded with [`Packet::encode`]. Returns `None` on a
    /// malformed buffer.
    pub fn decode(mut buf: Bytes) -> Option<Packet> {
        if buf.remaining() < 24 + 1 {
            return None;
        }
        let src = Ipv4(buf.get_u32());
        let dst = Ipv4(buf.get_u32());
        let ttl = buf.get_u8();
        let kind = match buf.get_u8() {
            0 => PacketKind::EchoRequest,
            1 => PacketKind::EchoReply,
            2 => PacketKind::TimeExceeded,
            3 => PacketKind::DestUnreachable,
            4 => PacketKind::UdpProbe,
            _ => return None,
        };
        let probe = ProbeId(buf.get_u64());
        let size = buf.get_u32();
        let ip_id = buf.get_u16();
        let rr_len = buf.get_u8();
        let record_route = if rr_len == 0xff {
            None
        } else {
            if rr_len as usize > RECORD_ROUTE_SLOTS || buf.remaining() < rr_len as usize * 4 {
                return None;
            }
            let mut rr = RecordRoute::default();
            for _ in 0..rr_len {
                rr.hops.push(Ipv4(buf.get_u32()));
            }
            Some(rr)
        };
        Some(Packet { src, dst, ttl, kind, probe, size, ip_id, record_route })
    }
}

/// State of the IPv4 record-route option: outgoing-interface addresses
/// stamped by each forwarding router, up to nine slots.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordRoute {
    /// Recorded addresses in path order.
    pub hops: Vec<Ipv4>,
}

impl RecordRoute {
    /// Record `addr` if a slot is free; full option is silently left as-is,
    /// matching real RR semantics.
    pub fn record(&mut self, addr: Ipv4) {
        if self.hops.len() < RECORD_ROUTE_SLOTS {
            self.hops.push(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::probe(
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(196, 49, 14, 7),
            PacketKind::EchoRequest,
            3,
            ProbeId(77),
        )
    }

    #[test]
    fn response_swaps_and_quotes() {
        let p = sample().with_record_route();
        let r = p.make_response(PacketKind::TimeExceeded, Ipv4::new(196, 49, 14, 1), 42);
        assert_eq!(r.dst, p.src);
        assert_eq!(r.src, Ipv4::new(196, 49, 14, 1));
        assert_eq!(r.probe, p.probe);
        assert_eq!(r.ip_id, 42);
        assert!(r.record_route.is_some());
        assert!(r.kind.is_response());
    }

    #[test]
    fn record_route_caps_at_nine() {
        let mut rr = RecordRoute::default();
        for i in 0..12 {
            rr.record(Ipv4(i));
        }
        assert_eq!(rr.hops.len(), RECORD_ROUTE_SLOTS);
        assert_eq!(rr.hops[8], Ipv4(8));
    }

    #[test]
    fn encode_decode_roundtrip_plain() {
        let p = sample();
        let d = Packet::decode(p.encode()).unwrap();
        assert_eq!(d.src, p.src);
        assert_eq!(d.dst, p.dst);
        assert_eq!(d.ttl, p.ttl);
        assert_eq!(d.kind, p.kind);
        assert_eq!(d.probe, p.probe);
        assert_eq!(d.record_route, None);
    }

    #[test]
    fn encode_decode_roundtrip_with_rr() {
        let mut p = sample().with_record_route();
        p.record_route.as_mut().unwrap().record(Ipv4::new(1, 2, 3, 4));
        p.record_route.as_mut().unwrap().record(Ipv4::new(5, 6, 7, 8));
        let d = Packet::decode(p.encode()).unwrap();
        assert_eq!(d.record_route, p.record_route);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode(Bytes::from_static(&[1, 2, 3])).is_none());
        let mut enc = BytesMut::from(&sample().encode()[..]);
        let last = enc.len() - 1;
        enc[last] = 0x20; // rr_len 32 > 9
        assert!(Packet::decode(enc.freeze()).is_none());
    }

    #[test]
    fn probe_kinds_classified() {
        assert!(!PacketKind::EchoRequest.is_response());
        assert!(!PacketKind::UdpProbe.is_response());
        assert!(PacketKind::DestUnreachable.is_response());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ip::Ipv4;
    use proptest::prelude::*;

    fn arb_kind() -> impl Strategy<Value = PacketKind> {
        prop_oneof![
            Just(PacketKind::EchoRequest),
            Just(PacketKind::EchoReply),
            Just(PacketKind::TimeExceeded),
            Just(PacketKind::DestUnreachable),
            Just(PacketKind::UdpProbe),
        ]
    }

    fn arb_packet() -> impl Strategy<Value = Packet> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            arb_kind(),
            any::<u64>(),
            any::<u32>(),
            any::<u16>(),
            proptest::option::of(proptest::collection::vec(any::<u32>(), 0..=RECORD_ROUTE_SLOTS)),
        )
            .prop_map(|(src, dst, ttl, kind, probe, size, ip_id, rr)| Packet {
                src: Ipv4(src),
                dst: Ipv4(dst),
                ttl,
                kind,
                probe: ProbeId(probe),
                size,
                ip_id,
                record_route: rr.map(|hops| RecordRoute { hops: hops.into_iter().map(Ipv4).collect() }),
            })
    }

    proptest! {
        /// The wire codec round-trips every representable packet.
        #[test]
        fn codec_roundtrip(p in arb_packet()) {
            let d = Packet::decode(p.encode()).expect("decode");
            prop_assert_eq!(d.src, p.src);
            prop_assert_eq!(d.dst, p.dst);
            prop_assert_eq!(d.ttl, p.ttl);
            prop_assert_eq!(d.kind, p.kind);
            prop_assert_eq!(d.probe, p.probe);
            prop_assert_eq!(d.size, p.size);
            prop_assert_eq!(d.ip_id, p.ip_id);
            prop_assert_eq!(d.record_route, p.record_route);
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Packet::decode(Bytes::from(bytes));
        }

        /// Responses always aim back at the prober and echo the probe id.
        #[test]
        fn responses_swap_endpoints(p in arb_packet(), from in any::<u32>(), id in any::<u16>()) {
            let r = p.make_response(PacketKind::TimeExceeded, Ipv4(from), id);
            prop_assert_eq!(r.dst, p.src);
            prop_assert_eq!(r.src, Ipv4(from));
            prop_assert_eq!(r.probe, p.probe);
            prop_assert_eq!(r.ip_id, id);
        }
    }
}
