//! The 512-bit four-payload packet (paper Fig. 10–11).
//!
//! "A 512-bit AXI-Stream position (or force) packet that contains four
//! pieces of data is received and unpacked into separate data pieces with
//! headers that contain particle identification information." Both packet
//! kinds carry an in-band `last` flag used by the chained synchronization
//! protocol (§4.4); we additionally tag packets with the timestep and
//! phase they belong to so early-arriving traffic from a neighbour that
//! has already raced ahead one phase (the whole point of chained sync) is
//! credited to the right step.
//!
//! The wire format carries a per-link sequence number and a CRC32
//! checksum for the reliable-delivery layer: the sequence number feeds
//! the receiver's dedup/reorder window, and [`Packet::from_bytes`]
//! rejects any frame whose checksum does not verify (a corrupted frame
//! is indistinguishable from a dropped one and is recovered by
//! retransmission).

use bytes::{Buf, BufMut, BytesMut};
use fasda_ckpt::crc32_update;

pub use fasda_ckpt::crc32;

/// Wire size of one packet in bits (two 256-bit beats of a 512-bit
/// AXI-Stream word in the artifact's counters; we count 512 per packet
/// exactly as `out_traffic_packets_*` does).
pub const PACKET_BITS: u64 = 512;

/// Data pieces per packet.
pub const PAYLOADS_PER_PACKET: usize = 4;

/// Wire header size in bytes: kind(1) + count(1) + flags(1) +
/// reserved(1) + step(4) + seq(4) + crc32(4).
pub const HEADER_BYTES: usize = 16;

/// Byte offset of the CRC32 field inside the header.
const CRC_OFFSET: usize = 12;

/// What a packet carries — mirrors the separate position/force QSFP
/// ports of the testbed (§5.4) plus migration traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Particle positions (force-phase broadcast traffic).
    Position,
    /// Accumulated neighbour forces returning home.
    Force,
    /// Migrating particles (motion-update phase).
    Migration,
}

/// A payload that can be framed into the 512-bit packet format.
pub trait WirePayload: Sized {
    /// Encoded size in bytes (must be ≤ 16 so four fit in 512 bits with
    /// headroom for the header beat).
    const WIRE_BYTES: usize;
    /// Serialize into a buffer.
    fn encode(&self, buf: &mut BytesMut);
    /// Deserialize from a buffer.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

/// One inter-FPGA packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet<T> {
    /// Traffic class.
    pub kind: PacketKind,
    /// Up to four data pieces. A `last`-only packet may be empty.
    pub payloads: Vec<T>,
    /// In-band last-data marker for chained synchronization.
    pub last: bool,
    /// Timestep the data belongs to.
    pub step: u64,
    /// Per-link sequence number assigned by the reliable-delivery
    /// layer (0 when reliability is off).
    pub seq: u32,
}

impl<T> Packet<T> {
    /// A data packet.
    pub fn data(kind: PacketKind, payloads: Vec<T>, step: u64) -> Self {
        assert!(
            payloads.len() <= PAYLOADS_PER_PACKET,
            "at most {PAYLOADS_PER_PACKET} payloads per packet"
        );
        Packet {
            kind,
            payloads,
            last: false,
            step,
            seq: 0,
        }
    }

    /// Tag the packet with a per-link sequence number.
    pub fn with_seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }
}

impl<T: WirePayload> Packet<T> {
    /// Serialize to wire bytes: 16-byte header (kind, count, flags, step,
    /// seq, crc32) then the payloads, zero-padded to at least 64 bytes
    /// (one 512-bit beat; four byte-aligned position payloads spill into
    /// a second beat and are kept whole). The CRC covers the entire frame
    /// with the CRC field itself zeroed.
    pub fn to_bytes(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(PACKET_BITS as usize / 8);
        buf.put_u8(match self.kind {
            PacketKind::Position => 0,
            PacketKind::Force => 1,
            PacketKind::Migration => 2,
        });
        buf.put_u8(self.payloads.len() as u8);
        buf.put_u8(u8::from(self.last));
        buf.put_u8(0); // reserved
        buf.put_u32(self.step as u32);
        buf.put_u32(self.seq);
        buf.put_u32(0); // crc placeholder
        for p in &self.payloads {
            p.encode(&mut buf);
        }
        let min = PACKET_BITS as usize / 8;
        if buf.len() < min {
            buf.resize(min, 0);
        }
        let crc = crc32(&buf);
        buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Parse wire bytes produced by [`Packet::to_bytes`]. Returns `None`
    /// (never panics) on truncated frames, unknown kinds, impossible
    /// payload counts, or any checksum mismatch — including single-bit
    /// flips anywhere in the frame.
    pub fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        // Verify the checksum over the frame with the CRC field zeroed.
        let mut state = crc32_update(0xFFFF_FFFF, &bytes[..CRC_OFFSET]);
        state = crc32_update(state, &[0, 0, 0, 0]);
        state = crc32_update(state, &bytes[CRC_OFFSET + 4..]);
        let want = u32::from_be_bytes([
            bytes[CRC_OFFSET],
            bytes[CRC_OFFSET + 1],
            bytes[CRC_OFFSET + 2],
            bytes[CRC_OFFSET + 3],
        ]);
        if !state != want {
            return None;
        }
        let kind = match bytes.get_u8() {
            0 => PacketKind::Position,
            1 => PacketKind::Force,
            2 => PacketKind::Migration,
            _ => return None,
        };
        let count = bytes.get_u8() as usize;
        if count > PAYLOADS_PER_PACKET {
            return None;
        }
        let last = bytes.get_u8() != 0;
        let _ = bytes.get_u8();
        let step = bytes.get_u32() as u64;
        let seq = bytes.get_u32();
        let _crc = bytes.get_u32();
        let mut payloads = Vec::with_capacity(count);
        for _ in 0..count {
            payloads.push(T::decode(&mut bytes)?);
        }
        Some(Packet {
            kind,
            payloads,
            last,
            step,
            seq,
        })
    }
}

fasda_ckpt::persist_enum!(PacketKind { 0 => Position, 1 => Force, 2 => Migration });

impl<T: fasda_ckpt::Persist> fasda_ckpt::Persist for Packet<T> {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        self.kind.save(w);
        self.payloads.save(w);
        w.put_bool(self.last);
        w.put_u64(self.step);
        w.put_u32(self.seq);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let kind = PacketKind::load(r)?;
        let payloads: Vec<T> = fasda_ckpt::Persist::load(r)?;
        if payloads.len() > PAYLOADS_PER_PACKET {
            return Err(r.malformed(format!("{} payloads in one packet", payloads.len())));
        }
        Ok(Packet {
            kind,
            payloads,
            last: r.get_bool()?,
            step: r.get_u64()?,
            seq: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct P(u64, u32);

    impl WirePayload for P {
        const WIRE_BYTES: usize = 12;
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_u64(self.0);
            buf.put_u32(self.1);
        }
        fn decode(buf: &mut &[u8]) -> Option<Self> {
            if buf.len() < 12 {
                return None;
            }
            Some(P(buf.get_u64(), buf.get_u32()))
        }
    }

    #[test]
    fn roundtrip_full_packet() {
        let p = Packet::data(
            PacketKind::Position,
            vec![P(1, 2), P(3, 4), P(5, 6), P(7, 8)],
            42,
        )
        .with_seq(1234);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len() as u64 * 8, PACKET_BITS);
        let q: Packet<P> = Packet::from_bytes(&bytes).expect("parse");
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_last_marker() {
        let mut p: Packet<P> = Packet::data(PacketKind::Force, Vec::new(), 7);
        p.last = true;
        let q: Packet<P> = Packet::from_bytes(&p.to_bytes()).expect("parse");
        assert!(q.last);
        assert!(q.payloads.is_empty());
        assert_eq!(q.step, 7);
        assert_eq!(q.kind, PacketKind::Force);
        assert_eq!(q.seq, 0);
    }

    #[test]
    fn oversize_payloads_survive_whole() {
        // 4 × 15-byte payloads + 16-byte header = 76 bytes > one beat;
        // the frame must not be truncated to 64 bytes (it still counts
        // as one 512-bit packet in the traffic registers).
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Wide([u8; 15]);
        impl WirePayload for Wide {
            const WIRE_BYTES: usize = 15;
            fn encode(&self, buf: &mut BytesMut) {
                buf.extend_from_slice(&self.0);
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                if buf.len() < 15 {
                    return None;
                }
                let mut v = [0u8; 15];
                v.copy_from_slice(&buf[..15]);
                *buf = &buf[15..];
                Some(Wide(v))
            }
        }
        let p = Packet::data(PacketKind::Position, vec![Wide([7; 15]); 4], 3);
        let bytes = p.to_bytes();
        assert!(bytes.len() > 64, "two-beat frame kept whole");
        let q: Packet<Wide> = Packet::from_bytes(&bytes).expect("parse");
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "at most 4 payloads")]
    fn overfull_packet_rejected() {
        let _ = Packet::data(PacketKind::Position, vec![P(0, 0); 5], 0);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::<P>::from_bytes(&[9u8; 64]).is_none());
        assert!(Packet::<P>::from_bytes(&[0u8; 3]).is_none());
    }

    #[test]
    fn bit_flip_rejected() {
        let p = Packet::data(PacketKind::Force, vec![P(11, 22)], 5).with_seq(9);
        let bytes = p.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= 1 << bit;
                assert!(
                    Packet::<P>::from_bytes(&mutated).is_none(),
                    "flip at byte {i} bit {bit} survived the checksum"
                );
            }
        }
    }

    #[test]
    fn truncation_rejected() {
        let p = Packet::data(PacketKind::Migration, vec![P(1, 2), P(3, 4)], 0);
        let bytes = p.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Packet::<P>::from_bytes(&bytes[..len]).is_none(),
                "truncated frame of {len} bytes parsed"
            );
        }
    }
}
