//! Wire persistence for trace data.
//!
//! The sharded cluster engine ships each worker's captured trace slice
//! to the coordinator over the exchange links, using the same
//! [`fasda_ckpt::Persist`] codec the checkpoint container uses. Every
//! encoding here is canonical — a fixed variant tag plus fields in
//! declaration order — so a stream that round-trips through a worker
//! boundary compares byte-identical to one captured in process.

use crate::event::{ChannelId, EventKind, PhaseId, TraceEvent};
use crate::stall::{StallCause, StallLedger, StepStalls};
use crate::{NodeStream, TraceLevel};
use fasda_ckpt::{CkptError, Persist, Reader, Writer};

impl Persist for PhaseId {
    fn save(&self, w: &mut Writer) {
        w.put_u8(match self {
            PhaseId::Force => 0,
            PhaseId::MotionUpdate => 1,
            PhaseId::BarrierMu => 2,
            PhaseId::BarrierForce => 3,
        });
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(match r.get_u8()? {
            0 => PhaseId::Force,
            1 => PhaseId::MotionUpdate,
            2 => PhaseId::BarrierMu,
            3 => PhaseId::BarrierForce,
            t => return Err(r.malformed(format!("unknown PhaseId tag {t}"))),
        })
    }
}

impl Persist for ChannelId {
    fn save(&self, w: &mut Writer) {
        w.put_u8(match self {
            ChannelId::Pos => 0,
            ChannelId::Frc => 1,
            ChannelId::Mig => 2,
        });
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(match r.get_u8()? {
            0 => ChannelId::Pos,
            1 => ChannelId::Frc,
            2 => ChannelId::Mig,
            t => return Err(r.malformed(format!("unknown ChannelId tag {t}"))),
        })
    }
}

impl Persist for TraceLevel {
    fn save(&self, w: &mut Writer) {
        w.put_u8(match self {
            TraceLevel::Off => 0,
            TraceLevel::Sync => 1,
            TraceLevel::Full => 2,
        });
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(match r.get_u8()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Sync,
            2 => TraceLevel::Full,
            t => return Err(r.malformed(format!("unknown TraceLevel tag {t}"))),
        })
    }
}

impl Persist for EventKind {
    fn save(&self, w: &mut Writer) {
        match *self {
            EventKind::PhaseBegin { phase, step } => {
                w.put_u8(0);
                phase.save(w);
                w.put_u64(step);
            }
            EventKind::PhaseEnd {
                phase,
                step,
                cycles,
            } => {
                w.put_u8(1);
                phase.save(w);
                w.put_u64(step);
                w.put_u64(cycles);
            }
            EventKind::StallInjected { cycles } => {
                w.put_u8(2);
                w.put_u64(cycles);
            }
            EventKind::LastPosSent { peer } => {
                w.put_u8(3);
                w.put_u32(peer);
            }
            EventKind::LastFrcSent { peer } => {
                w.put_u8(4);
                w.put_u32(peer);
            }
            EventKind::LastMigSent { peer } => {
                w.put_u8(5);
                w.put_u32(peer);
            }
            EventKind::MarkerRecv {
                channel,
                from,
                step,
            } => {
                w.put_u8(6);
                channel.save(w);
                w.put_u32(from);
                w.put_u64(step);
            }
            EventKind::PacketSent {
                channel,
                to,
                payloads,
                last,
            } => {
                w.put_u8(7);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(payloads);
                w.put_bool(last);
            }
            EventKind::PacketDelivered {
                channel,
                from,
                payloads,
                last,
            } => {
                w.put_u8(8);
                channel.save(w);
                w.put_u32(from);
                w.put_u32(payloads);
                w.put_bool(last);
            }
            EventKind::BarrierArrive { step } => {
                w.put_u8(9);
                w.put_u64(step);
            }
            EventKind::PeActivity {
                dispatched,
                ejected,
            } => {
                w.put_u8(10);
                w.put_u32(dispatched);
                w.put_u32(ejected);
            }
            EventKind::StepDone { step } => {
                w.put_u8(11);
                w.put_u64(step);
            }
            EventKind::FaultDrop {
                channel,
                to,
                seq,
                kill,
            } => {
                w.put_u8(12);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
                w.put_bool(kill);
            }
            EventKind::FaultCorrupt { channel, to, seq } => {
                w.put_u8(13);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
            }
            EventKind::FaultDuplicate { channel, to, seq } => {
                w.put_u8(14);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
            }
            EventKind::FaultDelay {
                channel,
                to,
                seq,
                extra,
            } => {
                w.put_u8(15);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
                w.put_u64(extra);
            }
            EventKind::Retransmit {
                channel,
                to,
                seq,
                attempt,
            } => {
                w.put_u8(16);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
                w.put_u32(attempt);
            }
            EventKind::AckSent { channel, to, seq } => {
                w.put_u8(17);
                channel.save(w);
                w.put_u32(to);
                w.put_u32(seq);
            }
            EventKind::FastForward { to_cycle, skipped } => {
                w.put_u8(20);
                w.put_u64(to_cycle);
                w.put_u64(skipped);
            }
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(match r.get_u8()? {
            0 => EventKind::PhaseBegin {
                phase: PhaseId::load(r)?,
                step: r.get_u64()?,
            },
            1 => EventKind::PhaseEnd {
                phase: PhaseId::load(r)?,
                step: r.get_u64()?,
                cycles: r.get_u64()?,
            },
            2 => EventKind::StallInjected {
                cycles: r.get_u64()?,
            },
            3 => EventKind::LastPosSent { peer: r.get_u32()? },
            4 => EventKind::LastFrcSent { peer: r.get_u32()? },
            5 => EventKind::LastMigSent { peer: r.get_u32()? },
            6 => EventKind::MarkerRecv {
                channel: ChannelId::load(r)?,
                from: r.get_u32()?,
                step: r.get_u64()?,
            },
            7 => EventKind::PacketSent {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                payloads: r.get_u32()?,
                last: r.get_bool()?,
            },
            8 => EventKind::PacketDelivered {
                channel: ChannelId::load(r)?,
                from: r.get_u32()?,
                payloads: r.get_u32()?,
                last: r.get_bool()?,
            },
            9 => EventKind::BarrierArrive { step: r.get_u64()? },
            10 => EventKind::PeActivity {
                dispatched: r.get_u32()?,
                ejected: r.get_u32()?,
            },
            11 => EventKind::StepDone { step: r.get_u64()? },
            12 => EventKind::FaultDrop {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
                kill: r.get_bool()?,
            },
            13 => EventKind::FaultCorrupt {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
            },
            14 => EventKind::FaultDuplicate {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
            },
            15 => EventKind::FaultDelay {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
                extra: r.get_u64()?,
            },
            16 => EventKind::Retransmit {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
                attempt: r.get_u32()?,
            },
            17 => EventKind::AckSent {
                channel: ChannelId::load(r)?,
                to: r.get_u32()?,
                seq: r.get_u32()?,
            },
            // Tags 18 and 19 are retired (never reassigned): a record
            // carrying one fails typed below like any unknown tag.
            20 => EventKind::FastForward {
                to_cycle: r.get_u64()?,
                skipped: r.get_u64()?,
            },
            t => return Err(r.malformed(format!("unknown EventKind tag {t}"))),
        })
    }
}

impl Persist for TraceEvent {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.cycle);
        self.kind.save(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(TraceEvent {
            cycle: r.get_u64()?,
            kind: EventKind::load(r)?,
        })
    }
}

impl Persist for NodeStream {
    fn save(&self, w: &mut Writer) {
        self.events.save(w);
        w.put_u64(self.dropped);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(NodeStream {
            events: Persist::load(r)?,
            dropped: r.get_u64()?,
        })
    }
}

impl Persist for StepStalls {
    fn save(&self, w: &mut Writer) {
        self.stalled.save(w);
        w.put_u64(self.productive);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(StepStalls {
            stalled: <[u64; StallCause::COUNT]>::load(r)?,
            productive: r.get_u64()?,
        })
    }
}

impl Persist for StallLedger {
    fn save(&self, w: &mut Writer) {
        self.nodes.save(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(StallLedger {
            nodes: Persist::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let back = T::load(&mut r).expect("load");
        assert_eq!(&back, v);
        assert_eq!(r.remaining(), 0, "trailing bytes after {v:?}");
    }

    #[test]
    fn every_event_kind_roundtrips() {
        use EventKind::*;
        let kinds = [
            PhaseBegin {
                phase: PhaseId::Force,
                step: 3,
            },
            PhaseEnd {
                phase: PhaseId::MotionUpdate,
                step: 3,
                cycles: 99,
            },
            StallInjected { cycles: 1000 },
            LastPosSent { peer: 7 },
            LastFrcSent { peer: 0 },
            LastMigSent { peer: 2 },
            MarkerRecv {
                channel: ChannelId::Mig,
                from: 5,
                step: 4,
            },
            PacketSent {
                channel: ChannelId::Pos,
                to: 1,
                payloads: 4,
                last: true,
            },
            PacketDelivered {
                channel: ChannelId::Frc,
                from: 2,
                payloads: 3,
                last: false,
            },
            BarrierArrive { step: 8 },
            PeActivity {
                dispatched: 12,
                ejected: 9,
            },
            StepDone { step: 2 },
            FaultDrop {
                channel: ChannelId::Pos,
                to: 3,
                seq: 17,
                kill: true,
            },
            FaultCorrupt {
                channel: ChannelId::Frc,
                to: 0,
                seq: 1,
            },
            FaultDuplicate {
                channel: ChannelId::Mig,
                to: 6,
                seq: 2,
            },
            FaultDelay {
                channel: ChannelId::Pos,
                to: 1,
                seq: 3,
                extra: 64,
            },
            Retransmit {
                channel: ChannelId::Frc,
                to: 4,
                seq: 5,
                attempt: 2,
            },
            AckSent {
                channel: ChannelId::Pos,
                to: 5,
                seq: 30,
            },
            FastForward {
                to_cycle: 5000,
                skipped: 4000,
            },
        ];
        for kind in kinds {
            roundtrip(&TraceEvent { cycle: 42, kind });
        }
    }

    #[test]
    fn stream_and_ledger_roundtrip() {
        let stream = NodeStream {
            events: vec![
                TraceEvent {
                    cycle: 1,
                    kind: EventKind::StepDone { step: 0 },
                },
                TraceEvent {
                    cycle: 9,
                    kind: EventKind::LastPosSent { peer: 1 },
                },
            ],
            dropped: 5,
        };
        roundtrip(&stream);

        let mut ledger = StallLedger::new(3);
        ledger.productive(0, 0, 10);
        ledger.stall(2, 1, StallCause::Injected, 77);
        roundtrip(&ledger);
        roundtrip(&StallLedger::new(0));
    }

    #[test]
    fn bad_tags_are_rejected() {
        // 18/19 are retired tags with payload-shaped bytes behind them;
        // 21 was never assigned. All fail typed, none is skipped.
        for tag in [18u8, 19, 21] {
            let mut w = Writer::new();
            w.put_u8(tag);
            w.put_u64(8);
            w.put_u32(1);
            let bytes = w.into_bytes();
            assert!(matches!(
                EventKind::load(&mut Reader::new(&bytes, "test")),
                Err(CkptError::Malformed { .. })
            ));
        }
        assert!(PhaseId::load(&mut Reader::new(&[9], "test")).is_err());
        assert!(ChannelId::load(&mut Reader::new(&[9], "test")).is_err());
        assert!(TraceLevel::load(&mut Reader::new(&[9], "test")).is_err());
    }

    #[test]
    fn absorb_merges_disjoint_shards() {
        let mut a = StallLedger::new(4);
        a.productive(0, 0, 5);
        a.stall(1, 0, StallCause::Drained, 2);
        let mut b = StallLedger::new(4);
        b.productive(2, 0, 7);
        b.stall(1, 0, StallCause::Drained, 3);

        let mut merged = StallLedger::new(4);
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.step(0, 0).unwrap().productive, 5);
        assert_eq!(merged.step(2, 0).unwrap().productive, 7);
        assert_eq!(merged.step(1, 0).unwrap().of(StallCause::Drained), 5);
    }
}
