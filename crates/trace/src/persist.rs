//! Wire persistence for trace data.
//!
//! The sharded cluster engine ships each worker's captured trace slice
//! to the coordinator over the exchange links, using the same
//! [`fasda_ckpt::Persist`] codec the checkpoint container uses. Every
//! encoding here is canonical — a fixed variant tag plus fields in the
//! order each declaration below lists — so a stream that round-trips through a worker
//! boundary compares byte-identical to one captured in process.

use crate::event::{ChannelId, EventKind, PhaseId, TraceEvent};
use crate::stall::{StallLedger, StepStalls};
use crate::{NodeStream, TraceLevel};
use fasda_ckpt::{persist_enum, persist_struct};

persist_enum!(PhaseId { 0 => Force, 1 => MotionUpdate, 2 => BarrierMu, 3 => BarrierForce });
persist_enum!(ChannelId { 0 => Pos, 1 => Frc, 2 => Mig });
persist_enum!(TraceLevel { 0 => Off, 1 => Sync, 2 => Full });

// Tags 18 and 19 are retired (never reassigned): a record carrying one
// fails typed like any unknown tag.
persist_enum!(EventKind {
    0 => PhaseBegin { phase, step },
    1 => PhaseEnd { phase, step, cycles },
    2 => StallInjected { cycles },
    3 => LastPosSent { peer },
    4 => LastFrcSent { peer },
    5 => LastMigSent { peer },
    6 => MarkerRecv { channel, from, step },
    7 => PacketSent { channel, to, payloads, last },
    8 => PacketDelivered { channel, from, payloads, last },
    9 => BarrierArrive { step },
    10 => PeActivity { dispatched, ejected },
    11 => StepDone { step },
    12 => FaultDrop { channel, to, seq, kill },
    13 => FaultCorrupt { channel, to, seq },
    14 => FaultDuplicate { channel, to, seq },
    15 => FaultDelay { channel, to, seq, extra },
    16 => Retransmit { channel, to, seq, attempt },
    17 => AckSent { channel, to, seq },
    20 => FastForward { to_cycle, skipped },
});

persist_struct!(TraceEvent { cycle, kind });
persist_struct!(NodeStream { events, dropped });
persist_struct!(StepStalls { stalled, productive });
persist_struct!(StallLedger { nodes });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::StallCause;
    use fasda_ckpt::{CkptError, Persist, Reader, Writer};

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
