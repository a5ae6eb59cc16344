//! Chrome trace-event exporter (Perfetto-loadable).
//!
//! Layout: one *process* per node (pid = node index) with three
//! threads — `phase` (tid 0, `B`/`E` spans), `sync` (tid 1, instants
//! for markers/barriers/stalls), `net` (tid 2, packet instants) — plus
//! counter tracks for PE activity (`Full` level) and per-step stall
//! attribution. Engine-level events (fast-forward jumps) get
//! their own process after the last node. Timestamps are global cycles
//! reported in the format's microsecond field, so 1 µs on screen is
//! 1 simulated cycle.

use crate::event::{EventKind, PhaseId};
use crate::json::Json;
use crate::stall::StallCause;
use crate::{NodeStream, Trace};

const TID_PHASE: i64 = 0;
const TID_SYNC: i64 = 1;
const TID_NET: i64 = 2;

/// Render a captured [`Trace`] as a Chrome trace-event JSON document.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut events = Vec::new();
    let engine_pid = trace.nodes.len();

    for (node, stream) in trace.nodes.iter().enumerate() {
        events.push(process_name(node, &format!("node {node}")));
        events.push(thread_name(node, TID_PHASE, "phase"));
        events.push(thread_name(node, TID_SYNC, "sync"));
        events.push(thread_name(node, TID_NET, "net"));
        node_events(node, stream, trace, &mut events);
    }

    if !trace.engine.events.is_empty() {
        events.push(process_name(engine_pid, "engine"));
        events.push(thread_name(engine_pid, TID_PHASE, "scheduler"));
        for ev in &trace.engine.events {
            if let EventKind::FastForward { to_cycle, skipped } = ev.kind {
                let args = Json::obj()
                    .field("to_cycle", Json::uint(to_cycle))
                    .field("skipped", Json::uint(skipped))
                    .build();
                events.push(instant(engine_pid, TID_PHASE, ev.cycle, "fast-forward", args));
            }
        }
    }

    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
        .field(
            "otherData",
            Json::obj()
                .field("clock", "global-cycles")
                .field("nodes", trace.nodes.len())
                .build(),
        )
        .build()
        .pretty()
}

fn node_events(node: usize, stream: &NodeStream, trace: &Trace, out: &mut Vec<Json>) {
    for ev in &stream.events {
        let cycle = ev.cycle;
        match ev.kind {
            EventKind::PhaseBegin { phase, step } => {
                out.push(
                    event(node, TID_PHASE, cycle, phase.label(), "B")
                        .field("args", Json::obj().field("step", Json::uint(step)).build())
                        .build(),
                );
            }
            EventKind::PhaseEnd { phase, step, cycles } => {
                out.push(
                    event(node, TID_PHASE, cycle, phase.label(), "E")
                        .field(
                            "args",
                            Json::obj()
                                .field("step", Json::uint(step))
                                .field("cycles", Json::uint(cycles))
                                .build(),
                        )
                        .build(),
                );
                if phase == PhaseId::Force {
                    stall_counter(node, step, cycle, trace, out);
                }
            }
            EventKind::StallInjected { cycles } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "stall-injected",
                Json::obj().field("cycles", Json::uint(cycles)).build(),
            )),
            EventKind::LastPosSent { peer } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "last-pos-sent",
                Json::obj().field("peer", peer).build(),
            )),
            EventKind::LastFrcSent { peer } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "last-frc-sent",
                Json::obj().field("peer", peer).build(),
            )),
            EventKind::LastMigSent { peer } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "last-mig-sent",
                Json::obj().field("peer", peer).build(),
            )),
            EventKind::MarkerRecv { channel, from, step } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                &format!("last-{}-recv", channel.label()),
                Json::obj()
                    .field("from", from)
                    .field("step", Json::uint(step))
                    .build(),
            )),
            EventKind::PacketSent {
                channel,
                to,
                payloads,
                last,
            } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-send", channel.label()),
                Json::obj()
                    .field("to", to)
                    .field("payloads", payloads)
                    .field("last", last)
                    .build(),
            )),
            EventKind::PacketDelivered {
                channel,
                from,
                payloads,
                last,
            } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-recv", channel.label()),
                Json::obj()
                    .field("from", from)
                    .field("payloads", payloads)
                    .field("last", last)
                    .build(),
            )),
            EventKind::BarrierArrive { step } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "barrier-arrive",
                Json::obj().field("step", Json::uint(step)).build(),
            )),
            EventKind::PeActivity { dispatched, ejected } => out.push(
                event(node, TID_PHASE, cycle, "pe-activity", "C")
                    .field(
                        "args",
                        Json::obj()
                            .field("dispatched", dispatched)
                            .field("ejected", ejected)
                            .build(),
                    )
                    .build(),
            ),
            EventKind::StepDone { step } => out.push(instant(
                node,
                TID_SYNC,
                cycle,
                "step-done",
                Json::obj().field("step", Json::uint(step)).build(),
            )),
            EventKind::FaultDrop { channel, to, seq, kill } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-fault-drop", channel.label()),
                Json::obj()
                    .field("to", to)
                    .field("seq", seq)
                    .field("kill", kill)
                    .build(),
            )),
            EventKind::FaultCorrupt { channel, to, seq } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-fault-corrupt", channel.label()),
                Json::obj().field("to", to).field("seq", seq).build(),
            )),
            EventKind::FaultDuplicate { channel, to, seq } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-fault-dup", channel.label()),
                Json::obj().field("to", to).field("seq", seq).build(),
            )),
            EventKind::FaultDelay { channel, to, seq, extra } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-fault-delay", channel.label()),
                Json::obj()
                    .field("to", to)
                    .field("seq", seq)
                    .field("extra", Json::uint(extra))
                    .build(),
            )),
            EventKind::Retransmit { channel, to, seq, attempt } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-retransmit", channel.label()),
                Json::obj()
                    .field("to", to)
                    .field("seq", seq)
                    .field("attempt", attempt)
                    .build(),
            )),
            EventKind::AckSent { channel, to, seq } => out.push(instant(
                node,
                TID_NET,
                cycle,
                &format!("{}-ack", channel.label()),
                Json::obj().field("to", to).field("seq", seq).build(),
            )),
            // engine-stream kinds never appear in node streams
            EventKind::FastForward { .. } => {}
        }
    }
}

fn stall_counter(node: usize, step: u64, cycle: u64, trace: &Trace, out: &mut Vec<Json>) {
    let Some(stalls) = trace.stalls.step(node, step) else {
        return;
    };
    let mut args = Json::obj().field("productive", Json::uint(stalls.productive));
    for cause in StallCause::ALL {
        args = args.field(cause.label(), Json::uint(stalls.of(cause)));
    }
    out.push(
        event(node, TID_PHASE, cycle, "force-stalls", "C")
            .field("args", args.build())
            .build(),
    );
}

fn event(pid: usize, tid: i64, cycle: u64, name: &str, ph: &str) -> crate::json::ObjBuilder {
    Json::obj()
        .field("name", name)
        .field("ph", ph)
        .field("ts", Json::uint(cycle))
        .field("pid", pid)
        .field("tid", Json::Int(tid))
}

fn instant(pid: usize, tid: i64, cycle: u64, name: &str, args: Json) -> Json {
    event(pid, tid, cycle, name, "i")
        .field("s", "t")
        .field("args", args)
        .build()
}

fn process_name(pid: usize, name: &str) -> Json {
    Json::obj()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", Json::Int(0))
        .field("args", Json::obj().field("name", name).build())
        .build()
}

fn thread_name(pid: usize, tid: i64, name: &str) -> Json {
    Json::obj()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", Json::Int(tid))
        .field("args", Json::obj().field("name", name).build())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChannelId, TraceEvent};
    use crate::stall::StallLedger;
    use crate::TraceLevel;

    fn sample_trace() -> Trace {
        let mut stalls = StallLedger::new(1);
        stalls.productive(0, 0, 8);
        stalls.stall(0, 0, StallCause::WaitNeighborSync, 4);
        Trace {
            level: Some(TraceLevel::Full),
            nodes: vec![NodeStream {
                events: vec![
                    TraceEvent {
                        cycle: 0,
                        kind: EventKind::PhaseBegin {
                            phase: PhaseId::Force,
                            step: 0,
                        },
                    },
                    TraceEvent {
                        cycle: 3,
                        kind: EventKind::PacketSent {
                            channel: ChannelId::Pos,
                            to: 1,
                            payloads: 5,
                            last: true,
                        },
                    },
                    TraceEvent {
                        cycle: 5,
                        kind: EventKind::PeActivity {
                            dispatched: 2,
                            ejected: 1,
                        },
                    },
                    TraceEvent {
                        cycle: 12,
                        kind: EventKind::PhaseEnd {
                            phase: PhaseId::Force,
                            step: 0,
                            cycles: 12,
                        },
                    },
                ],
                dropped: 0,
            }],
            engine: NodeStream {
                events: vec![TraceEvent {
                    cycle: 4,
                    kind: EventKind::FastForward { to_cycle: 12, skipped: 8 },
                }],
                dropped: 0,
            },
            stalls,
        }
    }

    #[test]
    fn export_parses_and_has_tracks() {
        let text = chrome_trace(&sample_trace());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert!(!events.is_empty());
        // every event has the mandatory fields
        for ev in events {
            assert!(ev.get("ph").and_then(Json::as_str).is_some());
            assert!(ev.get("pid").and_then(Json::as_i64).is_some());
            assert!(ev.get("ts").and_then(Json::as_i64).is_some() || ev.get("ph").unwrap().as_str() == Some("M"));
        }
        // B/E pair for the force phase
        let phs: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("force"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(phs, vec!["B", "E"]);
        // stall counter rides on the force PhaseEnd cycle
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("force-stalls"))
            .unwrap();
        assert_eq!(counter.get("ts").unwrap().as_i64(), Some(12));
        let args = counter.get("args").unwrap();
        assert_eq!(args.get("productive").unwrap().as_i64(), Some(8));
        assert_eq!(args.get("wait-neighbor-sync").unwrap().as_i64(), Some(4));
        // engine process present
        let engine = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("fast-forward"))
            .unwrap();
        assert_eq!(engine.get("pid").unwrap().as_i64(), Some(1));
    }
}
