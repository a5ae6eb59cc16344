//! Flight-recorder determinism: both engines must emit
//! **byte-identical per-node event streams and stall ledgers**, because
//! events are stamped in global cluster cycles and attribution reads
//! only engine-invariant state. Engine-level events (fast-forward
//! jumps) live in a separate stream and are deliberately
//! excluded from the comparison — they describe how the simulator ran,
//! not what the simulated machine did.

use fasda_cluster::{
    chrome_trace, Cluster, ClusterConfig, EngineConfig, Trace, TraceConfig, TraceLevel,
};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_net::sync::SyncMode;
use fasda_trace::{EventKind, Json};

const STEPS: u64 = 3;

fn workload() -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 31,
        element: Element::Na,
    }
    .generate()
}

fn cfg(sync: SyncMode) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    cfg.sync = sync;
    cfg
}

/// Run the 8-node workload under `engine`, returning the report and the
/// drained trace.
fn run(
    sync: SyncMode,
    engine: &EngineConfig,
) -> (fasda_cluster::ClusterRunReport, Option<Trace>) {
    let sys = workload();
    let mut cluster = Cluster::new(cfg(sync), &sys);
    assert_eq!(cluster.num_nodes(), 8);
    let report = cluster
        .try_run_with(STEPS, 2_000_000_000, engine)
        .expect("run converges");
    let trace = cluster.take_trace();
    (report, trace)
}

fn assert_streams_identical(sync: SyncMode) {
    let full = TraceConfig::full();
    let (want_report, _) = run(sync, &EngineConfig::serial());
    let (report, oracle) = run(sync, &EngineConfig::serial().with_trace(full));
    let oracle = oracle.expect("tracing enabled");
    assert_eq!(report, want_report, "tracing perturbed the serial run");

    let (report, trace) = run(sync, &EngineConfig::auto().with_trace(full));
    let trace = trace.expect("tracing enabled");
    assert_eq!(report, want_report, "auto report drifted ({sync:?})");
    assert_eq!(trace.nodes.len(), oracle.nodes.len(), "auto node count ({sync:?})");
    for (node, (got, want)) in trace.nodes.iter().zip(oracle.nodes.iter()).enumerate() {
        assert_eq!(got.dropped, 0, "auto node {node} dropped events");
        assert_eq!(
            got.events, want.events,
            "auto node {node} event stream drifted ({sync:?})"
        );
    }
    assert_eq!(trace.stalls, oracle.stalls, "auto stall ledger drifted ({sync:?})");
}

#[test]
fn traced_engines_byte_identical_chained() {
    assert_streams_identical(SyncMode::Chained);
}

#[test]
fn traced_engines_byte_identical_bulk() {
    assert_streams_identical(SyncMode::Bulk { latency: 2_000 });
}

#[test]
fn sync_level_is_full_minus_chatty_events() {
    // The Sync tier must be exactly the Full stream with the high-volume
    // event classes (per-cycle PE activity, packet traffic) filtered out.
    let (_, full) = run(
        SyncMode::Chained,
        &EngineConfig::serial().with_trace(TraceConfig::full()),
    );
    let (_, sync) = run(
        SyncMode::Chained,
        &EngineConfig::serial().with_trace(TraceConfig::sync()),
    );
    let (full, sync) = (full.unwrap(), sync.unwrap());
    assert_eq!(full.level, Some(TraceLevel::Full));
    assert_eq!(sync.level, Some(TraceLevel::Sync));
    let mut saw_chatty = false;
    for (node, (f, s)) in full.nodes.iter().zip(sync.nodes.iter()).enumerate() {
        let filtered: Vec<_> = f
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    EventKind::PeActivity { .. }
                        | EventKind::PacketSent { .. }
                        | EventKind::PacketDelivered { .. }
                        | EventKind::AckSent { .. }
                )
            })
            .copied()
            .collect();
        if filtered.len() != f.events.len() {
            saw_chatty = true;
        }
        assert_eq!(s.events, filtered, "node {node} sync-tier mismatch");
    }
    assert!(saw_chatty, "full trace recorded no chatty events at all?");
    // Attribution is level-independent.
    assert_eq!(full.stalls, sync.stalls);
}

#[test]
fn faulted_run_keeps_tier_contract_and_ledger_exact() {
    // Under an injected fault schedule with the reliability layer on:
    // the fault events (drop/corrupt/duplicate/delay) and retransmits
    // are Sync-tier, AckSent is Full-only chatty, and the attribution
    // invariant still holds exactly on both tiers.
    use fasda_cluster::{FaultPlan, RelConfig};
    let plan = FaultPlan::none().with_seed(0x7E57).with_rate(|r| {
        r.drop = 0.04;
        r.duplicate = 0.02;
        r.delay = 0.04;
        r.delay_max = 500;
    });
    let sys = workload();
    let mk = |level: TraceConfig| {
        let cfg = cfg(SyncMode::Chained)
            .with_faults(plan.clone())
            .with_reliability(RelConfig::new(2_048, 16_384));
        let mut cluster = Cluster::new(cfg, &sys);
        let report = cluster
            .try_run_with(STEPS, 2_000_000_000, &EngineConfig::serial().with_trace(level))
            .expect("faulted run converges");
        (report, cluster.take_trace().expect("tracing on"))
    };
    let (report, full) = mk(TraceConfig::full());
    let (_, sync) = mk(TraceConfig::sync());
    assert!(report.faults_injected > 0, "plan injected nothing");
    let mut saw_fault_event = false;
    let mut saw_ack = false;
    for (node, (f, s)) in full.nodes.iter().zip(sync.nodes.iter()).enumerate() {
        let filtered: Vec<_> = f
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    EventKind::PeActivity { .. }
                        | EventKind::PacketSent { .. }
                        | EventKind::PacketDelivered { .. }
                        | EventKind::AckSent { .. }
                )
            })
            .copied()
            .collect();
        saw_fault_event |= filtered.iter().any(|e| {
            matches!(
                e.kind,
                EventKind::FaultDrop { .. }
                    | EventKind::FaultDuplicate { .. }
                    | EventKind::FaultDelay { .. }
                    | EventKind::Retransmit { .. }
            )
        });
        saw_ack |= f
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AckSent { .. }));
        assert_eq!(s.events, filtered, "node {node} sync-tier mismatch under faults");
    }
    assert!(saw_fault_event, "no fault/retransmit events recorded at Sync tier");
    assert!(saw_ack, "no AckSent events recorded at Full tier");
    assert_eq!(full.stalls, sync.stalls, "attribution is level-dependent");
    for r in &report.records {
        let s = full
            .stalls
            .step(r.node, r.step)
            .unwrap_or_else(|| panic!("no ledger entry for node {} step {}", r.node, r.step));
        assert_eq!(
            s.total(),
            r.force_cycles,
            "node {} step {}: faulted ledger drifted from force_cycles",
            r.node,
            r.step
        );
    }
}

#[test]
fn stall_ledger_accounts_every_force_cycle() {
    // productive + Σ stall causes == force_cycles, exactly, for every
    // (node, step) record — including under an injected straggler.
    let sys = workload();
    let mut c = cfg(SyncMode::Chained);
    c.straggler = Some((3, 400));
    let mut cluster = Cluster::new(c, &sys);
    let engine = EngineConfig::auto().with_trace(TraceConfig::full());
    let report = cluster
        .try_run_with(STEPS, 2_000_000_000, &engine)
        .expect("run converges");
    let trace = cluster.take_trace().expect("tracing enabled");
    assert!(!report.records.is_empty());
    for r in &report.records {
        let s = trace
            .stalls
            .step(r.node, r.step)
            .unwrap_or_else(|| panic!("no ledger entry for node {} step {}", r.node, r.step));
        assert_eq!(
            s.total(),
            r.force_cycles,
            "node {} step {}: ledger {:?} vs force_cycles {}",
            r.node,
            r.step,
            s,
            r.force_cycles
        );
    }
    // The straggler's injected stall must be attributed as such.
    let injected: u64 = (0..trace.stalls.num_nodes())
        .map(|n| trace.stalls.node_total(n).of(fasda_cluster::StallCause::Injected))
        .sum();
    assert!(injected >= 400, "straggler stall under-attributed: {injected}");
}

#[test]
fn chrome_export_round_trips() {
    let (_, trace) = run(
        SyncMode::Chained,
        &EngineConfig::auto().with_trace(TraceConfig::full()),
    );
    let trace = trace.unwrap();
    let rendered = chrome_trace(&trace);
    let doc = Json::parse(&rendered).expect("chrome trace parses");
    let events = doc.get("traceEvents").map(Json::items).expect("traceEvents");
    assert!(!events.is_empty());
    // Every event carries the mandatory chrome fields; every node has a
    // Force-phase span pair.
    let mut force_begins = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("pid").is_some(), "missing pid");
        if ph != "M" {
            assert!(e.get("ts").is_some(), "missing ts on {ph}");
        }
        if ph == "B" && e.get("name").and_then(Json::as_str) == Some("force") {
            force_begins.insert(e.get("pid").and_then(Json::as_i64).unwrap());
        }
    }
    let nodes = doc.get("otherData").and_then(|o| o.get("nodes")).and_then(Json::as_i64);
    assert_eq!(nodes, Some(8), "otherData.nodes");
    assert!(force_begins.iter().copied().eq(0..8), "every node opens a force span: {force_begins:?}");
    // Round-trip: parse → render → parse gives the same document.
    let again = Json::parse(&doc.pretty()).expect("re-parse");
    assert_eq!(again, doc);
}
