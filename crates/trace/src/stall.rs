//! Stall attribution: why a node's force phase was not computing.
//!
//! The cluster driver classifies **every** force-phase cycle of every
//! node (after the node's phase-arming cycle) as either *productive* —
//! the chip ticked with at least one busy PE — or one stall cause.
//! The accounting invariant, asserted by the cluster's
//! `trace_determinism` and `chaos` tests:
//!
//! ```text
//! productive + Σ stalled[cause] == force_cycles   per (node, step)
//! ```

use std::collections::BTreeMap;

/// Why a force-phase cycle was idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum StallCause {
    /// Chip fully drained locally, chained-sync handshake incomplete:
    /// waiting on a neighbour's positions, forces, or markers.
    WaitNeighborSync = 0,
    /// PEs idle but flits congest the output side: `frc_out`/broadcast
    /// queues, force rings, or EX egress still moving.
    RingBackpressure = 1,
    /// Chip drained but packets sit in a packetizer waiting out the
    /// departure cooldown (§5.4) or the per-cycle departure slot.
    TxCooldown = 2,
    /// PEs idle while input work is still in flight to them (position
    /// ring transit, EX ingress) — the filter banks are starved.
    FilterStarved = 3,
    /// Everything done and the sync handshake complete; the phase
    /// transition fires on the next exchange.
    Drained = 4,
    /// An injected straggler stall (the §4.4 ablation).
    Injected = 5,
    /// Chip drained, sync incomplete, and at least one outbound link is
    /// actively retransmitting a lost packet (reliable delivery layer).
    Retransmit = 6,
    /// Chip drained, sync incomplete, all data transmitted but unacked
    /// packets are still in flight on their first attempt (reliable
    /// delivery layer).
    WaitAck = 7,
}

impl StallCause {
    /// Number of causes.
    pub const COUNT: usize = 8;

    /// Every cause, in index order.
    pub const ALL: [StallCause; Self::COUNT] = [
        StallCause::WaitNeighborSync,
        StallCause::RingBackpressure,
        StallCause::TxCooldown,
        StallCause::FilterStarved,
        StallCause::Drained,
        StallCause::Injected,
        StallCause::Retransmit,
        StallCause::WaitAck,
    ];

    /// Stable kebab-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::WaitNeighborSync => "wait-neighbor-sync",
            StallCause::RingBackpressure => "ring-backpressure",
            StallCause::TxCooldown => "tx-cooldown",
            StallCause::FilterStarved => "filter-starved",
            StallCause::Drained => "drained",
            StallCause::Injected => "injected",
            StallCause::Retransmit => "retransmit",
            StallCause::WaitAck => "wait-ack",
        }
    }
}

/// Attribution totals for one (node, step).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStalls {
    /// Idle cycles per [`StallCause`] (indexed by cause discriminant).
    pub stalled: [u64; StallCause::COUNT],
    /// Cycles the chip ticked with at least one busy PE.
    pub productive: u64,
}

impl StepStalls {
    /// Total idle cycles across all causes.
    pub fn idle(&self) -> u64 {
        self.stalled.iter().sum()
    }

    /// Total attributed cycles (`productive + idle`); equals the node's
    /// `force_cycles` for the step.
    pub fn total(&self) -> u64 {
        self.productive + self.idle()
    }

    /// Idle cycles of one cause.
    pub fn of(&self, cause: StallCause) -> u64 {
        self.stalled[cause as usize]
    }

    /// Fold another record into this one.
    pub fn merge(&mut self, other: &StepStalls) {
        for (a, b) in self.stalled.iter_mut().zip(other.stalled.iter()) {
            *a += b;
        }
        self.productive += other.productive;
    }
}

/// Per-node, per-step stall attribution for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallLedger {
    pub(crate) nodes: Vec<BTreeMap<u64, StepStalls>>,
}

impl StallLedger {
    /// Empty ledger for a node count.
    pub fn new(nodes: usize) -> Self {
        StallLedger {
            nodes: vec![BTreeMap::new(); nodes],
        }
    }

    /// Nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(BTreeMap::is_empty)
    }

    /// Attribute idle cycles to a cause.
    #[inline]
    pub fn stall(&mut self, node: usize, step: u64, cause: StallCause, cycles: u64) {
        self.nodes[node].entry(step).or_default().stalled[cause as usize] += cycles;
    }

    /// Attribute productive cycles.
    #[inline]
    pub fn productive(&mut self, node: usize, step: u64, cycles: u64) {
        self.nodes[node].entry(step).or_default().productive += cycles;
    }

    /// One (node, step) record, if anything was attributed.
    pub fn step(&self, node: usize, step: u64) -> Option<StepStalls> {
        self.nodes.get(node).and_then(|m| m.get(&step)).copied()
    }

    /// Iterate one node's records in step order.
    pub fn steps(&self, node: usize) -> impl Iterator<Item = (u64, &StepStalls)> {
        self.nodes[node].iter().map(|(s, r)| (*s, r))
    }

    /// Fold another ledger into this one (shard fold: each worker
    /// attributes only the nodes it owns, so entries never collide — but
    /// overlapping (node, step) records merge additively, matching what
    /// a single in-process run would have attributed).
    pub fn absorb(&mut self, other: &StallLedger) {
        assert_eq!(
            self.nodes.len(),
            other.nodes.len(),
            "ledger node counts differ"
        );
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            for (&step, rec) in theirs {
                mine.entry(step).or_default().merge(rec);
            }
        }
    }

    /// Whole-run totals for one node.
    pub fn node_total(&self, node: usize) -> StepStalls {
        self.total_over(node..node + 1)
    }

    /// Whole-run totals summed over a range of nodes.
    pub fn total_over(&self, nodes: std::ops::Range<usize>) -> StepStalls {
        let mut t = StepStalls::default();
        for r in self.nodes[nodes].iter().flat_map(BTreeMap::values) {
            t.merge(r);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_node_step() {
        let mut l = StallLedger::new(2);
        l.productive(0, 0, 10);
        l.stall(0, 0, StallCause::WaitNeighborSync, 4);
        l.stall(0, 0, StallCause::WaitNeighborSync, 1);
        l.stall(1, 0, StallCause::Injected, 7);
        l.productive(0, 1, 3);

        let s = l.step(0, 0).unwrap();
        assert_eq!(s.productive, 10);
        assert_eq!(s.of(StallCause::WaitNeighborSync), 5);
        assert_eq!(s.idle(), 5);
        assert_eq!(s.total(), 15);
        assert_eq!(l.step(1, 0).unwrap().of(StallCause::Injected), 7);
        assert_eq!(l.step(1, 1), None);

        let t = l.node_total(0);
        assert_eq!(t.productive, 13);
        assert_eq!(t.idle(), 5);
        assert_eq!(l.steps(0).count(), 2);
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<_> = StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::COUNT);
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(StallCause::WaitNeighborSync.label(), "wait-neighbor-sync");
    }
}
