//! Fixed-latency, initiation-interval-1 pipeline models.

use crate::Cycle;
use fasda_ckpt::Persist;
use std::collections::VecDeque;

/// A hardware pipeline with fixed latency and one issue slot per cycle.
///
/// Models the floating-point force pipeline (§3.4) and the motion-update
/// datapath: an item issued on cycle `c` emerges on cycle `c + latency`,
/// and at most one item can be issued per cycle. Results must be drained
/// in order; an undrained result does **not** stall the pipe (the
/// downstream accumulators in FASDA always accept one result per cycle),
/// but the drain interface exposes readiness so callers can model stalls
/// themselves if needed.
#[derive(Clone, Debug)]
pub struct Pipeline<T> {
    latency: Cycle,
    in_flight: VecDeque<(Cycle, T)>,
    last_issue: Option<Cycle>,
    issued_total: u64,
}

impl<T> Pipeline<T> {
    /// Create a pipeline with the given latency in cycles (≥ 1).
    pub fn new(latency: Cycle) -> Self {
        assert!(latency >= 1, "pipeline latency must be at least 1 cycle");
        Pipeline {
            latency,
            in_flight: VecDeque::new(),
            last_issue: None,
            issued_total: 0,
        }
    }

    /// Pipeline latency in cycles.
    #[inline]
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Issue an item at `cycle`. Returns `false` (and drops nothing) if an
    /// item was already issued this cycle — initiation interval 1.
    #[inline]
    pub fn issue(&mut self, cycle: Cycle, item: T) -> Result<(), T> {
        if self.last_issue == Some(cycle) {
            return Err(item);
        }
        debug_assert!(
            self.last_issue.is_none_or(|l| l < cycle),
            "issue cycles must be monotonic"
        );
        self.last_issue = Some(cycle);
        self.issued_total += 1;
        self.in_flight.push_back((cycle + self.latency, item));
        Ok(())
    }

    /// True if an item can be issued at `cycle`.
    #[inline]
    pub fn can_issue(&self, cycle: Cycle) -> bool {
        self.last_issue != Some(cycle)
    }

    /// Pop the next result if it is ready at `cycle`.
    #[inline]
    pub fn pop_ready(&mut self, cycle: Cycle) -> Option<T> {
        match self.in_flight.front() {
            Some((ready, _)) if *ready <= cycle => self.in_flight.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Items currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// True when nothing is in flight — drain detection for phase
    /// termination.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Total items ever issued (hardware-utilization numerator).
    #[inline]
    pub fn issued_total(&self) -> u64 {
        self.issued_total
    }
}

/// Checkpointing: the latency is configuration; in-flight items, the
/// last-issue cycle and the issue counter are state.
impl<T: fasda_ckpt::Persist> fasda_ckpt::Snapshot for Pipeline<T> {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        self.in_flight.save(w);
        self.last_issue.save(w);
        w.put_u64(self.issued_total);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        self.in_flight = fasda_ckpt::Persist::load(r)?;
        self.last_issue = fasda_ckpt::Persist::load(r)?;
        self.issued_total = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_respected() {
        let mut p = Pipeline::new(5);
        p.issue(10, "x").unwrap();
        for c in 10..15 {
            assert!(p.pop_ready(c).is_none(), "cycle {c} too early");
        }
        assert_eq!(p.pop_ready(15), Some("x"));
        assert!(p.is_empty());
    }

    #[test]
    fn initiation_interval_one() {
        let mut p = Pipeline::new(3);
        p.issue(0, 1).unwrap();
        assert!(!p.can_issue(0));
        assert_eq!(p.issue(0, 2), Err(2));
        assert!(p.can_issue(1));
        p.issue(1, 2).unwrap();
        assert_eq!(p.in_flight(), 2);
        // results in order, one per cycle
        assert_eq!(p.pop_ready(3), Some(1));
        assert_eq!(p.pop_ready(3), None);
        assert_eq!(p.pop_ready(4), Some(2));
    }

    #[test]
    fn throughput_one_per_cycle_sustained() {
        let mut p = Pipeline::new(40);
        let mut out = 0;
        for c in 0..200u64 {
            if p.can_issue(c) {
                p.issue(c, c).unwrap();
            }
            if let Some(v) = p.pop_ready(c) {
                assert_eq!(v + 40, c);
                out += 1;
            }
        }
        assert_eq!(out, 160);
        assert_eq!(p.issued_total(), 200);
    }

    #[test]
    #[should_panic(expected = "latency must be at least 1")]
    fn zero_latency_rejected() {
        let _ = Pipeline::<u8>::new(0);
    }
}
