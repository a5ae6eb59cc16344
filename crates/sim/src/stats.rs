//! Utilization accounting (paper §5.3, Fig. 17).
//!
//! The paper distinguishes two metrics for every key component:
//!
//! > "Hardware utilization refers to the average amount of work performed
//! > by a component in comparison to its capacity, while time utilization
//! > represents the average proportion of time that a component is active,
//! > during which the pipeline may not be full, but is functioning."
//!
//! [`Activity`] tracks both for one component; [`StatSet`] aggregates the
//! named components of a chip so Fig. 17 can be regenerated.

use std::collections::BTreeMap;

/// Work/activity counters for one hardware component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    /// Units of work performed (e.g. pairs filtered, forces produced,
    /// flits moved).
    pub work: u64,
    /// Cycles on which the component did *any* work or held in-flight
    /// state.
    pub busy_cycles: u64,
    /// Work units the component could perform per cycle (e.g. 6 for a
    /// 6-filter bank, 1 for a force pipeline).
    pub capacity_per_cycle: u64,
}

impl Activity {
    /// New counter with a per-cycle capacity.
    pub fn with_capacity(capacity_per_cycle: u64) -> Self {
        Activity {
            work: 0,
            busy_cycles: 0,
            capacity_per_cycle,
        }
    }

    /// Record one cycle: `work_done` units performed, `active` whether the
    /// component counts as busy this cycle (it may be active with zero
    /// completed work, e.g. a pipeline filling up).
    ///
    /// Branchless: this sits on the innermost per-cycle path of every
    /// modelled component, where a data-dependent branch on `active` is
    /// mispredicted often enough to show up in profiles.
    #[inline]
    pub fn record(&mut self, work_done: u64, active: bool) {
        self.work += work_done;
        self.busy_cycles += u64::from(active) | u64::from(work_done > 0);
    }

    /// Hardware utilization over a window of `total_cycles`:
    /// `work / (capacity · total_cycles)`.
    ///
    /// The denominator is formed in f64: a u64 product overflows once
    /// `capacity · window` crosses 2^64 (merged cluster-wide counters
    /// over billion-cycle runs get there).
    pub fn hardware_util(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 || self.capacity_per_cycle == 0 {
            return 0.0;
        }
        self.work as f64 / (self.capacity_per_cycle as f64 * total_cycles as f64)
    }

    /// Time utilization over a window: `busy_cycles / total_cycles`.
    pub fn time_util(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / total_cycles as f64
    }

    /// Merge counters from a replicated component (capacities add: two
    /// 6-filter banks form a 12-wide resource).
    pub fn merge(&mut self, other: &Activity) {
        self.work += other.work;
        self.busy_cycles += other.busy_cycles;
        self.capacity_per_cycle += other.capacity_per_cycle;
    }

    /// Merge counters from the *same* component observed over consecutive
    /// windows (capacity unchanged, work/busy add).
    pub fn accumulate(&mut self, other: &Activity) {
        debug_assert_eq!(self.capacity_per_cycle, other.capacity_per_cycle);
        self.work += other.work;
        self.busy_cycles += other.busy_cycles;
    }
}

/// Named activity counters for a whole chip or cluster.
///
/// When components are replicated (27 PEs on a chip), merging their
/// activities produces the chip-average utilization the paper plots.
/// For merged time utilization, `busy_cycles` of replicas add and the
/// caller divides by `replicas × window` — [`StatSet::time_util`] handles
/// that by tracking replica counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatSet {
    entries: BTreeMap<String, (Activity, u64)>,
}

impl StatSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one replica's counters into the named component.
    pub fn add(&mut self, name: &str, activity: Activity) {
        let e = self
            .entries
            .entry(name.to_string())
            .or_insert((Activity::default(), 0));
        e.0.work += activity.work;
        e.0.busy_cycles += activity.busy_cycles;
        e.0.capacity_per_cycle += activity.capacity_per_cycle;
        e.1 += 1;
    }

    /// Component names present.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Replica count folded into a name.
    pub fn replicas(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |e| e.1)
    }

    /// Average hardware utilization of a component class over a window.
    pub fn hardware_util(&self, name: &str, total_cycles: u64) -> f64 {
        self.entries
            .get(name)
            .map_or(0.0, |(a, _)| a.hardware_util(total_cycles))
    }

    /// Average time utilization of a component class over a window
    /// (replica-averaged).
    pub fn time_util(&self, name: &str, total_cycles: u64) -> f64 {
        match self.entries.get(name) {
            Some((a, n)) if *n > 0 && total_cycles > 0 => {
                // f64 denominator for the same overflow reason as
                // [`Activity::hardware_util`].
                a.busy_cycles as f64 / (*n as f64 * total_cycles as f64)
            }
            _ => 0.0,
        }
    }

    /// Total work units of a component class.
    pub fn work(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |(a, _)| a.work)
    }

    /// Merge every component of another set into this one (replica
    /// counts add, capacities add, work/busy add) — used to aggregate
    /// per-chip sets into a cluster-wide view.
    pub fn merge_from(&mut self, other: &StatSet) {
        for (name, (act, n)) in &other.entries {
            let e = self
                .entries
                .entry(name.clone())
                .or_insert((Activity::default(), 0));
            e.0.work += act.work;
            e.0.busy_cycles += act.busy_cycles;
            e.0.capacity_per_cycle += act.capacity_per_cycle;
            e.1 += n;
        }
    }

    /// Accumulate the *same* components observed over a later window
    /// (work/busy add; replica counts and capacities describe the
    /// hardware and must not double). Used by checkpointed runs to fold
    /// per-segment stats into run totals.
    pub fn accumulate_from(&mut self, other: &StatSet) {
        for (name, (act, n)) in &other.entries {
            match self.entries.get_mut(name) {
                Some(e) => {
                    debug_assert_eq!(e.1, *n, "replica count changed across windows");
                    debug_assert_eq!(e.0.capacity_per_cycle, act.capacity_per_cycle);
                    e.0.work += act.work;
                    e.0.busy_cycles += act.busy_cycles;
                }
                None => {
                    self.entries.insert(name.clone(), (*act, *n));
                }
            }
        }
    }
}

fasda_ckpt::persist_struct!(Activity { work, busy_cycles, capacity_per_cycle });

fasda_ckpt::persist_struct!(StatSet { entries });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_vs_time_utilization() {
        let mut a = Activity::with_capacity(6);
        // 10 cycles: 5 busy with 3 units each, 5 idle
        for i in 0..10 {
            if i % 2 == 0 {
                a.record(3, true);
            } else {
                a.record(0, false);
            }
        }
        assert_eq!(a.work, 15);
        assert_eq!(a.busy_cycles, 5);
        assert!((a.hardware_util(10) - 0.25).abs() < 1e-12); // 15/(6*10)
        assert!((a.time_util(10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn active_with_zero_work_counts_busy() {
        let mut a = Activity::with_capacity(1);
        a.record(0, true);
        assert_eq!(a.busy_cycles, 1);
        assert_eq!(a.work, 0);
    }

    #[test]
    fn record_matches_boolean_reference() {
        // The branchless busy increment must equal `active || work > 0`
        // for every input combination.
        for work in [0u64, 1, 7] {
            for active in [false, true] {
                let mut a = Activity::with_capacity(1);
                a.record(work, active);
                assert_eq!(a.work, work);
                assert_eq!(a.busy_cycles, u64::from(active || work > 0));
            }
        }
    }

    #[test]
    fn merge_adds_capacity() {
        let mut a = Activity::with_capacity(6);
        a.record(6, true);
        let mut b = Activity::with_capacity(6);
        b.record(0, false);
        a.merge(&b);
        assert_eq!(a.capacity_per_cycle, 12);
        assert!((a.hardware_util(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn statset_replica_averaged_time_util() {
        let mut s = StatSet::new();
        let mut busy = Activity::with_capacity(1);
        busy.record(1, true);
        let idle = Activity::with_capacity(1);
        s.add("PE", busy);
        s.add("PE", idle);
        assert_eq!(s.replicas("PE"), 2);
        // one of two replicas busy for the 1-cycle window → 50%
        assert!((s.time_util("PE", 1) - 0.5).abs() < 1e-12);
        assert!((s.hardware_util("PE", 1) - 0.5).abs() < 1e-12);
        assert_eq!(s.work("PE"), 1);
    }

    #[test]
    fn empty_windows_are_zero() {
        let a = Activity::with_capacity(4);
        assert_eq!(a.hardware_util(0), 0.0);
        assert_eq!(a.time_util(0), 0.0);
        let s = StatSet::new();
        assert_eq!(s.time_util("nope", 100), 0.0);
    }

    #[test]
    fn zero_capacity_hardware_util_is_zero() {
        // A component that advertises no capacity (e.g. a disabled bank)
        // must report 0 utilization rather than dividing by zero.
        let mut a = Activity::with_capacity(0);
        a.record(5, true);
        assert_eq!(a.hardware_util(100), 0.0);
        assert!((a.time_util(100) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn huge_windows_do_not_overflow_the_denominator() {
        // capacity · window would overflow u64; the f64 denominator
        // keeps the ratio finite and correct to f64 precision.
        let mut a = Activity::with_capacity(1 << 32);
        a.work = 1 << 62;
        let window = 1u64 << 40; // capacity * window = 2^72 > u64::MAX
        let util = a.hardware_util(window);
        let expect = (1u64 << 62) as f64 / ((1u64 << 32) as f64 * (1u64 << 40) as f64);
        assert!(util.is_finite());
        assert!((util - expect).abs() < 1e-12);

        // Same for replica-averaged time utilization.
        let mut s = StatSet::new();
        let mut busy = Activity::with_capacity(1);
        busy.busy_cycles = 1 << 40;
        for _ in 0..(1 << 16) {
            s.add("PE", busy);
        }
        let t = s.time_util("PE", 1 << 50); // 2^16 · 2^50 = 2^66 > u64::MAX
        assert!(t.is_finite());
        assert!(t > 0.0);
    }

    #[test]
    fn merge_from_keeps_disjoint_components_separate() {
        let mut a = StatSet::new();
        let mut pe = Activity::with_capacity(1);
        pe.record(1, true);
        a.add("PE", pe);

        let mut b = StatSet::new();
        let mut filt = Activity::with_capacity(6);
        filt.record(6, true);
        b.add("filter", filt);
        b.add("filter", Activity::with_capacity(6));

        a.merge_from(&b);
        let names: Vec<&str> = a.names().collect();
        assert_eq!(names, ["PE", "filter"], "disjoint names both survive");
        assert_eq!(a.replicas("PE"), 1);
        assert_eq!(a.replicas("filter"), 2);
        assert_eq!(a.work("PE"), 1);
        assert_eq!(a.work("filter"), 6);
        // merging the same set again doubles the filter replicas only
        a.merge_from(&b);
        assert_eq!(a.replicas("filter"), 4);
        assert_eq!(a.replicas("PE"), 1);
    }
}
