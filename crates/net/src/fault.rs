//! Deterministic link-fault injection.
//!
//! A [`FaultPlan`] describes, per traffic class, what a flaky fabric
//! does to packets: probabilistic drop / corrupt / duplicate / delay
//! schedules plus targeted *kill directives* ("drop the Nth marker
//! transmitted on link L"), the latter reproducing the exact failure
//! mode that deadlocks chained synchronization (§4.4) — a lost in-band
//! `last` marker.
//!
//! On top of the independent per-packet hazards the plan also models
//! *correlated* failures, the kind fleet-scale deployments actually see:
//!
//! * **burst losses** — a per-link Gilbert–Elliott good/bad chain
//!   (`burst=P_ENTER:P_EXIT:P_DROP`) whose bad state drops packets in
//!   runs rather than coin flips;
//! * **link flaps** — one link goes fully dark for a bounded window
//!   (`flap=CHAN:SRC->DST:@STEP+DURATION`);
//! * **partitions with heal** — two node sets lose every crossing link
//!   in both directions for a window
//!   (`partition=NODESET|NODESET:@STEP+DURATION`);
//! * **staggered crashes** — any number of `crash=NODE@STEP`
//!   directives, fired by the cluster driver, exercised by rolling
//!   recovery.
//!
//! Everything is deterministic: [`FaultState`] derives an independent
//! splitmix/xorshift stream per *(channel, src, dst)* link from the plan
//! seed (a second, differently-salted stream drives the burst chain so
//! burst plans never perturb the hazard draws), and decisions are taken
//! at transmit time in the serial network phase of the cluster driver.
//! Flap/partition windows consume no randomness at all: each directive
//! latches per link at the first transmission at-or-after its trigger
//! step and stays down for a fixed number of *cycles*, so the same plan
//! produces the same fault sequence on every engine (serial oracle,
//! fast engine, sharded workers) and across any checkpoint/resume
//! split point.

use fasda_sim::rng;
use std::collections::{BTreeSet, HashMap};

/// Traffic classes a fault schedule can target, mirroring the cluster's
/// three packetizer channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultChannel {
    /// Position broadcast traffic.
    Pos,
    /// Returned neighbour forces.
    Frc,
    /// Motion-update migration traffic.
    Mig,
}

impl FaultChannel {
    /// All channels, in index order.
    pub const ALL: [FaultChannel; 3] = [FaultChannel::Pos, FaultChannel::Frc, FaultChannel::Mig];

    /// Stable label (matches the CLI grammar and trace channel labels).
    pub fn label(self) -> &'static str {
        match self {
            FaultChannel::Pos => "pos",
            FaultChannel::Frc => "frc",
            FaultChannel::Mig => "mig",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "pos" => Some(FaultChannel::Pos),
            "frc" => Some(FaultChannel::Frc),
            "mig" => Some(FaultChannel::Mig),
            _ => None,
        }
    }
}

/// Probabilistic per-link fault rates. All probabilities are per-packet
/// and independent; `delay_max` bounds the uniform extra-latency draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a transmitted packet is silently dropped.
    pub drop: f64,
    /// Probability a transmitted packet arrives with a corrupted frame
    /// (the receiver discards it on checksum failure).
    pub corrupt: f64,
    /// Probability a transmitted packet is duplicated in flight.
    pub duplicate: f64,
    /// Probability a transmitted packet is delayed by extra cycles.
    pub delay: f64,
    /// Maximum extra delay in cycles (uniform in `1..=delay_max`).
    pub delay_max: u64,
}

impl LinkFaults {
    /// No faults.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        corrupt: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        delay_max: 0,
    };

    /// True when every rate is zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.duplicate == 0.0 && self.delay == 0.0
    }

    fn validate(&self) {
        for p in [self.drop, self.corrupt, self.duplicate, self.delay] {
            assert!((0.0..1.0).contains(&p), "fault probability {p} out of [0,1)");
        }
        if self.delay > 0.0 {
            assert!(self.delay_max > 0, "delay faults need delay_max >= 1");
        }
    }
}

/// A targeted directive: drop the `nth` (1-based) *marker* packet
/// transmitted on one specific link. This is the §4.4 nightmare case —
/// without reliable delivery the receiver waits forever for a `last`
/// flag that never arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MarkerKill {
    /// Traffic class of the marker.
    pub channel: FaultChannel,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Which marker transmission to kill (1 = first marker sent on the
    /// link, counting retransmissions).
    pub nth: u32,
}

/// A crash directive: kill node `node` mid-step at timestep `step`
/// (after its force phase has begun but before it completes). Models a
/// board dying mid-run; recovery restores from the latest checkpoint.
/// A plan may carry several, staggered across steps, to exercise
/// rolling recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CrashPoint {
    /// Node index to kill.
    pub node: u32,
    /// Timestep during which the crash fires.
    pub step: u64,
}

/// Gilbert–Elliott burst-loss parameters: a two-state (good/bad) chain
/// per link. Each transmission first draws a state transition
/// (`good → bad` with `p_enter`, `bad → good` with `p_exit`), then —
/// while in the bad state — drops the packet with `p_drop`. Mean burst
/// length is `1/p_exit` transmissions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Probability of entering the bad state per transmission.
    pub p_enter: f64,
    /// Probability of leaving the bad state per transmission.
    pub p_exit: f64,
    /// Drop probability while the link is in the bad state.
    pub p_drop: f64,
}

impl BurstModel {
    fn validate(&self) {
        for p in [self.p_enter, self.p_exit, self.p_drop] {
            assert!((0.0..=1.0).contains(&p), "burst probability {p} out of [0,1]");
        }
    }
}

/// A link flap: one directed link on one channel goes fully dark for a
/// bounded window. The window *latches per link*: it opens at the first
/// transmission on the link whose source node has reached `step`, and
/// stays down for `duration` network cycles from that point — cycle
/// units, because a cut link freezes step progress and a step-bounded
/// window would never heal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkFlap {
    /// Traffic class cut by the flap.
    pub channel: FaultChannel,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Timestep at which the window arms.
    pub step: u64,
    /// Window length in network cycles (>= 1).
    pub duration: u64,
}

/// A network partition with heal: every link crossing between node set
/// `a` and node set `b`, on every channel and in both directions, goes
/// dark for a bounded window. Same per-link latch-and-heal semantics as
/// [`LinkFlap`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Partition {
    /// One side of the cut (sorted, deduplicated).
    pub a: Vec<u32>,
    /// The other side (sorted, deduplicated, disjoint from `a`).
    pub b: Vec<u32>,
    /// Timestep at which the window arms.
    pub step: u64,
    /// Window length in network cycles (>= 1).
    pub duration: u64,
}

impl Partition {
    /// True when a `src -> dst` transmission crosses the cut.
    pub fn cuts(&self, src: u32, dst: u32) -> bool {
        (self.a.binary_search(&src).is_ok() && self.b.binary_search(&dst).is_ok())
            || (self.b.binary_search(&src).is_ok() && self.a.binary_search(&dst).is_ok())
    }

    fn validate(&self) {
        assert!(!self.a.is_empty() && !self.b.is_empty(), "empty partition side");
        assert!(self.duration >= 1, "partition window needs duration >= 1");
        assert!(
            self.a.iter().all(|n| self.b.binary_search(n).is_err()),
            "partition sides overlap"
        );
    }
}

/// Format a node set the way the grammar spells it (`/`-joined items).
fn fmt_nodeset(set: &[u32]) -> String {
    set.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("/")
}

/// Parse a grammar node set: `/`-joined items, each `N` or a half-open
/// range `N..M`.
fn parse_nodeset(s: &str, clause: &str) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for item in s.split('/').map(str::trim) {
        if item.is_empty() {
            return Err(format!("empty node-set item in `{clause}`"));
        }
        if let Some((lo, hi)) = item.split_once("..") {
            let lo: u32 = lo.parse().map_err(|_| format!("bad range start in `{clause}`"))?;
            let hi: u32 = hi.parse().map_err(|_| format!("bad range end in `{clause}`"))?;
            if hi <= lo {
                return Err(format!("empty range {lo}..{hi} in `{clause}`"));
            }
            out.extend(lo..hi);
        } else {
            out.push(item.parse().map_err(|_| format!("bad node in `{clause}`"))?);
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Parse an `@STEP+DURATION` window suffix.
fn parse_window(s: &str, clause: &str) -> Result<(u64, u64), String> {
    let body = s
        .strip_prefix('@')
        .ok_or_else(|| format!("`{clause}` needs an @STEP+DURATION window"))?;
    let (step, dur) = body
        .split_once('+')
        .ok_or_else(|| format!("`{clause}` needs @STEP+DURATION"))?;
    let step: u64 = step.parse().map_err(|_| format!("bad step in `{clause}`"))?;
    let dur: u64 = dur.parse().map_err(|_| format!("bad duration in `{clause}`"))?;
    if dur == 0 {
        return Err(format!("zero-length window in `{clause}`"));
    }
    Ok((step, dur))
}

/// A complete, seeded fault schedule for a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Base seed; each link derives an independent stream from it.
    pub seed: u64,
    /// Probabilistic rates per channel.
    pub rates: [LinkFaults; 3],
    /// Targeted marker kills.
    pub kills: Vec<MarkerKill>,
    /// Crash directives, possibly staggered across several steps.
    /// Handled by the cluster driver, not by [`FaultState`]: a crash
    /// aborts the run rather than perturbing traffic, so crashes do not
    /// count toward [`FaultPlan::is_none`].
    pub crashes: Vec<CrashPoint>,
    /// Optional Gilbert–Elliott burst-loss chain, all links.
    pub burst: Option<BurstModel>,
    /// Link-flap windows.
    pub flaps: Vec<LinkFlap>,
    /// Partition-with-heal windows.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan with no faults at all (useful as a parse identity).
    pub fn none() -> Self {
        FaultPlan {
            seed: 1,
            rates: [LinkFaults::NONE; 3],
            kills: Vec::new(),
            crashes: Vec::new(),
            burst: None,
            flaps: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Uniform drop-only plan across all channels. Only tests call it: the
    /// lossy plans of the net and cluster suites.
    pub fn drop_only(p: f64, seed: u64) -> Self {
        FaultPlan::none().with_seed(seed).with_rate(|r| r.drop = p)
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed | 1;
        self
    }

    /// Mutate every channel's rates through a closure.
    pub fn with_rate(mut self, f: impl Fn(&mut LinkFaults)) -> Self {
        for r in &mut self.rates {
            f(r);
        }
        self.validate();
        self
    }

    /// Add a targeted marker kill.
    pub fn with_kill(mut self, kill: MarkerKill) -> Self {
        self.kills.push(kill);
        self
    }

    /// Add a crash directive.
    pub fn with_crash(mut self, node: u32, step: u64) -> Self {
        self.crashes.push(CrashPoint { node, step });
        self
    }

    /// Install a Gilbert–Elliott burst-loss chain on every link.
    pub fn with_burst(mut self, p_enter: f64, p_exit: f64, p_drop: f64) -> Self {
        self.burst = Some(BurstModel { p_enter, p_exit, p_drop });
        self.validate();
        self
    }

    /// Add a link-flap window.
    pub fn with_flap(mut self, flap: LinkFlap) -> Self {
        self.flaps.push(flap);
        self.validate();
        self
    }

    /// Add a partition-with-heal window between two node sets.
    pub fn with_partition(mut self, a: Vec<u32>, b: Vec<u32>, step: u64, duration: u64) -> Self {
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        self.partitions.push(Partition { a, b, step, duration });
        self.validate();
        self
    }

    /// The same plan with every crash directive removed — what a resumed
    /// run executes so it does not crash again at the same step.
    pub fn without_crash(&self) -> Self {
        let mut plan = self.clone();
        plan.crashes.clear();
        plan
    }

    /// The same plan minus one specific crash directive — rolling
    /// recovery strips exactly the crash that fired and keeps any later
    /// staggered crashes armed.
    pub fn without_crash_at(&self, node: u32, step: u64) -> Self {
        let mut plan = self.clone();
        if let Some(i) = plan
            .crashes
            .iter()
            .position(|c| c.node == node && c.step == step)
        {
            plan.crashes.remove(i);
        }
        plan
    }

    /// The same plan with flap and partition windows removed — what a
    /// recovery pass executes after diagnosing a partition-induced
    /// deadlock.
    pub fn without_windows(&self) -> Self {
        let mut plan = self.clone();
        plan.flaps.clear();
        plan.partitions.clear();
        plan
    }

    /// The same plan minus every outage directive (crashes, flaps,
    /// partitions). This is the *recovery-invariant core* of a plan:
    /// resumed runs may strip any outage, so configuration fingerprints
    /// must hash this form to stay stable across recovery.
    pub fn without_outages(&self) -> Self {
        self.without_crash().without_windows()
    }

    /// True when the plan injects no *traffic* faults. Crash directives
    /// do not count: they are driver-level, need no per-link fault
    /// state, and must not force the fault layer on.
    pub fn is_none(&self) -> bool {
        self.kills.is_empty()
            && self.rates.iter().all(LinkFaults::is_none)
            && self.burst.is_none()
            && self.flaps.is_empty()
            && self.partitions.is_empty()
    }

    /// Human-readable description of window directive `idx` (flaps
    /// first, then partitions), spelled like the CLI grammar.
    pub fn outage_desc(&self, idx: usize) -> String {
        if idx < self.flaps.len() {
            let f = self.flaps[idx];
            format!(
                "flap {}:{}->{}:@{}+{}",
                f.channel.label(),
                f.src,
                f.dst,
                f.step,
                f.duration
            )
        } else {
            let p = &self.partitions[idx - self.flaps.len()];
            format!(
                "partition {}|{}:@{}+{}",
                fmt_nodeset(&p.a),
                fmt_nodeset(&p.b),
                p.step,
                p.duration
            )
        }
    }

    fn validate(&self) {
        for r in &self.rates {
            r.validate();
        }
        if let Some(b) = &self.burst {
            b.validate();
        }
        for f in &self.flaps {
            assert!(f.duration >= 1, "flap window needs duration >= 1");
        }
        for p in &self.partitions {
            p.validate();
        }
    }

    /// Parse the CLI grammar: comma-separated `key=value` clauses.
    ///
    /// ```text
    /// drop=0.05,corrupt=0.01,dup=0.01,delay=0.02:400,seed=7,
    /// kill=frc:3->4:1,burst=0.05:0.2:0.9,flap=pos:0->1:@3+500,
    /// partition=0/1|2..8:@3+4000,crash=1@5,crash=6@9
    /// ```
    ///
    /// * `drop|corrupt|dup` — per-packet probability, all channels;
    /// * `delay=P:MAX` — delay probability and max extra cycles;
    /// * `seed=N` — RNG seed;
    /// * `kill=CHAN:SRC->DST:N` — drop the Nth marker on that link
    ///   (`CHAN` ∈ `pos|frc|mig`);
    /// * `burst=P_ENTER:P_EXIT:P_DROP` — Gilbert–Elliott burst chain;
    /// * `flap=CHAN:SRC->DST:@STEP+DUR` — one link dark for DUR cycles
    ///   from its first transmission at-or-after STEP;
    /// * `partition=SET|SET:@STEP+DUR` — cut every crossing link both
    ///   ways; SET is `/`-joined items, each `N` or half-open `N..M`
    ///   (e.g. `0/1|2..8`);
    /// * `crash=NODE@STEP` — kill node NODE mid-step at timestep STEP;
    ///   may repeat for staggered crashes.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            match key {
                "drop" | "corrupt" | "dup" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("bad probability in `{clause}`"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("probability {p} out of [0,1) in `{clause}`"));
                    }
                    plan = plan.with_rate(|r| match key {
                        "drop" => r.drop = p,
                        "corrupt" => r.corrupt = p,
                        _ => r.duplicate = p,
                    });
                }
                "delay" => {
                    let (p, max) = value
                        .split_once(':')
                        .ok_or_else(|| format!("`{clause}` needs delay=P:MAX"))?;
                    let p: f64 = p.parse().map_err(|_| format!("bad probability in `{clause}`"))?;
                    let max: u64 = max.parse().map_err(|_| format!("bad max delay in `{clause}`"))?;
                    if !(0.0..1.0).contains(&p) || max == 0 {
                        return Err(format!("bad delay spec `{clause}`"));
                    }
                    plan = plan.with_rate(|r| {
                        r.delay = p;
                        r.delay_max = max;
                    });
                }
                "seed" => {
                    let s: u64 = value.parse().map_err(|_| format!("bad seed in `{clause}`"))?;
                    plan = plan.with_seed(s);
                }
                "kill" => {
                    // CHAN:SRC->DST:N
                    let mut it = value.splitn(3, ':');
                    let chan = it
                        .next()
                        .and_then(FaultChannel::parse)
                        .ok_or_else(|| format!("bad channel in `{clause}`"))?;
                    let link = it.next().ok_or_else(|| format!("bad kill spec `{clause}`"))?;
                    let (src, dst) = link
                        .split_once("->")
                        .ok_or_else(|| format!("`{clause}` needs SRC->DST"))?;
                    let nth: u32 = it
                        .next()
                        .and_then(|n| n.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad marker index in `{clause}`"))?;
                    let src: u32 = src.parse().map_err(|_| format!("bad src in `{clause}`"))?;
                    let dst: u32 = dst.parse().map_err(|_| format!("bad dst in `{clause}`"))?;
                    plan = plan.with_kill(MarkerKill {
                        channel: chan,
                        src,
                        dst,
                        nth,
                    });
                }
                "burst" => {
                    // P_ENTER:P_EXIT:P_DROP
                    let mut it = value.splitn(3, ':');
                    let mut next = || -> Result<f64, String> {
                        it.next()
                            .and_then(|p| p.parse().ok())
                            .filter(|p| (0.0..=1.0).contains(p))
                            .ok_or_else(|| format!("`{clause}` needs burst=P_ENTER:P_EXIT:P_DROP"))
                    };
                    let (p_enter, p_exit, p_drop) = (next()?, next()?, next()?);
                    if p_exit == 0.0 {
                        return Err(format!("burst never heals (p_exit=0) in `{clause}`"));
                    }
                    plan = plan.with_burst(p_enter, p_exit, p_drop);
                }
                "flap" => {
                    // CHAN:SRC->DST:@STEP+DUR
                    let mut it = value.splitn(3, ':');
                    let chan = it
                        .next()
                        .and_then(FaultChannel::parse)
                        .ok_or_else(|| format!("bad channel in `{clause}`"))?;
                    let link = it.next().ok_or_else(|| format!("bad flap spec `{clause}`"))?;
                    let (src, dst) = link
                        .split_once("->")
                        .ok_or_else(|| format!("`{clause}` needs SRC->DST"))?;
                    let src: u32 = src.parse().map_err(|_| format!("bad src in `{clause}`"))?;
                    let dst: u32 = dst.parse().map_err(|_| format!("bad dst in `{clause}`"))?;
                    let window = it.next().ok_or_else(|| format!("bad flap spec `{clause}`"))?;
                    let (step, duration) = parse_window(window, clause)?;
                    plan = plan.with_flap(LinkFlap {
                        channel: chan,
                        src,
                        dst,
                        step,
                        duration,
                    });
                }
                "partition" => {
                    // SET|SET:@STEP+DUR  (sets cannot contain ',' — the
                    // clause splitter owns that — so items join on '/').
                    let (sets, window) = value
                        .rsplit_once(':')
                        .ok_or_else(|| format!("`{clause}` needs SET|SET:@STEP+DUR"))?;
                    let (a, b) = sets
                        .split_once('|')
                        .ok_or_else(|| format!("`{clause}` needs two |-separated node sets"))?;
                    let a = parse_nodeset(a, clause)?;
                    let b = parse_nodeset(b, clause)?;
                    if a.is_empty() || b.is_empty() {
                        return Err(format!("empty partition side in `{clause}`"));
                    }
                    if a.iter().any(|n| b.binary_search(n).is_ok()) {
                        return Err(format!("partition sides overlap in `{clause}`"));
                    }
                    let (step, duration) = parse_window(window, clause)?;
                    plan = plan.with_partition(a, b, step, duration);
                }
                "crash" => {
                    let (node, step) = value
                        .split_once('@')
                        .ok_or_else(|| format!("`{clause}` needs crash=NODE@STEP"))?;
                    let node: u32 = node.parse().map_err(|_| format!("bad node in `{clause}`"))?;
                    let step: u64 = step.parse().map_err(|_| format!("bad step in `{clause}`"))?;
                    plan = plan.with_crash(node, step);
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// What the fault layer decided for one transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver normally.
    Deliver,
    /// Silently drop (probabilistic schedule, burst chain, or an active
    /// flap/partition window).
    Drop,
    /// Drop via a targeted marker-kill directive.
    Kill,
    /// Deliver a corrupted frame (receiver discards on checksum).
    Corrupt,
    /// Deliver the packet *and* a duplicate copy.
    Duplicate,
    /// Deliver with extra latency.
    Delay(u64),
}

/// RNG lane for the independent per-packet hazard draws (the original
/// stream — lane 0 keeps existing schedules bit-identical).
const LANE_HAZARD: u64 = 0;
/// RNG lane for the Gilbert–Elliott burst chain.
const LANE_BURST: u64 = 1;

/// Per-link deterministic RNG and marker counters driving a
/// [`FaultPlan`] at runtime.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// xorshift64* stream per (channel, src, dst), lazily derived.
    streams: HashMap<(FaultChannel, u32, u32), u64>,
    /// Marker transmissions seen per link (for kill directives).
    markers_sent: HashMap<(FaultChannel, u32, u32), u32>,
    /// Gilbert–Elliott chain per link: (burst-lane stream, in-bad-state),
    /// lazily derived. A separate stream so burst plans never perturb
    /// the hazard draws.
    burst_links: HashMap<(FaultChannel, u32, u32), (u64, bool)>,
    /// Latched flap/partition windows: (directive index, channel, src,
    /// dst) -> cycle the link heals at. A latch persists after healing
    /// so a directive fires at most once per link.
    windows: HashMap<(u32, FaultChannel, u32, u32), u64>,
    /// Window directives that have latched on at least one link —
    /// feeds partition-vs-deadlock diagnosis.
    fired: BTreeSet<u32>,
    /// Faults injected, by kind (drop, kill, corrupt, duplicate, delay).
    pub injected: [u64; 5],
}

impl FaultState {
    /// Runtime state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultState {
            plan,
            streams: HashMap::new(),
            markers_sent: HashMap::new(),
            burst_links: HashMap::new(),
            windows: HashMap::new(),
            fired: BTreeSet::new(),
            injected: [0; 5],
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Grammar-spelled descriptions of every flap/partition directive
    /// that has latched on at least one link so far — the raw material
    /// for naming the partition when a deadlock is diagnosed. A healed
    /// window still counts: its damage may be what starved the cluster.
    /// Sorted lexicographically — the canonical order the sharded merge
    /// also produces, so diagnoses are engine-invariant.
    pub fn fired_outages(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .fired
            .iter()
            .map(|&i| self.plan.outage_desc(i as usize))
            .collect();
        out.sort();
        out
    }

    /// Adopt the per-link RNG streams, marker counters, burst chains,
    /// and window latches of every link whose **source** node satisfies
    /// `owns` from `other`, leaving other links untouched. Fault
    /// decisions are taken at transmit time by the shard owning the
    /// source node, so the source-sliced link state is exactly what a
    /// checkpoint splice must take from each worker. The `injected`
    /// tallies are cross-link sums and are reconciled separately by the
    /// caller; the `fired` directive set is a monotone union across all
    /// links, so it is merged wholesale.
    pub fn adopt_links_from(&mut self, other: &FaultState, owns: impl Fn(u32) -> bool) {
        self.streams.retain(|&(_, src, _), _| !owns(src));
        self.markers_sent.retain(|&(_, src, _), _| !owns(src));
        self.burst_links.retain(|&(_, src, _), _| !owns(src));
        self.windows.retain(|&(_, _, src, _), _| !owns(src));
        for (&k, &v) in other.streams.iter().filter(|(&(_, src, _), _)| owns(src)) {
            self.streams.insert(k, v);
        }
        for (&k, &v) in other.markers_sent.iter().filter(|(&(_, src, _), _)| owns(src)) {
            self.markers_sent.insert(k, v);
        }
        for (&k, &v) in other.burst_links.iter().filter(|(&(_, src, _), _)| owns(src)) {
            self.burst_links.insert(k, v);
        }
        for (&k, &v) in other.windows.iter().filter(|(&(_, _, src, _), _)| owns(src)) {
            self.windows.insert(k, v);
        }
        self.fired.extend(other.fired.iter().copied());
    }

    /// Derive a well-mixed per-link seed from the plan seed, link
    /// identity, and RNG lane (splitmix64 over a golden-ratio sequence
    /// position). Lane 0 reproduces the pre-burst derivation exactly.
    fn derive_seed(&self, channel: FaultChannel, src: u32, dst: u32, lane: u64) -> u64 {
        let z = self.plan.seed.wrapping_add(rng::GOLDEN_GAMMA.wrapping_mul(
            1 + (channel as u64) + ((src as u64) << 8) + ((dst as u64) << 24) + (lane << 48),
        ));
        rng::splitmix64(z) | 1
    }

    /// Next uniform draw in [0,1) from the link's hazard stream.
    fn draw(&mut self, channel: FaultChannel, src: u32, dst: u32) -> f64 {
        let seed = self.derive_seed(channel, src, dst, LANE_HAZARD);
        let state = self.streams.entry((channel, src, dst)).or_insert(seed);
        rng::xorshift64star_unit(state)
    }

    /// Advance the link's Gilbert–Elliott chain by one transmission and
    /// report whether the packet is lost to the burst. Always exactly
    /// two draws (transition, loss) in fixed order, so the burst
    /// schedule is a pure function of the transmission count per link.
    fn burst_cut(&mut self, burst: BurstModel, channel: FaultChannel, src: u32, dst: u32) -> bool {
        let seed = self.derive_seed(channel, src, dst, LANE_BURST);
        let (stream, bad) = self
            .burst_links
            .entry((channel, src, dst))
            .or_insert((seed, false));
        let transition = rng::xorshift64star_unit(stream);
        if *bad {
            if transition < burst.p_exit {
                *bad = false;
            }
        } else if transition < burst.p_enter {
            *bad = true;
        }
        let loss = rng::xorshift64star_unit(stream);
        *bad && loss < burst.p_drop
    }

    /// Check one window directive against one link: an active latch cuts
    /// the packet; a missing latch arms when the source node's step has
    /// reached the directive's trigger. Consumes no randomness.
    #[allow(clippy::too_many_arguments)]
    fn window_check(
        &mut self,
        idx: u32,
        channel: FaultChannel,
        src: u32,
        dst: u32,
        step: u64,
        cycle: u64,
        at_step: u64,
        duration: u64,
    ) -> bool {
        let key = (idx, channel, src, dst);
        if let Some(&heal_at) = self.windows.get(&key) {
            return cycle < heal_at;
        }
        if step >= at_step {
            self.windows.insert(key, cycle + duration);
            self.fired.insert(idx);
            return true;
        }
        false
    }

    /// Evaluate every flap/partition window against this transmission.
    /// All applicable directives are checked (no short-circuit) so their
    /// latches arm independently of one another.
    fn window_cut(
        &mut self,
        channel: FaultChannel,
        src: u32,
        dst: u32,
        step: u64,
        cycle: u64,
    ) -> bool {
        let mut cut = false;
        for i in 0..self.plan.flaps.len() {
            let f = self.plan.flaps[i];
            if f.channel == channel && f.src == src && f.dst == dst {
                cut |= self.window_check(i as u32, channel, src, dst, step, cycle, f.step, f.duration);
            }
        }
        let base = self.plan.flaps.len();
        for i in 0..self.plan.partitions.len() {
            let window = {
                let p = &self.plan.partitions[i];
                p.cuts(src, dst).then_some((p.step, p.duration))
            };
            if let Some((at, dur)) = window {
                cut |= self.window_check((base + i) as u32, channel, src, dst, step, cycle, at, dur);
            }
        }
        cut
    }

    /// Decide the fate of one transmission on a link. `step` is the
    /// source node's current timestep and `cycle` the network cycle
    /// (both drive the deterministic flap/partition windows); `marker`
    /// flags a packet carrying a `last` sync marker (kill directives
    /// count and target only those). Deterministic: the nth call for a
    /// given link always returns the same outcome for the same plan and
    /// the same (step, cycle) trajectory.
    pub fn on_transmit(
        &mut self,
        channel: FaultChannel,
        src: u32,
        dst: u32,
        step: u64,
        cycle: u64,
        marker: bool,
    ) -> FaultOutcome {
        if marker {
            let n = self.markers_sent.entry((channel, src, dst)).or_insert(0);
            *n += 1;
            let nth = *n;
            if self
                .plan
                .kills
                .iter()
                .any(|k| k.channel == channel && k.src == src && k.dst == dst && k.nth == nth)
            {
                self.injected[1] += 1;
                return FaultOutcome::Kill;
            }
        }
        // Deterministic window cuts first: flaps and partitions consume
        // no randomness, and a link inside an outage window is down
        // outright — nothing else gets a say.
        if self.window_cut(channel, src, dst, step, cycle) {
            self.injected[0] += 1;
            return FaultOutcome::Drop;
        }
        // The burst chain draws from its own lane, and the hazard
        // decision tree below runs — draws included — even when the
        // chain cuts, so adding a burst model to a plan never perturbs
        // (or shifts) the per-link hazard stream.
        let burst_cut = match self.plan.burst {
            Some(burst) => self.burst_cut(burst, channel, src, dst),
            None => false,
        };
        let rates = self.plan.rates[channel as usize];
        let hazard = if rates.is_none() {
            FaultOutcome::Deliver
        } else {
            // One draw per independent hazard, in fixed order, so adding
            // a hazard to a plan never perturbs the draws of the others.
            let drop = self.draw(channel, src, dst);
            let corrupt = self.draw(channel, src, dst);
            let dup = self.draw(channel, src, dst);
            let delay = self.draw(channel, src, dst);
            if drop < rates.drop {
                FaultOutcome::Drop
            } else if corrupt < rates.corrupt {
                FaultOutcome::Corrupt
            } else if dup < rates.duplicate {
                FaultOutcome::Duplicate
            } else if delay < rates.delay {
                let extra = 1 + (self.draw(channel, src, dst) * rates.delay_max as f64) as u64;
                FaultOutcome::Delay(extra.min(rates.delay_max))
            } else {
                FaultOutcome::Deliver
            }
        };
        if burst_cut {
            self.injected[0] += 1;
            return FaultOutcome::Drop;
        }
        match hazard {
            FaultOutcome::Drop => self.injected[0] += 1,
            FaultOutcome::Corrupt => self.injected[2] += 1,
            FaultOutcome::Duplicate => self.injected[3] += 1,
            FaultOutcome::Delay(_) => self.injected[4] += 1,
            FaultOutcome::Deliver | FaultOutcome::Kill => {}
        }
        hazard
    }
}

impl fasda_ckpt::Persist for FaultChannel {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        let i = r.get_u8()?;
        FaultChannel::ALL
            .get(i as usize)
            .copied()
            .ok_or_else(|| r.malformed(format!("invalid fault channel {i}")))
    }
}

/// Checkpointing: the plan is configuration (the resumed run is built
/// with the same plan, minus any outage directives that already fired);
/// the per-link RNG states, marker counters, burst chains, window
/// latches, and injection tallies are state — persisting them is what
/// makes the resumed fault schedule continue mid-sequence exactly where
/// the interrupted run left off.
impl fasda_ckpt::Snapshot for FaultState {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        self.streams.save(w);
        self.markers_sent.save(w);
        self.injected.save(w);
        self.burst_links.save(w);
        self.windows.save(w);
        self.fired.save(w);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        self.streams = Persist::load(r)?;
        self.markers_sent = Persist::load(r)?;
        self.injected = Persist::load(r)?;
        self.burst_links = Persist::load(r)?;
        self.windows = Persist::load(r)?;
        self.fired = Persist::load(r)?;
        if self.streams.values().any(|&s| s == 0) {
            return Err(r.malformed("zero xorshift64* stream state"));
        }
        if self.burst_links.values().any(|&(s, _)| s == 0) {
            return Err(r.malformed("zero burst stream state"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "drop=0.05,corrupt=0.01,dup=0.02,delay=0.1:400,seed=7,kill=frc:3->4:1,kill=pos:0->1:2",
        )
        .expect("parse");
        assert_eq!(plan.seed, 7);
        for r in &plan.rates {
            assert_eq!(r.drop, 0.05);
            assert_eq!(r.corrupt, 0.01);
            assert_eq!(r.duplicate, 0.02);
            assert_eq!(r.delay, 0.1);
            assert_eq!(r.delay_max, 400);
        }
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(
            plan.kills[0],
            MarkerKill {
                channel: FaultChannel::Frc,
                src: 3,
                dst: 4,
                nth: 1
            }
        );
    }

    #[test]
    fn parse_correlated_grammar() {
        let plan = FaultPlan::parse(
            "burst=0.05:0.2:0.9,flap=pos:0->1:@3+500,partition=0/1|2..8:@4+4000,crash=1@5,crash=6@9,seed=11",
        )
        .expect("parse");
        assert_eq!(
            plan.burst,
            Some(BurstModel { p_enter: 0.05, p_exit: 0.2, p_drop: 0.9 })
        );
        assert_eq!(
            plan.flaps,
            vec![LinkFlap {
                channel: FaultChannel::Pos,
                src: 0,
                dst: 1,
                step: 3,
                duration: 500
            }]
        );
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].a, vec![0, 1]);
        assert_eq!(plan.partitions[0].b, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.partitions[0].step, 4);
        assert_eq!(plan.partitions[0].duration, 4000);
        assert_eq!(
            plan.crashes,
            vec![CrashPoint { node: 1, step: 5 }, CrashPoint { node: 6, step: 9 }]
        );
        assert!(!plan.is_none(), "correlated directives are traffic faults");
        let core = plan.without_outages();
        assert!(core.crashes.is_empty() && core.flaps.is_empty() && core.partitions.is_empty());
        assert!(core.burst.is_some(), "burst survives outage stripping");
        assert_eq!(plan.outage_desc(0), "flap pos:0->1:@3+500");
        assert_eq!(plan.outage_desc(1), "partition 0/1|2/3/4/5/6/7:@4+4000");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("delay=0.5:0").is_err());
        assert!(FaultPlan::parse("kill=xyz:0->1:1").is_err());
        assert!(FaultPlan::parse("kill=pos:0-1:1").is_err());
        assert!(FaultPlan::parse("kill=pos:0->1:0").is_err());
        assert!(FaultPlan::parse("burst=0.5:0.5").is_err());
        assert!(FaultPlan::parse("burst=0.5:0:0.9").is_err(), "p_exit=0 never heals");
        assert!(FaultPlan::parse("burst=1.5:0.5:0.5").is_err());
        assert!(FaultPlan::parse("flap=pos:0->1:3+500").is_err(), "missing @");
        assert!(FaultPlan::parse("flap=pos:0->1:@3+0").is_err(), "zero window");
        assert!(FaultPlan::parse("partition=0|0:@1+10").is_err(), "overlap");
        assert!(FaultPlan::parse("partition=0/1:@1+10").is_err(), "one side");
        assert!(FaultPlan::parse("partition=0|1..1:@1+10").is_err(), "empty range");
        assert!(FaultPlan::parse("crash=1").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
        assert!(FaultPlan::parse("").map(|p| p.is_none()).unwrap_or(false));
    }

    #[test]
    fn decisions_are_deterministic_per_link() {
        let plan = FaultPlan::drop_only(0.3, 99);
        let run = |mut st: FaultState| {
            (0..200)
                .map(|_| st.on_transmit(FaultChannel::Pos, 0, 1, 0, 0, false))
                .collect::<Vec<_>>()
        };
        let a = run(FaultState::new(plan.clone()));
        let b = run(FaultState::new(plan));
        assert_eq!(a, b);
        assert!(a.contains(&FaultOutcome::Drop));
        assert!(a.contains(&FaultOutcome::Deliver));
    }

    #[test]
    fn links_get_independent_streams() {
        let plan = FaultPlan::drop_only(0.5, 5);
        let mut st = FaultState::new(plan);
        let a: Vec<_> = (0..64)
            .map(|_| st.on_transmit(FaultChannel::Pos, 0, 1, 0, 0, false))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|_| st.on_transmit(FaultChannel::Pos, 1, 0, 0, 0, false))
            .collect();
        let c: Vec<_> = (0..64)
            .map(|_| st.on_transmit(FaultChannel::Frc, 0, 1, 0, 0, false))
            .collect();
        assert_ne!(a, b, "direction matters");
        assert_ne!(a, c, "channel matters");
    }

    #[test]
    fn kill_targets_exact_marker_transmission() {
        let plan = FaultPlan::none().with_kill(MarkerKill {
            channel: FaultChannel::Frc,
            src: 2,
            dst: 3,
            nth: 2,
        });
        let mut st = FaultState::new(plan);
        assert_eq!(
            st.on_transmit(FaultChannel::Frc, 2, 3, 0, 0, true),
            FaultOutcome::Deliver
        );
        assert_eq!(
            st.on_transmit(FaultChannel::Frc, 2, 3, 0, 0, true),
            FaultOutcome::Kill
        );
        assert_eq!(
            st.on_transmit(FaultChannel::Frc, 2, 3, 0, 0, true),
            FaultOutcome::Deliver
        );
        // other links untouched
        assert_eq!(
            st.on_transmit(FaultChannel::Frc, 3, 2, 0, 0, true),
            FaultOutcome::Deliver
        );
        assert_eq!(st.injected[1], 1);
    }

    #[test]
    fn drop_rate_is_calibrated() {
        let mut st = FaultState::new(FaultPlan::drop_only(0.2, 1234));
        let mut dropped = 0;
        for _ in 0..10_000 {
            if st.on_transmit(FaultChannel::Pos, 0, 1, 0, 0, false) == FaultOutcome::Drop {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "drop rate {rate}");
        assert_eq!(st.injected[0], dropped);
    }

    #[test]
    fn delay_bounded_by_max() {
        let plan = FaultPlan::none().with_seed(3).with_rate(|r| {
            r.delay = 0.9;
            r.delay_max = 10;
        });
        let mut st = FaultState::new(plan);
        for _ in 0..1000 {
            if let FaultOutcome::Delay(extra) = st.on_transmit(FaultChannel::Mig, 1, 2, 0, 0, false) {
                assert!((1..=10).contains(&extra), "delay {extra}");
            }
        }
    }

    #[test]
    fn burst_drops_in_runs_and_never_perturbs_hazard_stream() {
        // Same seed, same link: a plan with drop rates alone and a plan
        // with drop rates *plus* a burst chain must take identical
        // hazard draws — the burst lane is independent.
        let base = FaultPlan::drop_only(0.1, 42);
        let bursty = base.clone().with_burst(0.05, 0.25, 1.0);
        let mut a = FaultState::new(base);
        let mut b = FaultState::new(bursty);
        let mut burst_extra = 0u64;
        for i in 0..20_000u64 {
            let oa = a.on_transmit(FaultChannel::Pos, 0, 1, i, i, false);
            let ob = b.on_transmit(FaultChannel::Pos, 0, 1, i, i, false);
            if oa != ob {
                // The only divergence a burst may introduce is an extra
                // drop where the base plan delivered/delayed/etc.
                assert_eq!(ob, FaultOutcome::Drop, "burst changed a non-drop outcome");
                burst_extra += 1;
            }
        }
        assert!(burst_extra > 0, "burst chain never fired");
        // Burst losses are correlated: with p_drop=1, consecutive drops
        // come in runs whose mean length ~ 1/p_exit = 4 — count runs of
        // length >= 3, which a 10% independent chance almost never makes.
        let mut st = FaultState::new(FaultPlan::none().with_seed(42).with_burst(0.05, 0.25, 1.0));
        let outcomes: Vec<_> = (0..20_000u64)
            .map(|i| st.on_transmit(FaultChannel::Pos, 0, 1, i, i, false))
            .collect();
        let mut runs3 = 0;
        let mut run = 0;
        for o in &outcomes {
            if *o == FaultOutcome::Drop {
                run += 1;
                if run == 3 {
                    runs3 += 1;
                }
            } else {
                run = 0;
            }
        }
        assert!(runs3 > 10, "bursts should produce many length>=3 drop runs, got {runs3}");
    }

    #[test]
    fn flap_latches_then_heals_per_link() {
        let plan = FaultPlan::none().with_flap(LinkFlap {
            channel: FaultChannel::Pos,
            src: 0,
            dst: 1,
            step: 2,
            duration: 100,
        });
        let mut st = FaultState::new(plan);
        // Before the trigger step: untouched.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 1, 50, false),
            FaultOutcome::Deliver
        );
        // First transmission at step >= 2 latches the window.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 2, 60, false),
            FaultOutcome::Drop
        );
        // Down for the whole window...
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 2, 159, false),
            FaultOutcome::Drop
        );
        // ...heals exactly at latch_cycle + duration...
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 2, 160, false),
            FaultOutcome::Deliver
        );
        // ...and never re-latches.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 9, 10_000, false),
            FaultOutcome::Deliver
        );
        // Other links and channels unaffected throughout.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 1, 0, 2, 100, false),
            FaultOutcome::Deliver
        );
        assert_eq!(
            st.on_transmit(FaultChannel::Frc, 0, 1, 2, 100, false),
            FaultOutcome::Deliver
        );
        assert_eq!(st.fired_outages(), vec!["flap pos:0->1:@2+100".to_string()]);
        assert_eq!(st.injected[0], 2);
    }

    #[test]
    fn partition_cuts_every_crossing_link_both_ways() {
        let plan = FaultPlan::parse("partition=0/1|2/3:@1+1000").expect("parse");
        let mut st = FaultState::new(plan);
        for ch in FaultChannel::ALL {
            assert_eq!(st.on_transmit(ch, 0, 2, 1, 10, false), FaultOutcome::Drop);
            assert_eq!(st.on_transmit(ch, 3, 1, 1, 10, true), FaultOutcome::Drop);
        }
        // Intra-side traffic flows.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 1, 1, 10, false),
            FaultOutcome::Deliver
        );
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 2, 3, 1, 10, false),
            FaultOutcome::Deliver
        );
        // Each link heals off its own latch cycle.
        assert_eq!(
            st.on_transmit(FaultChannel::Pos, 0, 2, 1, 1010, false),
            FaultOutcome::Deliver
        );
        assert_eq!(st.fired_outages(), vec!["partition 0/1|2/3:@1+1000".to_string()]);
    }

    #[test]
    fn without_crash_at_strips_exactly_one_directive() {
        let plan = FaultPlan::none().with_crash(2, 3).with_crash(5, 7);
        let stripped = plan.without_crash_at(2, 3);
        assert_eq!(stripped.crashes, vec![CrashPoint { node: 5, step: 7 }]);
        assert!(plan.without_crash().crashes.is_empty());
        // Stripping an absent directive is a no-op.
        assert_eq!(plan.without_crash_at(9, 9).crashes, plan.crashes);
    }
}
