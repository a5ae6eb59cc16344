//! The cycle-level FASDA chip model.
//!
//! [`TimedChip`] wires the CBBs of one FPGA onto per-SPE position and
//! force rings plus a motion-update ring, and steps the whole chip one
//! clock cycle at a time. Cycle counts convert to the paper's µs/day
//! metric via [`crate::config::HwParams::us_per_day`]; per-component
//! activity counters regenerate Fig. 17.
//!
//! Single-chip mode drives itself with [`TimedChip::run_timestep`].
//! In multi-chip mode `fasda-cluster` drives the phase transitions and
//! exchanges the EX-node queues ([`TimedChip::drain_pos_egress`] and
//! friends), implementing the packetization, cooldown, and chained
//! synchronization of §4.3–4.4 on top.

pub mod axi;
pub mod cbb;
pub mod pe;
pub mod ring;

use crate::config::ChipConfig;
use crate::datapath::ForceDatapath;
use crate::geometry::{ChipCoord, ChipGeometry};
use cbb::TimedCbb;
use fasda_md::element::Element;
use fasda_md::space::CellCoord;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::vec3::Vec3;
use fasda_sim::{Activity, Cycle, StatSet};
use fasda_trace::{EventKind, NodeRecorder, NodeStream, TraceConfig, TraceLevel};
use pe::{Ejection, NbrEntry, NbrKind, Pe};
use ring::{Direction, FrcFlit, MigFlit, PosFlit, Ring};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Safety cap for self-driven phase loops; a healthy timestep is a few
/// thousand to a few hundred thousand cycles.
const MAX_PHASE_CYCLES: u64 = 200_000_000;

/// Report for one executed phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Cycles the phase took on this chip.
    pub cycles: u64,
}

/// Report for one executed timestep on one chip.
#[derive(Clone, Debug, Default)]
pub struct TimestepReport {
    /// Force-evaluation phase cycles.
    pub force_cycles: u64,
    /// Motion-update phase cycles.
    pub mu_cycles: u64,
    /// Per-component utilization counters over the whole timestep window.
    pub stats: StatSet,
    /// Forces produced (valid pairs evaluated).
    pub valid_pairs: u64,
    /// Filter comparisons performed.
    pub comparisons: u64,
    /// Particles that migrated between cells.
    pub migrations: u64,
}

impl TimestepReport {
    /// Total cycles of the timestep.
    pub fn total_cycles(&self) -> u64 {
        self.force_cycles + self.mu_cycles
    }
}

/// A motion update whose displacement would move a particle off the
/// `Q5.26` offset grid: the chip cannot represent the new position, so
/// the step fails instead of going on with a wrong one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MuOverflow {
    /// The particle's id.
    pub particle: u32,
    /// The chip cycle of the motion update.
    pub cycle: Cycle,
}

impl std::fmt::Display for MuOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "motion update of particle {} at cycle {} leaves the Q5.26 offset grid",
            self.particle, self.cycle
        )
    }
}

impl std::error::Error for MuOverflow {}

/// Execution phase of a chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Between timesteps.
    Idle,
    /// Force evaluation (black path of Fig. 4).
    Force,
    /// Motion update (red path of Fig. 4).
    MotionUpdate,
}

/// Per-peer traffic counters (flits; `fasda-net` packs them 4-per-packet).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Position flits sent, per destination chip.
    pub pos_sent: HashMap<ChipCoord, u64>,
    /// Force flits sent, per destination chip.
    pub frc_sent: HashMap<ChipCoord, u64>,
    /// Position flits received, per origin chip.
    pub pos_recv: HashMap<ChipCoord, u64>,
    /// Force flits received back for local particles (local + remote
    /// rings combined).
    pub frc_recv: u64,
    /// Force flits ingested from remote chips (EX-node arrivals).
    pub frc_recv_remote: u64,
    /// Migration flits sent, per destination chip.
    pub mig_sent: HashMap<ChipCoord, u64>,
}

impl TrafficCounters {
    /// Fold another window's counters into this one (per-peer sums).
    pub fn merge_from(&mut self, other: &TrafficCounters) {
        for (k, v) in &other.pos_sent {
            *self.pos_sent.entry(*k).or_default() += v;
        }
        for (k, v) in &other.frc_sent {
            *self.frc_sent.entry(*k).or_default() += v;
        }
        for (k, v) in &other.pos_recv {
            *self.pos_recv.entry(*k).or_default() += v;
        }
        self.frc_recv += other.frc_recv;
        self.frc_recv_remote += other.frc_recv_remote;
        for (k, v) in &other.mig_sent {
            *self.mig_sent.entry(*k).or_default() += v;
        }
    }
}

fasda_ckpt::persist_struct!(TrafficCounters {
    pos_sent,
    frc_sent,
    pos_recv,
    frc_recv,
    frc_recv_remote,
    mig_sent,
});

/// [`TrafficCounters`] as the chip keeps them: flat arrays indexed by
/// `send_chips` / `recv_chips` position (a flit is counted with an add,
/// not a hash), folded into the report type on read.
#[derive(Clone, Debug, Default)]
struct PeerTraffic {
    pos_sent: Vec<u64>,
    frc_sent: Vec<u64>,
    pos_recv: Vec<u64>,
    frc_recv: u64,
    frc_recv_remote: u64,
    mig_sent: HashMap<ChipCoord, u64>,
}

/// SPEs per CBB — rings per class — the configuration admits
/// ([`ChipConfig::validate`]).
const MAX_SPES: usize = 8;

/// A set of the chip's PEs (bit `p` = PE `p`), as many words as the chip
/// has PEs: variants B and C put 81 and 162 on a 27-cell chip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PeSet(Vec<u64>);

impl PeSet {
    fn new(pes: usize) -> Self {
        PeSet(vec![0; pes.div_ceil(64)])
    }

    #[inline]
    fn insert(&mut self, p: usize) {
        self.0[p >> 6] |= 1 << (p & 63);
    }

    #[inline]
    fn remove(&mut self, p: usize) {
        self.0[p >> 6] &= !(1 << (p & 63));
    }

    #[inline]
    fn contains(&self, p: usize) -> bool {
        has(&self.0, p)
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// PE sets by cycle: slot `t & mask` holds the PEs with an event at cycle
/// `t`, as `words` words of bits, all slots in one flat array. A stage
/// that takes its PEs from a wheel visits only those, and files each PE
/// again under its next event.
#[derive(Clone, Debug, Default)]
struct Wheel {
    bits: Vec<u64>,
    words: usize,
    mask: usize,
}

impl Wheel {
    /// A wheel for events up to `span` cycles ahead.
    fn new(span: usize, pes: usize) -> Self {
        let n = (span + 1).next_power_of_two();
        let words = pes.div_ceil(64);
        Wheel {
            bits: vec![0; n * words],
            words,
            mask: n - 1,
        }
    }

    /// File PE `p` under cycle `t`.
    #[inline]
    fn file(&mut self, t: Cycle, p: usize) {
        self.bits[(t as usize & self.mask) * self.words + (p >> 6)] |= 1 << (p & 63);
    }

    /// The PEs filed under cycle `t`.
    #[inline]
    fn at(&self, t: Cycle) -> &[u64] {
        let at = (t as usize & self.mask) * self.words;
        &self.bits[at..at + self.words]
    }

    #[inline]
    fn clear_at(&mut self, t: Cycle) {
        let at = (t as usize & self.mask) * self.words;
        self.bits[at..at + self.words].fill(0);
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// True when word list `set` has bit `p`.
#[inline]
fn has(set: &[u64], p: usize) -> bool {
    set[p >> 6] & 1 << (p & 63) != 0
}

/// Run `$body` for each PE `$p` of the word list `$set`, ascending — or,
/// on the serial oracle's exhaustive walk, for each of the `$n` PEs. A
/// word is read when the visit reaches it, which is sound because a
/// stage edits no set ahead of its own visit.
macro_rules! visit_pes {
    ($exhaustive:expr, $set:expr, $n:expr, |$p:ident| $body:block) => {
        for w in 0..$n.div_ceil(64) {
            let mut bits = if $exhaustive { low_bits($n - (w << 6)) } else { $set[w] };
            while bits != 0 {
                let $p = w << 6 | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                $body
            }
        }
    };
}

/// The summaries of chip state the force tick visits its work by, and the
/// idle / activity predicates read instead of scanning. Each is a pure
/// function of the state it summarises ([`TimedChip::derive_masks`]); the
/// tick maintains them incrementally, the serial oracle's exhaustive walk
/// asserts each skip they imply, and debug builds of it re-derive and
/// compare them whole every cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TickMasks {
    /// Per ring: CBBs whose SPE holds entries awaiting dispatch.
    spe_work: [u64; MAX_SPES],
    /// Per ring: CBBs whose SPE has a PE with a free station.
    spe_open: [u64; MAX_SPES],
    /// PEs holding work (a station or a pipeline entry).
    pe_busy: PeSet,
    /// PEs with a buffered pair (the arbiter stage's set).
    pe_arb: PeSet,
    /// PEs with a drained station (the eject stage's set).
    pe_eject: PeSet,
    /// Per ring: CBBs with broadcasts awaiting injection.
    bcast_pending: [u64; MAX_SPES],
    /// Per ring: CBBs with force flits awaiting injection.
    frc_pending: [u64; MAX_SPES],
    /// Position-ring flits still carrying remote destinations.
    pos_remote_on_ring: u32,
    /// (dispatched, ejected) sums over the CBBs.
    pe_totals: (u64, u64),
}

/// `recv_index` entry of a chip that is not a receive peer.
const NO_PEER: u8 = u8::MAX;

/// Indices of the set bits of `mask`, ascending.
#[inline]
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// [`set_bits`] of a ring-node mask.
#[inline]
fn node_bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The nodes a position flit stops at: its local destinations, and the
/// EX node `ex` while it has remote ones.
#[inline]
fn pos_stops(flit: &PosFlit, ex: usize) -> u128 {
    u128::from(flit.local_mask) | u128::from(flit.remote_mask != 0) << ex
}

/// The node a force flit stops at: its owner CBB on chip `chip`, else the
/// EX node `ex`.
#[inline]
fn frc_stop(flit: &FrcFlit, chip: ChipCoord, ex: usize) -> u128 {
    1u128 << if flit.owner_chip == chip { flit.owner_cbb as usize } else { ex }
}

/// Eq.-7 id of a chip over a node grid of extent `(_, gy, gz)`.
#[inline]
fn chip_id((gy, gz): (u32, u32), c: ChipCoord) -> usize {
    ((c.x * gy + c.y) * gz + c.z) as usize
}

/// Bits `0..n`.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The cycle-level model of one FASDA FPGA.
pub struct TimedChip {
    cfg: ChipConfig,
    geo: ChipGeometry,
    /// Shared with every chip of the same configuration.
    dp: Arc<ForceDatapath>,
    units: UnitSystem,
    dt_fs: f64,
    acc_over_mass: [f32; Element::COUNT],
    /// The CBBs, indexed by local cell ID.
    pub cbbs: Vec<TimedCbb>,
    /// Every PE of the chip, CBB by CBB and SPE by SPE: PE `j` of SPE `k`
    /// of CBB `c` is `(c · spes + k) · pes_per_spe + j`.
    pes: Vec<Pe>,
    /// CBB of each PE, and its home-cell length this force phase.
    pe_cbb: Vec<u16>,
    pe_home_len: Vec<u16>,
    pes_per_spe: usize,
    pos_rings: Vec<Ring<PosFlit>>,
    frc_rings: Vec<Ring<FrcFlit>>,
    mig_ring: Ring<MigFlit>,
    /// Current cycle (monotonic across phases and timesteps).
    pub cycle: Cycle,
    phase: Phase,
    /// Destination masks per CBB (all particles of a cell share them).
    local_masks: Vec<u64>,
    remote_masks: Vec<u32>,
    /// Peer chips this chip sends positions to; bit `b` of a remote mask
    /// refers to `send_chips[b]`.
    pub send_chips: Vec<ChipCoord>,
    /// Peer chips this chip receives positions from.
    pub recv_chips: Vec<ChipCoord>,
    // EX-node queues (multi-chip mode).
    pos_egress: VecDeque<(ChipCoord, PosFlit)>,
    frc_egress: VecDeque<(ChipCoord, FrcFlit)>,
    mig_egress: VecDeque<(ChipCoord, MigFlit)>,
    pos_ingress: VecDeque<PosFlit>,
    frc_ingress: VecDeque<FrcFlit>,
    mig_ingress: VecDeque<MigFlit>,
    /// Node-grid extent in y and z (for Eq.-7 chip ids).
    grid_yz: (u32, u32),
    /// `recv_chips` index of a peer chip, by its Eq.-7 id over the node
    /// grid (`NO_PEER` for chips this one receives nothing from): origin
    /// → counter-slot lookups are arithmetic, not hashing.
    recv_index: Vec<u8>,
    /// `recv_chips` indices in ascending coordinate order (the key order
    /// the checkpoint writes the outstanding-work map in).
    recv_sorted: Vec<u8>,
    /// Remote-origin neighbour evaluations ingested but not yet complete,
    /// per `recv_chips` index (chained-sync bookkeeping, §4.4).
    remote_pos_outstanding: Vec<i64>,
    /// Origins `remote_pos_outstanding` has an entry for — one that
    /// returned to 0 is still a checkpointed entry.
    outstanding_seen: u32,
    /// Force flits issued toward each remote origin (eject-time count);
    /// compared with EX-captured counts to detect full force drain.
    frc_issued_to: Vec<u64>,
    /// Local destination masks for remote source cells, by
    /// `(recv_chips index, owner CBB)`; 0 = not computed yet.
    halo_masks: Vec<u64>,
    // Ring activity counters (capacity = ring nodes).
    pr_stats: Vec<Activity>,
    fr_stats: Vec<Activity>,
    mu_ring_stats: Activity,
    migrations: u64,
    /// Last broadcast-injection cycle per (CBB, SPE), for the PC
    /// broadcast cooldown.
    last_bcast: Vec<Vec<u64>>,
    /// Effective broadcast cooldown for the current force phase.
    bcast_cooldown: u64,
    /// Traffic counters since the last stats reset, by peer index.
    traffic: PeerTraffic,
    /// `false` (the serial oracle) makes every force tick walk all CBBs
    /// and ring nodes and assert that whatever the masks below call idle
    /// was a no-op; `true` visits only what the masks name.
    fast_path: bool,
    /// What the force tick skips by (see [`TickMasks`]).
    masks: TickMasks,
    /// The retire stage's PEs by cycle: each PE with a pair in flight is
    /// filed once, under its oldest pair's retire cycle.
    retire_wheel: Wheel,
    /// The filter stage's PEs by cycle: a PE is filed under the cycle of
    /// every filter event it stamps (a parked station's start, each
    /// running station's next comparison that matters); one past the
    /// wheel's reach is filed at its far end and files itself again.
    filter_wheel: Wheel,
    /// Per ring: first cycle a pending broadcast is out of its cooldown
    /// (a lower bound; the injection scan it triggers re-derives it).
    bcast_due: [u64; MAX_SPES],
    /// More than one chip in the grid: the rings carry an EX node.
    multi: bool,
    /// Flight recorder for this node's event stream (off by default).
    trace: NodeRecorder,
    /// Global cluster cycle to stamp chip-emitted events with. The chip's
    /// own `cycle` counter only advances while the chip is ticked, so the
    /// cluster driver keeps this field synced to the global clock.
    trace_now: u64,
    /// Last observed (dispatched, ejected) CBB counter sums, for per-cycle
    /// `PeActivity` diffs.
    pe_prev: (u64, u64),
    /// First particle of this motion-update phase whose displacement left
    /// the `Q5.26` grid ([`TimedChip::take_motion_overflow`]).
    mu_overflow: Option<u32>,
}

/// What the chip's force-phase datapath is doing right now, as seen from
/// outside — the driver's stall-attribution probe for *ticked* chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForceActivity {
    /// At least one PE is evaluating pairs: the cycle is productive.
    PeBusy,
    /// PEs idle, but force/broadcast traffic is still draining through
    /// `frc_out`/`bcast` queues, the force rings, or the EX egress.
    OutputBackpressure,
    /// PEs idle with input work still in transit (position rings, EX
    /// ingress) — the filter banks are starved.
    InputStarved,
}


impl TimedChip {
    /// Build a chip for a block of the simulation space, with a datapath
    /// of its own.
    pub fn new(cfg: ChipConfig, geo: ChipGeometry, units: UnitSystem, dt_fs: f64) -> Self {
        let dp = ForceDatapath::for_chip(&cfg, units);
        Self::with_datapath(cfg, geo, units, dt_fs, dp)
    }

    /// Build a chip that reads `dp`, the datapath its sibling chips
    /// share. `dp` must be [`ForceDatapath::for_chip`]`(&cfg, units)`;
    /// debug builds check what of that the datapath records.
    pub fn with_datapath(
        cfg: ChipConfig,
        geo: ChipGeometry,
        units: UnitSystem,
        dt_fs: f64,
        dp: Arc<ForceDatapath>,
    ) -> Self {
        cfg.validate().expect("invalid chip config");
        debug_assert!(dp.built_for(&cfg), "datapath built for another chip config");
        let n = geo.num_cbbs();
        let multi = geo.num_chips() > 1;
        let nodes = n + usize::from(multi);
        let send_chips = geo.send_chips();
        let recv_chips = geo.recv_chips();
        assert!(
            send_chips.len() <= 32 && recv_chips.len() <= 32,
            "peer masks are u32: at most 32 peer chips each way"
        );
        assert!(n <= 64, "CBB masks are u64: at most 64 cells per chip");
        let grid = geo.grid();
        let mut recv_index = vec![NO_PEER; geo.num_chips() as usize];
        for (i, c) in recv_chips.iter().enumerate() {
            recv_index[chip_id((grid.1, grid.2), *c)] = i as u8;
        }
        let mut recv_sorted: Vec<u8> = (0..recv_chips.len() as u8).collect();
        recv_sorted.sort_by_key(|&i| recv_chips[i as usize]);

        // Destination masks per CBB.
        let mut local_masks = vec![0u64; n];
        let mut remote_masks = vec![0u32; n];
        for cbb in 0..n as u16 {
            for d in geo.halfshell_dests(cbb) {
                if d.chip == geo.chip {
                    local_masks[cbb as usize] |= 1 << d.cbb;
                } else {
                    let b = send_chips
                        .iter()
                        .position(|c| *c == d.chip)
                        .expect("dest chip in send list");
                    remote_masks[cbb as usize] |= 1 << b;
                }
            }
        }

        let mut acc_over_mass = [0.0f32; Element::COUNT];
        for e in Element::ALL {
            acc_over_mass[e.index()] = (units.acc_factor() / e.mass()) as f32;
        }

        let spes = cfg.spes_per_cbb as usize;
        let (n_send, n_recv) = (send_chips.len(), recv_chips.len());
        let pes_per_cbb = cfg.pes_per_cbb() as usize;
        let mut chip = TimedChip {
            dp,
            units,
            dt_fs,
            acc_over_mass,
            cbbs: (0..n as u16)
                .map(|i| TimedCbb::new(&cfg, geo.cbb_gcell(i)))
                .collect(),
            pes: (0..n * pes_per_cbb)
                .map(|_| Pe::new(cfg.hw.filters_per_pe, cfg.hw.force_pipe_latency, cfg.hw.pair_fifo_depth))
                .collect(),
            pe_cbb: (0..n * pes_per_cbb).map(|p| (p / pes_per_cbb) as u16).collect(),
            pe_home_len: vec![0; n * pes_per_cbb],
            pes_per_spe: cfg.pes_per_spe as usize,
            pos_rings: (0..spes)
                .map(|_| Ring::new(nodes, Direction::Clockwise))
                .collect(),
            frc_rings: (0..spes)
                .map(|_| Ring::new(nodes, Direction::CounterClockwise))
                .collect(),
            mig_ring: Ring::new(nodes, Direction::Clockwise),
            cycle: 0,
            phase: Phase::Idle,
            local_masks,
            remote_masks,
            send_chips,
            recv_chips,
            pos_egress: VecDeque::new(),
            frc_egress: VecDeque::new(),
            mig_egress: VecDeque::new(),
            pos_ingress: VecDeque::new(),
            frc_ingress: VecDeque::new(),
            mig_ingress: VecDeque::new(),
            remote_pos_outstanding: vec![0; n_recv],
            outstanding_seen: 0,
            frc_issued_to: vec![0; n_recv],
            halo_masks: vec![0; n_recv * n],
            grid_yz: (grid.1, grid.2),
            recv_index,
            recv_sorted,
            pr_stats: vec![Activity::with_capacity(nodes as u64); spes],
            fr_stats: vec![Activity::with_capacity(nodes as u64); spes],
            mu_ring_stats: Activity::with_capacity(nodes as u64),
            migrations: 0,
            last_bcast: vec![vec![0; spes]; n],
            bcast_cooldown: 0,
            traffic: PeerTraffic {
                pos_sent: vec![0; n_send],
                frc_sent: vec![0; n_recv],
                pos_recv: vec![0; n_recv],
                ..PeerTraffic::default()
            },
            fast_path: false,
            masks: TickMasks::default(),
            retire_wheel: Wheel::new(cfg.hw.force_pipe_latency as usize, n * pes_per_cbb),
            filter_wheel: Wheel::new(pe::FILTER_REACH as usize, n * pes_per_cbb),
            bcast_due: [0; MAX_SPES],
            multi,
            trace: NodeRecorder::off(),
            trace_now: 0,
            pe_prev: (0, 0),
            mu_overflow: None,
            cfg,
            geo,
        };
        chip.rebuild_masks();
        chip
    }

    /// A stand-in that holds this chip's place in a node vector while the
    /// chip itself is lent elsewhere: same configuration, geometry and
    /// shared datapath, but no cells or PEs and only a two-node migration
    /// ring, so it costs three small allocations. It must never be
    /// ticked, loaded or snapshotted — it only keeps a slot until the real
    /// chip is swapped back.
    pub fn hollow(&self) -> Self {
        TimedChip {
            cfg: self.cfg,
            geo: self.geo,
            dp: self.dp.clone(),
            units: self.units,
            dt_fs: self.dt_fs,
            acc_over_mass: self.acc_over_mass,
            cbbs: Vec::new(),
            pes: Vec::new(),
            pe_cbb: Vec::new(),
            pe_home_len: Vec::new(),
            pes_per_spe: self.pes_per_spe,
            pos_rings: Vec::new(),
            frc_rings: Vec::new(),
            mig_ring: Ring::new(2, Direction::Clockwise),
            cycle: 0,
            phase: Phase::Idle,
            local_masks: Vec::new(),
            remote_masks: Vec::new(),
            send_chips: Vec::new(),
            recv_chips: Vec::new(),
            pos_egress: VecDeque::new(),
            frc_egress: VecDeque::new(),
            mig_egress: VecDeque::new(),
            pos_ingress: VecDeque::new(),
            frc_ingress: VecDeque::new(),
            mig_ingress: VecDeque::new(),
            grid_yz: self.grid_yz,
            recv_index: Vec::new(),
            recv_sorted: Vec::new(),
            remote_pos_outstanding: Vec::new(),
            outstanding_seen: 0,
            frc_issued_to: Vec::new(),
            halo_masks: Vec::new(),
            pr_stats: Vec::new(),
            fr_stats: Vec::new(),
            mu_ring_stats: Activity::with_capacity(0),
            migrations: 0,
            last_bcast: Vec::new(),
            bcast_cooldown: 0,
            traffic: PeerTraffic::default(),
            fast_path: false,
            masks: TickMasks::default(),
            retire_wheel: Wheel::default(),
            filter_wheel: Wheel::default(),
            bcast_due: [0; MAX_SPES],
            multi: self.multi,
            trace: NodeRecorder::off(),
            trace_now: 0,
            pe_prev: (0, 0),
            mu_overflow: None,
        }
    }

    /// The particle whose motion update overflowed the `Q5.26` offset
    /// grid since the last call, if one did: its position is not moved,
    /// and the run it belongs to must fail rather than go on with it.
    pub fn take_motion_overflow(&mut self) -> Option<u32> {
        self.mu_overflow.take()
    }

    /// Every PE of the chip (see the `pes` field for the order).
    pub fn pes(&self) -> &[Pe] {
        &self.pes
    }

    /// Chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Chip geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geo
    }

    /// The datapath this chip shares with its siblings.
    pub fn datapath(&self) -> &ForceDatapath {
        &self.dp
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// EX-node index on the rings (only meaningful multi-chip).
    fn ex_node(&self) -> usize {
        self.cbbs.len()
    }

    /// Load this chip's share of a particle system (the cells inside its
    /// block).
    pub fn load(&mut self, sys: &ParticleSystem) {
        self.load_indices(sys, 0..sys.len());
    }

    /// Load the particles of `sys` that `indices` names, in that order.
    /// A cluster bins the system once and hands each chip its own
    /// ascending list, which pushes every CBB's particles in the order a
    /// full [`TimedChip::load`] scan does. Only that scan names particles
    /// outside this chip's block; they are skipped.
    pub fn load_indices(&mut self, sys: &ParticleSystem, indices: impl IntoIterator<Item = usize>) {
        assert_eq!(sys.space, self.geo.global, "system/geometry mismatch");
        for cbb in &mut self.cbbs {
            cbb.clear_particles();
        }
        for i in indices {
            let (cc, offset) = crate::functional::bin_position(&sys.space, sys.pos[i]);
            let Some(cbb_idx) = self.geo.cbb_of_gcell(cc) else {
                continue;
            };
            let v = sys.vel[i];
            self.cbbs[cbb_idx as usize].push_particle(
                sys.id[i],
                sys.element[i],
                offset,
                [v.x as f32, v.y as f32, v.z as f32],
            );
        }
    }

    /// Install (or disable) the flight recorder on this chip. Resets the
    /// recorder and re-bases the `PeActivity` diff counters.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace = NodeRecorder::new(cfg);
        self.trace_now = 0;
        self.pe_prev = self.masks.pe_totals;
    }

    /// Sync the global-cycle stamp used for chip-emitted events. The
    /// cluster driver calls this before every tick: the chip's own
    /// `cycle` counter only advances while the chip runs, so it diverges
    /// from the global clock on skipped cycles.
    #[inline]
    pub fn set_trace_now(&mut self, cycle: u64) {
        self.trace_now = cycle;
    }

    /// The chip's recorder (the driver appends its per-node events here
    /// so each node has exactly one ordered stream).
    pub fn trace_mut(&mut self) -> &mut NodeRecorder {
        &mut self.trace
    }

    /// Drain the captured event stream.
    pub fn take_trace(&mut self) -> NodeStream {
        self.trace.take()
    }

    /// Classify what the force-phase datapath is doing (stall-attribution
    /// probe; see [`ForceActivity`]). Meaningful right after a force tick.
    pub fn force_activity(&self) -> ForceActivity {
        if !self.masks.pe_busy.is_empty() {
            return ForceActivity::PeBusy;
        }
        let output_live = self.masks.frc_pending.iter().chain(&self.masks.bcast_pending).any(|&m| m != 0)
            || self.frc_rings.iter().any(|r| !r.is_empty())
            || !self.frc_egress.is_empty()
            || !self.pos_egress.is_empty();
        if output_live {
            ForceActivity::OutputBackpressure
        } else {
            ForceActivity::InputStarved
        }
    }

    /// Choose how a force tick finds its work. On (the fast engine): it
    /// visits only the CBBs, ring nodes and queues its masks and counters
    /// name. Off (the default, the serial oracle): it walks every CBB and
    /// ring node exactly as the hardware clocks them, and asserts that
    /// each one the masks would have skipped was a no-op — so every
    /// oracle run checks the fast engine's skip predicates. Bit-identical
    /// either way.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Enable/disable the SoA scan path on every CBB (see
    /// [`TimedCbb::set_soa_scan`]). Bit-identical to the scalar path.
    pub fn set_soa_scan(&mut self, on: bool) {
        for cbb in &mut self.cbbs {
            cbb.set_soa_scan(on);
        }
    }

    /// Total particles on this chip.
    pub fn num_particles(&self) -> usize {
        self.cbbs.iter().map(TimedCbb::len).sum()
    }

    /// Write this chip's particles back into `sys` by stable ID.
    pub fn store_into(&self, sys: &mut ParticleSystem) {
        for cbb in &self.cbbs {
            let base = Vec3::new(
                cbb.gcell.x as f64,
                cbb.gcell.y as f64,
                cbb.gcell.z as f64,
            );
            for i in 0..cbb.len() {
                let idx = cbb.id[i] as usize;
                let [ox, oy, oz] = cbb.offset[i].to_f64();
                sys.pos[idx] = base + Vec3::new(ox, oy, oz);
                sys.vel[idx] = Vec3::new(
                    cbb.vel[i][0] as f64,
                    cbb.vel[i][1] as f64,
                    cbb.vel[i][2] as f64,
                );
                sys.force[idx] = Vec3::new(
                    cbb.force[i][0].to_f64(),
                    cbb.force[i][1].to_f64(),
                    cbb.force[i][2].to_f64(),
                );
                sys.element[idx] = cbb.elem[i];
            }
        }
    }

    /// Reset all utilization and traffic counters (start of a measurement
    /// window).
    pub fn reset_stats(&mut self) {
        let nodes = (self.cbbs.len() + usize::from(self.geo.num_chips() > 1)) as u64;
        for a in self.pr_stats.iter_mut().chain(self.fr_stats.iter_mut()) {
            *a = Activity::with_capacity(nodes);
        }
        self.mu_ring_stats = Activity::with_capacity(nodes);
        for cbb in &mut self.cbbs {
            cbb.mu_stats = Activity::with_capacity(1);
        }
        for pe in &mut self.pes {
            pe.reset_stats(self.cycle);
        }
        self.migrations = 0;
        self.traffic.pos_sent.fill(0);
        self.traffic.frc_sent.fill(0);
        self.traffic.pos_recv.fill(0);
        self.traffic.frc_recv = 0;
        self.traffic.frc_recv_remote = 0;
        self.traffic.mig_sent.clear();
        self.frc_issued_to.fill(0);
    }

    /// Traffic counters since the last stats reset. A peer appears in a
    /// map once it has been counted at least once.
    pub fn traffic(&self) -> TrafficCounters {
        let per_peer = |peers: &[ChipCoord], counts: &[u64]| {
            peers
                .iter()
                .zip(counts)
                .filter(|(_, &n)| n > 0)
                .map(|(c, &n)| (*c, n))
                .collect()
        };
        TrafficCounters {
            pos_sent: per_peer(&self.send_chips, &self.traffic.pos_sent),
            frc_sent: per_peer(&self.recv_chips, &self.traffic.frc_sent),
            pos_recv: per_peer(&self.recv_chips, &self.traffic.pos_recv),
            frc_recv: self.traffic.frc_recv,
            frc_recv_remote: self.traffic.frc_recv_remote,
            mig_sent: self.traffic.mig_sent.clone(),
        }
    }

    /// `recv_chips` index of a chip this one receives positions from.
    #[inline]
    fn recv_idx(&self, origin: ChipCoord) -> usize {
        let i = self.recv_index[chip_id(self.grid_yz, origin)];
        debug_assert!(i != NO_PEER, "{origin:?} is not a receive peer");
        i as usize
    }

    /// Begin the force-evaluation phase.
    pub fn begin_force_phase(&mut self) {
        assert!(self.phase != Phase::Force, "already in force phase");
        self.phase = Phase::Force;
        for i in 0..self.cbbs.len() {
            let (lm, rm) = (self.local_masks[i], self.remote_masks[i]);
            self.cbbs[i].begin_force_phase(self.geo.chip, i as u16, lm, rm);
        }
        self.bcast_cooldown = if self.cfg.hw.bcast_cooldown > 0 {
            self.cfg.hw.bcast_cooldown as u64
        } else {
            // Auto: pace the PC to the rate its 13 receivers retire
            // positions (scan + pipeline-drain over the SPE filter bank).
            let total: usize = self.cbbs.iter().map(TimedCbb::len).sum();
            let avg_home = (total / self.cbbs.len().max(1)).max(1) as u64;
            let filters_per_spe =
                (self.cfg.hw.filters_per_pe * self.cfg.pes_per_spe) as u64;
            (13 * (avg_home + self.cfg.hw.force_pipe_latency as u64) / filters_per_spe).max(1)
        };
        for row in &mut self.last_bcast {
            row.iter_mut().for_each(|c| *c = 0);
        }
        self.rebuild_masks();
    }

    /// The tick's masks and counters, computed from the state they
    /// summarise.
    fn derive_masks(&self) -> TickMasks {
        let n = self.pes.len();
        let mut m = TickMasks {
            pe_busy: PeSet::new(n),
            pe_arb: PeSet::new(n),
            pe_eject: PeSet::new(n),
            ..TickMasks::default()
        };
        for (i, cbb) in self.cbbs.iter().enumerate() {
            for (k, spe) in cbb.spes.iter().enumerate() {
                m.spe_work[k] |= u64::from(spe.has_entries()) << i;
                m.spe_open[k] |= u64::from(spe.pe_free != 0) << i;
                m.bcast_pending[k] |= u64::from(!spe.bcast.is_empty()) << i;
                m.frc_pending[k] |= u64::from(!spe.frc_out.is_empty()) << i;
            }
            m.pe_totals.0 += cbb.dispatched;
            m.pe_totals.1 += cbb.ejected;
        }
        for (p, pe) in self.pes.iter().enumerate() {
            if !pe.is_idle() {
                m.pe_busy.insert(p);
            }
            if pe.has_buffered_pairs() {
                m.pe_arb.insert(p);
            }
            if pe.has_drained() {
                m.pe_eject.insert(p);
            }
        }
        for ring in &self.pos_rings {
            for node in 0..ring.len() {
                m.pos_remote_on_ring += u32::from(ring.at(node).is_some_and(|f| f.remote_mask != 0));
            }
        }
        m
    }

    /// (Re)build the tick's masks and re-file every ring flit under its
    /// next stop (phase start, restore).
    fn rebuild_masks(&mut self) {
        self.masks = self.derive_masks();
        for (len, &c) in self.pe_home_len.iter_mut().zip(&self.pe_cbb) {
            *len = self.cbbs[c as usize].len() as u16;
        }
        self.bcast_due = [0; MAX_SPES];
        self.retire_wheel.clear();
        self.filter_wheel.clear();
        for (p, pe) in self.pes.iter().enumerate() {
            if let Some(t) = pe.retire_at() {
                self.retire_wheel.file(t, p);
            }
            if pe.filter_live() {
                self.filter_wheel.file(self.cycle, p);
            }
        }
        let (chip, ex) = (self.geo.chip, self.ex_node());
        for ring in &mut self.pos_rings {
            for node in node_bits(ring.occupied_nodes()) {
                let stops = ring.at(node).map_or(0, |f| pos_stops(f, ex));
                ring.schedule(node, stops);
            }
        }
        for ring in &mut self.frc_rings {
            for node in node_bits(ring.occupied_nodes()) {
                let stop = ring.at(node).map_or(0, |f| frc_stop(f, chip, ex));
                ring.schedule(node, stop);
            }
        }
    }

    /// One force-phase cycle.
    pub fn step_force_cycle(&mut self) {
        if self.fast_path {
            self.force_tick::<false>();
        } else {
            self.force_tick::<true>();
        }
    }

    /// The force tick. Work per cycle follows *events*: ring delivery
    /// visits only the nodes where a flit is at one of its stops, the
    /// dispatchers and PEs run one loop per stage over the chip — each
    /// visiting only the SPEs or PEs its set names — injection visits
    /// only queues with something to inject (broadcasts only once the
    /// earliest cooldown has run out), and ring activity is read from
    /// counters. With `EXHAUSTIVE` every ring node, SPE and PE is visited
    /// instead and each one outside the sets is asserted to be a no-op
    /// (debug builds also re-derive the sets whole).
    fn force_tick<const EXHAUSTIVE: bool>(&mut self) {
        debug_assert_eq!(self.phase, Phase::Force);
        let multi = self.multi;
        let ex = self.ex_node();
        let all = low_bits(self.cbbs.len());
        let nodes = u128::MAX >> (128 - self.cbbs.len() - usize::from(multi));
        let chip = self.geo.chip;
        let cycle = self.cycle;

        // 1. Rotate rings, recording activity.
        for k in 0..self.pos_rings.len() {
            let occ = self.pos_rings[k].occupancy() as u64;
            self.pr_stats[k].record(occ, occ > 0);
            self.pos_rings[k].rotate();
            let occ = self.frc_rings[k].occupancy() as u64;
            self.fr_stats[k].record(occ, occ > 0);
            self.frc_rings[k].rotate();
        }

        // 2. Ring-node processing at the nodes where a flit is due.
        for k in 0..self.pos_rings.len() {
            // Position ring: PRN delivery at CBB nodes, EX capture of
            // remote-destined positions.
            let due = self.pos_rings[k].due_nodes();
            for node in node_bits(if EXHAUSTIVE { nodes } else { due }) {
                let bit = 1u128 << node;
                let Some(flit) = self.pos_rings[k].at(node) else {
                    assert!(due & bit == 0, "a stop filed for an empty node");
                    continue;
                };
                let stops = pos_stops(flit, ex);
                if due & bit == 0 {
                    assert!(EXHAUSTIVE && stops & bit == 0, "a flit passed a stop it was not filed for");
                    continue;
                }
                assert!(stops & bit != 0, "a flit filed for a node it does not stop at");
                if multi && node == ex {
                    let mask = flit.remote_mask;
                    let flit = *self.pos_rings[k]
                        .update(ex, |f| f.remote_mask = 0)
                        .expect("probed above");
                    self.settle_flit_pos(k, ex, &flit);
                    self.masks.pos_remote_on_ring -= 1;
                    for b in set_bits(u64::from(mask)) {
                        self.traffic.pos_sent[b] += 1;
                        self.pos_egress.push_back((self.send_chips[b], flit));
                    }
                    continue;
                }
                let spe = &mut self.cbbs[node].spes[k];
                if spe.pos_in.is_full() {
                    // It keeps rotating and retries next lap.
                    self.pos_rings[k].schedule(node, stops);
                    continue;
                }
                let cbit = 1u64 << node;
                let flit = *self.pos_rings[k]
                    .update(node, |f| f.local_mask &= !cbit)
                    .expect("probed above");
                self.settle_flit_pos(k, node, &flit);
                let rcid = self.geo.rcid(flit.src_gcell, self.cbbs[node].gcell);
                let entry = NbrEntry {
                    concat: ForceDatapath::concat(rcid, flit.offset),
                    elem: flit.elem,
                    scan_from: 0,
                    kind: NbrKind::Ring {
                        owner_chip: flit.owner_chip,
                        owner_cbb: flit.owner_cbb,
                        slot: flit.slot,
                        remote: flit.owner_chip != chip,
                    },
                };
                self.cbbs[node].spes[k]
                    .pos_in
                    .push(entry).expect("room checked");
                self.masks.spe_work[k] |= cbit;
            }

            // Force ring: owner delivery, EX capture of remote-owned.
            let due = self.frc_rings[k].due_nodes();
            for node in node_bits(if EXHAUSTIVE { nodes } else { due }) {
                let bit = 1u128 << node;
                let Some(flit) = self.frc_rings[k].at(node) else {
                    assert!(due & bit == 0, "a stop filed for an empty node");
                    continue;
                };
                let stop = frc_stop(flit, chip, ex);
                if due & bit == 0 {
                    assert!(EXHAUSTIVE && stop & bit == 0, "a flit passed a stop it was not filed for");
                    continue;
                }
                assert!(stop & bit != 0, "a flit filed for a node it does not stop at");
                let flit = self.frc_rings[k].take(node).expect("probed above");
                if multi && node == ex {
                    let origin = self.recv_idx(flit.owner_chip);
                    self.traffic.frc_sent[origin] += 1;
                    self.frc_egress.push_back((flit.owner_chip, flit));
                } else {
                    self.cbbs[node].accumulate_ring_force(&flit);
                    self.traffic.frc_recv += 1;
                }
            }
        }

        // 3. The CBBs' dispatchers and PEs: one loop per stage over the
        //    chip, each visiting the SPEs or PEs its set names. Within a
        //    PE the stages keep the hardware's order (retire, arbitrate,
        //    filter, eject); across PEs and CBBs nothing is shared but
        //    order-free sums and each SPE's FRN port, whose PEs the eject
        //    loop visits in ascending order.
        let dp = &*self.dp;
        let (spes, pps, n) = (self.pos_rings.len(), self.pes_per_spe, self.pes.len());

        // 3a. Dispatch one entry per SPE with work to a free station.
        for k in 0..spes {
            let ready = self.masks.spe_work[k] & self.masks.spe_open[k];
            for c in set_bits(if EXHAUSTIVE { all } else { ready }) {
                let bit = 1u64 << c;
                let cbb = &mut self.cbbs[c];
                let spe = &mut cbb.spes[k];
                if EXHAUSTIVE {
                    assert!(
                        (spe.has_entries() && spe.pe_free != 0) == (ready & bit != 0),
                        "spe_work / spe_open disagree with the SPE"
                    );
                    if ready & bit == 0 {
                        continue;
                    }
                }
                let j = spe.pick_pe(pps);
                let entry = spe.next_entry(&cbb.elem, &cbb.home_concat);
                if !spe.has_entries() {
                    self.masks.spe_work[k] &= !bit;
                }
                let p = (c * spes + k) * pps + j;
                let pe = &mut self.pes[p];
                if cbb.soa_scan {
                    pe.dispatch_planned(cycle, entry, dp, &cbb.soa);
                } else {
                    pe.dispatch(cycle, entry);
                }
                if !pe.has_free_station() {
                    spe.pe_free &= !(1 << j);
                    if spe.pe_free == 0 {
                        self.masks.spe_open[k] &= !bit;
                    }
                }
                cbb.dispatched += 1;
                self.masks.pe_totals.0 += 1;
                self.masks.pe_busy.insert(p);
                self.filter_wheel.file(cycle, p);
            }
        }

        // 3b. Retire: home force straight into the FC.
        visit_pes!(EXHAUSTIVE, self.retire_wheel.at(cycle), n, |p| {
            let pe = &mut self.pes[p];
            if EXHAUSTIVE {
                let filed = has(self.retire_wheel.at(cycle), p);
                assert!(filed == pe.retire_due(cycle), "the retire wheel disagrees with a PE's pipeline");
                if !filed {
                    continue;
                }
            }
            let fc = &mut self.cbbs[self.pe_cbb[p] as usize].force;
            pe.retire(cycle, |slot, f| TimedCbb::add_force(fc, slot, f));
            match pe.retire_at() {
                Some(t) => self.retire_wheel.file(t, p),
                None if pe.is_idle() => self.masks.pe_busy.remove(p),
                None => {}
            }
            if pe.has_drained() {
                self.masks.pe_eject.insert(p);
            }
        });
        self.retire_wheel.clear_at(cycle);

        // 3c. Arbitrate one buffered pair into each pipeline.
        visit_pes!(EXHAUSTIVE, self.masks.pe_arb.0, n, |p| {
            let pe = &mut self.pes[p];
            if EXHAUSTIVE {
                let member = self.masks.pe_arb.contains(p);
                assert!(member == pe.has_buffered_pairs(), "the arbiter set disagrees with a PE's FIFOs");
                if !member {
                    continue;
                }
            }
            let was_empty = !pe.pipe_busy();
            let restarted = pe.arbitrate(cycle, self.pe_home_len[p]);
            if was_empty {
                self.retire_wheel.file(cycle + u64::from(self.cfg.hw.force_pipe_latency), p);
            }
            if !pe.has_buffered_pairs() {
                self.masks.pe_arb.remove(p);
            }
            if pe.has_drained() {
                self.masks.pe_eject.insert(p);
            }
            if let Some(ahead) = restarted {
                self.filter_wheel.file(cycle + u64::from(ahead), p);
            }
        });

        // 3d. Filter: compare what is due (and start what is parked).
        let now = cycle as u16;
        visit_pes!(EXHAUSTIVE, self.filter_wheel.at(cycle), n, |p| {
            let pe = &mut self.pes[p];
            if EXHAUSTIVE && !has(self.filter_wheel.at(cycle), p) {
                assert!(!pe.filter_due(now), "the filter wheel misses a PE");
                continue;
            }
            let cbb = &self.cbbs[self.pe_cbb[p] as usize];
            let wheel = &mut self.filter_wheel;
            pe.filter(cycle, dp, &cbb.elem, &cbb.home_concat, |ahead| wheel.file(cycle + u64::from(ahead), p));
            if pe.has_buffered_pairs() {
                self.masks.pe_arb.insert(p);
            }
            if pe.has_drained() {
                self.masks.pe_eject.insert(p);
            }
        });
        self.filter_wheel.clear_at(cycle);

        // 3e. Eject at most one drained station per PE, straight into
        //    the FRN queue, the FC or the sync ledger. Each SPE's FRN
        //    port takes one ring ejection per cycle: its budget is set at
        //    its first PE the loop visits.
        let (mut budget_of, mut budget) = (usize::MAX, 0);
        visit_pes!(EXHAUSTIVE, self.masks.pe_eject.0, n, |p| {
            let pe = &mut self.pes[p];
            if EXHAUSTIVE {
                let member = self.masks.pe_eject.contains(p);
                assert!(member == pe.has_drained(), "the eject set disagrees with a PE's stations");
                if !member {
                    continue;
                }
            }
            let (q, j) = (p / pps, p % pps);
            let (c, k) = (q / spes, q % spes);
            let cbb = &mut self.cbbs[c];
            if q != budget_of {
                budget_of = q;
                budget = u32::from(!cbb.spes[k].frc_out.is_full());
            }
            let Some(ej) = pe.eject(cycle, &mut budget) else {
                continue;
            };
            cbb.spes[k].pe_free |= 1 << j;
            self.masks.spe_open[k] |= 1 << c;
            if !pe.has_drained() {
                self.masks.pe_eject.remove(p);
            }
            if pe.is_idle() {
                self.masks.pe_busy.remove(p);
            }
            cbb.ejected += 1;
            self.masks.pe_totals.1 += 1;
            // A remote-origin evaluation is complete: chained-sync
            // bookkeeping (§4.4), with whether a force flit went back.
            let mut completed = |origin: ChipCoord, issued: bool| {
                let i = self.recv_index[chip_id(self.grid_yz, origin)];
                debug_assert!(i != NO_PEER, "{origin:?} is not a receive peer");
                let i = i as usize;
                self.remote_pos_outstanding[i] -= 1;
                self.outstanding_seen |= 1 << i;
                self.frc_issued_to[i] += u64::from(issued);
            };
            match ej {
                Ejection::Ring(flit, remote) => {
                    cbb.spes[k]
                        .frc_out
                        .push(flit).expect("budget guaranteed frc_out space");
                    self.masks.frc_pending[k] |= 1 << c;
                    if remote {
                        completed(flit.owner_chip, true);
                    }
                }
                Ejection::Local { slot, force } => TimedCbb::add_force(&mut cbb.force, slot, force),
                Ejection::Discard { origin, remote } => {
                    if remote {
                        completed(origin, false);
                    }
                }
            }
        });

        // 4. Injections.
        for k in 0..self.pos_rings.len() {
            // Broadcasts, metered by the per-cell cooldown: nothing can
            // inject before the earliest pending one has cooled.
            let scan = self.masks.bcast_pending[k] != 0 && self.cycle >= self.bcast_due[k];
            let visit = match (EXHAUSTIVE, scan) {
                (true, _) => all,
                (false, true) => self.masks.bcast_pending[k],
                (false, false) => 0,
            };
            let mut due = u64::MAX;
            for i in set_bits(visit) {
                let bit = 1u64 << i;
                let spe = &mut self.cbbs[i].spes[k];
                let last = &mut self.last_bcast[i][k];
                let cooled = self.cycle >= *last + self.bcast_cooldown || *last == 0;
                if cooled {
                    if let Some(flit) = spe.bcast.front().copied() {
                        assert!(
                            !EXHAUSTIVE || scan && self.masks.bcast_pending[k] & bit != 0,
                            "broadcast scan would have skipped a ready cell"
                        );
                        if self.pos_rings[k].inject(i, flit).is_ok() {
                            self.pos_rings[k].schedule(i, pos_stops(&flit, ex));
                            spe.bcast.pop_front();
                            *last = self.cycle.max(1);
                            self.masks.pos_remote_on_ring += u32::from(flit.remote_mask != 0);
                            if spe.bcast.is_empty() {
                                self.masks.bcast_pending[k] &= !bit;
                            }
                        }
                    }
                }
                if !spe.bcast.is_empty() {
                    due = due.min(if *last == 0 { 0 } else { *last + self.bcast_cooldown });
                }
            }
            if scan {
                self.bcast_due[k] = due;
            }
            // Force flits: retried every cycle until their node is free.
            for i in set_bits(if EXHAUSTIVE { all } else { self.masks.frc_pending[k] }) {
                let bit = 1u64 << i;
                let spe = &mut self.cbbs[i].spes[k];
                let Some(&flit) = spe.frc_out.peek() else {
                    assert!(EXHAUSTIVE && self.masks.frc_pending[k] & bit == 0, "frc_pending names an empty queue");
                    continue;
                };
                assert!(!EXHAUSTIVE || self.masks.frc_pending[k] & bit != 0, "frc_pending misses a queued flit");
                if self.frc_rings[k].inject(i, flit).is_ok() {
                    self.frc_rings[k].schedule(i, frc_stop(&flit, chip, ex));
                    spe.frc_out.pop();
                    if spe.frc_out.is_empty() {
                        self.masks.frc_pending[k] &= !bit;
                    }
                }
            }
            if multi {
                // EX ingress: one flit per ring per cycle, ring chosen by
                // slot parity (the PC0/PC1 interleave of §4.6).
                let rings = self.pos_rings.len();
                let ring_of = |slot: u16| if rings == 1 { 0 } else { slot as usize % rings };
                if let Some(pos) = self.pos_ingress.front() {
                    if ring_of(pos.slot) == k {
                        let flit = *pos;
                        if self.pos_rings[k].inject(ex, flit).is_ok() {
                            self.pos_rings[k].schedule(ex, pos_stops(&flit, ex));
                            self.pos_ingress.pop_front();
                        }
                    }
                }
                if let Some(frc) = self.frc_ingress.front() {
                    if ring_of(frc.slot) == k {
                        let flit = *frc;
                        if self.frc_rings[k].inject(ex, flit).is_ok() {
                            self.frc_rings[k].schedule(ex, frc_stop(&flit, chip, ex));
                            self.frc_ingress.pop_front();
                        }
                    }
                }
            }
        }

        if self.trace.wants(TraceLevel::Full) {
            let (dispatched, ejected) = self.masks.pe_totals;
            let (pd, pj) = self.pe_prev;
            if dispatched != pd || ejected != pj {
                self.trace.push(
                    self.trace_now,
                    EventKind::PeActivity {
                        dispatched: (dispatched - pd) as u32,
                        ejected: (ejected - pj) as u32,
                    },
                );
                self.pe_prev = (dispatched, ejected);
            }
        }
        if EXHAUSTIVE {
            // The walk above asserted each skip decision; debug builds
            // (every `cargo test` run of the oracle) also re-derive the
            // summaries whole.
            debug_assert_eq!(self.masks, self.derive_masks(), "tick masks drifted from their state");
        }

        self.cycle += 1;
    }

    /// After a delivery or capture edited the position flit at `node` of
    /// ring `k` (now `flit`): drop it if no destination is left, else file
    /// it under its next stop.
    #[inline]
    fn settle_flit_pos(&mut self, k: usize, node: usize, flit: &PosFlit) {
        if flit.exhausted() {
            self.pos_rings[k].take(node);
        } else {
            let stops = pos_stops(flit, self.ex_node());
            self.pos_rings[k].schedule(node, stops);
        }
    }

    /// True when this chip has no local force-phase work left. In
    /// multi-chip mode remote work may still arrive; the cluster combines
    /// this with the chained-synchronization handshakes.
    pub fn force_phase_local_idle(&self) -> bool {
        self.masks.pe_busy.is_empty()
            && self.masks.spe_work.iter().all(|&m| m == 0)
            && self.masks.bcast_pending.iter().chain(&self.masks.frc_pending).all(|&m| m == 0)
            && self.pos_rings.iter().all(Ring::is_empty)
            && self.frc_rings.iter().all(Ring::is_empty)
            && self.pos_ingress.is_empty()
            && self.frc_ingress.is_empty()
    }

    /// True when all positions destined to peer chips have left the chip
    /// (broadcast queues empty and no remote-masked flit on a ring).
    pub fn all_positions_departed(&self) -> bool {
        self.masks.bcast_pending.iter().all(|&m| m == 0)
            && self.masks.pos_remote_on_ring == 0
            && self.pos_egress.is_empty()
    }

    /// Outstanding remote-origin work from one peer (ingested position
    /// deliveries not yet fully evaluated). Only tests call it:
    /// `stress_params` checks every delivery is evaluated before a step ends.
    pub fn outstanding_from(&self, origin: ChipCoord) -> i64 {
        self.recv_chips
            .iter()
            .position(|c| *c == origin)
            .map_or(0, |peer| self.remote_pos_outstanding[peer])
    }

    /// True when nothing is owed to receive peer `peer` (an index into
    /// [`TimedChip::recv_chips`]) any more: every position it sent has
    /// been evaluated, and every force flit issued toward it has been
    /// captured by the EX node (none remain in frc-out FIFOs or on the
    /// force rings) and has left the EX queue.
    pub fn settled_with(&self, peer: usize) -> bool {
        debug_assert!(self.traffic.frc_sent[peer] <= self.frc_issued_to[peer]);
        self.remote_pos_outstanding[peer] == 0
            && self.frc_issued_to[peer] == self.traffic.frc_sent[peer]
            && self.frc_egress.is_empty()
    }

    /// True when this chip's own MU streaming and remote-migrant
    /// dispatch are finished (sending side of the MU handshake).
    pub fn all_migrants_departed(&self) -> bool {
        self.cbbs.iter().all(|c| c.mu_idle()) && {
            // no remote-destined flit still on the MU ring
            (0..self.mig_ring.len()).all(|i| {
                self.mig_ring
                    .at(i)
                    .is_none_or(|m| self.geo.chip_of_gcell(m.dest_gcell) == self.geo.chip)
            })
        } && self.mig_egress.is_empty()
    }

    /// Begin the motion-update phase.
    pub fn begin_mu_phase(&mut self) {
        assert_eq!(self.phase, Phase::Force, "MU follows force evaluation");
        self.phase = Phase::MotionUpdate;
        for cbb in &mut self.cbbs {
            cbb.begin_mu_phase();
        }
    }

    /// One motion-update cycle.
    pub fn step_mu_cycle(&mut self) {
        debug_assert_eq!(self.phase, Phase::MotionUpdate);
        let multi = self.multi;
        let ex = self.ex_node();
        let n = self.cbbs.len();

        let occ = self.mig_ring.occupancy() as u64;
        self.mu_ring_stats.record(occ, occ > 0);
        self.mig_ring.rotate();

        // deliveries
        for node in 0..n {
            let deliver = matches!(
                self.mig_ring.at(node),
                Some(m) if self.geo.cbb_of_gcell(m.dest_gcell) == Some(node as u16)
            );
            if deliver {
                let m = self.mig_ring.take(node).expect("checked");
                self.cbbs[node].receive_migrant(m);
            }
        }
        if multi {
            let capture = matches!(
                self.mig_ring.at(ex),
                Some(m) if self.geo.chip_of_gcell(m.dest_gcell) != self.geo.chip
            );
            if capture {
                let m = self.mig_ring.take(ex).expect("checked");
                let peer = self.geo.chip_of_gcell(m.dest_gcell);
                *self.traffic.mig_sent.entry(peer).or_default() += 1;
                self.mig_egress.push_back((peer, m));
            }
        }

        // MU units
        for cbb in &mut self.cbbs {
            if let Some(id) = cbb.step_mu(self.cycle, self.dt_fs, &self.acc_over_mass, &self.geo.global) {
                self.mu_overflow.get_or_insert(id);
            }
        }

        // injections
        for (i, cbb) in self.cbbs.iter_mut().enumerate() {
            if let Some(m) = cbb.mig_out.front().copied() {
                if self.mig_ring.inject(i, m).is_ok() {
                    cbb.mig_out.pop_front();
                    self.migrations += 1;
                }
            }
        }
        if multi {
            if let Some(m) = self.mig_ingress.front().copied() {
                if self.mig_ring.inject(ex, m).is_ok() {
                    self.mig_ingress.pop_front();
                }
            }
        }

        self.cycle += 1;
    }

    /// True when local MU work is finished (remote migrants may still be
    /// in flight cluster-wide).
    pub fn mu_phase_local_idle(&self) -> bool {
        self.cbbs.iter().all(TimedCbb::mu_idle)
            && self.mig_ring.is_empty()
            && self.mig_ingress.is_empty()
            && self.mig_egress.is_empty()
    }

    /// Finish the MU phase: compact cell arrays and return to idle.
    pub fn end_mu_phase(&mut self) {
        assert_eq!(self.phase, Phase::MotionUpdate);
        for cbb in &mut self.cbbs {
            cbb.end_mu_phase();
        }
        self.phase = Phase::Idle;
        // remote_pos_outstanding intentionally persists: a fast neighbour
        // may already have delivered next-step positions while this chip
        // was still in motion update (the chained-sync head start).
    }

    // ------------------------------------------------------------------
    // EX-node interfaces for the cluster driver.
    // ------------------------------------------------------------------

    /// Drain position flits departing to peer chips.
    pub fn drain_pos_egress(&mut self) -> impl Iterator<Item = (ChipCoord, PosFlit)> + '_ {
        self.pos_egress.drain(..)
    }

    /// Drain force flits departing to peer chips.
    pub fn drain_frc_egress(&mut self) -> impl Iterator<Item = (ChipCoord, FrcFlit)> + '_ {
        self.frc_egress.drain(..)
    }

    /// Drain migration flits departing to peer chips.
    pub fn drain_mig_egress(&mut self) -> impl Iterator<Item = (ChipCoord, MigFlit)> + '_ {
        self.mig_egress.drain(..)
    }

    /// Ingest a position flit from a peer chip: compute its local
    /// destination mask (the GCID→LCID conversion point, §4.2) and queue
    /// it for EX-node injection.
    pub fn ingest_remote_pos(&mut self, mut flit: PosFlit) {
        let origin = self.recv_idx(flit.owner_chip);
        // A source cell is named by (owner chip, owner CBB); its mask is
        // computed once.
        let cell = origin * self.cbbs.len() + flit.owner_cbb as usize;
        if self.halo_masks[cell] == 0 {
            self.halo_masks[cell] = self.local_mask_for_source(flit.src_gcell);
        }
        let mask = self.halo_masks[cell];
        assert!(mask != 0, "received a position with no local destinations");
        flit.local_mask = mask;
        flit.remote_mask = 0;
        self.remote_pos_outstanding[origin] += mask.count_ones() as i64;
        self.outstanding_seen |= 1 << origin;
        self.traffic.pos_recv[origin] += 1;
        self.pos_ingress.push_back(flit);
    }

    /// Ingest a force flit owned by this chip.
    pub fn ingest_remote_frc(&mut self, flit: FrcFlit) {
        debug_assert_eq!(flit.owner_chip, self.geo.chip);
        self.traffic.frc_recv_remote += 1;
        self.frc_ingress.push_back(flit);
    }

    /// Ingest a migrating particle owned by this chip's block.
    pub fn ingest_remote_mig(&mut self, flit: MigFlit) {
        debug_assert_eq!(self.geo.chip_of_gcell(flit.dest_gcell), self.geo.chip);
        self.mig_ingress.push_back(flit);
    }

    /// Local CBBs (as a mask) that must evaluate particles from a given
    /// source cell: the intersection of the source's half-shell
    /// destinations with this chip's block.
    fn local_mask_for_source(&self, src: CellCoord) -> u64 {
        let mut mask = 0u64;
        for off in fasda_md::celllist::HALF_SHELL_OFFSETS {
            let dest = self.geo.global.wrap_coord(src.offset(off));
            if let Some(cbb) = self.geo.cbb_of_gcell(dest) {
                mask |= 1 << cbb;
            }
        }
        mask
    }

    // ------------------------------------------------------------------
    // Single-chip convenience driver.
    // ------------------------------------------------------------------

    /// Run one complete timestep (single-chip mode only) and report.
    ///
    /// # Panics
    /// If a motion update leaves the `Q5.26` offset grid
    /// ([`TimedChip::try_run_timestep`] returns that as an error).
    pub fn run_timestep(&mut self) -> TimestepReport {
        self.try_run_timestep().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TimedChip::run_timestep`], failing at the first motion update
    /// whose displacement leaves the `Q5.26` offset grid; the chip stops
    /// in the middle of that motion-update phase.
    pub fn try_run_timestep(&mut self) -> Result<TimestepReport, MuOverflow> {
        assert_eq!(
            self.geo.num_chips(),
            1,
            "run_timestep drives a single chip; use fasda-cluster for multi-chip"
        );
        self.reset_stats();
        self.begin_force_phase();
        let start = self.cycle;
        while !self.force_phase_local_idle() {
            self.step_force_cycle();
            assert!(
                self.cycle - start < MAX_PHASE_CYCLES,
                "force phase failed to converge"
            );
        }
        let force_cycles = self.cycle - start;

        self.begin_mu_phase();
        let mu_start = self.cycle;
        while !self.mu_phase_local_idle() {
            let cycle = self.cycle;
            self.step_mu_cycle();
            if let Some(particle) = self.take_motion_overflow() {
                return Err(MuOverflow { particle, cycle });
            }
            assert!(
                self.cycle - mu_start < MAX_PHASE_CYCLES,
                "MU phase failed to converge"
            );
        }
        let mu_cycles = self.cycle - mu_start;
        self.end_mu_phase();

        Ok(self.report(force_cycles, mu_cycles))
    }

    /// Assemble the utilization report for a window of
    /// `force_cycles + mu_cycles` cycles.
    pub fn report(&self, force_cycles: u64, mu_cycles: u64) -> TimestepReport {
        let mut stats = StatSet::new();
        for a in &self.pr_stats {
            stats.add("PR", *a);
        }
        for a in &self.fr_stats {
            stats.add("FR", *a);
        }
        stats.add("MUR", self.mu_ring_stats);
        let mut valid_pairs = 0;
        let mut comparisons = 0;
        for cbb in &self.cbbs {
            stats.add("MU", cbb.mu_stats);
        }
        for pe in &self.pes {
            let (filter, pipe) = (pe.filter_stats(self.cycle), pe.pe_stats(self.cycle));
            stats.add("Filter", filter);
            stats.add("PE", pipe);
            valid_pairs += pipe.work;
            comparisons += filter.work;
        }
        TimestepReport {
            force_cycles,
            mu_cycles,
            stats,
            valid_pairs,
            comparisons,
            migrations: self.migrations,
        }
    }

    /// The unit system in use.
    pub fn units(&self) -> UnitSystem {
        self.units
    }
}

/// Checkpointing: the configuration, geometry, shared datapath, and every
/// mask/peer list derived from them are rebuilt by
/// [`TimedChip::with_datapath`].
/// Captured state is the CBBs, the three ring classes, the cycle counter
/// and phase, the EX-node queues, and the chained-sync outstanding-work
/// map (which intentionally survives phase boundaries — the head-start
/// bookkeeping of §4.4). *Not* captured, by design: utilization/traffic
/// counters and `frc_issued_to` (reset by [`TimedChip::reset_stats`] at
/// every measurement-window start, which is where checkpoints are cut),
/// the broadcast-cooldown clocks and phase-local caches (rebuilt by
/// [`TimedChip::begin_force_phase`]), the halo-mask cache (a pure
/// memoization), and the flight recorder (re-armed per window).
impl fasda_ckpt::Snapshot for TimedChip {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        let per_cbb = self.pes.len() / self.cbbs.len();
        w.put_usize(self.cbbs.len());
        for (cbb, pes) in self.cbbs.iter().zip(self.pes.chunks(per_cbb)) {
            cbb.snapshot_with(pes, self.cycle, w);
        }
        fasda_ckpt::snapshot_slice(&self.pos_rings, w);
        fasda_ckpt::snapshot_slice(&self.frc_rings, w);
        self.mig_ring.snapshot(w);
        w.put_u64(self.cycle);
        w.put_u8(match self.phase {
            Phase::Idle => 0,
            Phase::Force => 1,
            Phase::MotionUpdate => 2,
        });
        self.pos_egress.save(w);
        self.frc_egress.save(w);
        self.mig_egress.save(w);
        self.pos_ingress.save(w);
        self.frc_ingress.save(w);
        self.mig_ingress.save(w);
        // The outstanding-work map, as `HashMap<ChipCoord, i64>` wrote
        // it: the origins seen so far, in ascending coordinate order.
        w.put_usize(self.outstanding_seen.count_ones() as usize);
        for &peer in &self.recv_sorted {
            if self.outstanding_seen & 1 << peer != 0 {
                self.recv_chips[peer as usize].save(w);
                w.put_i64(self.remote_pos_outstanding[peer as usize]);
            }
        }
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        let cbbs = r.get_usize()?;
        if cbbs != self.cbbs.len() {
            return Err(r.malformed(format!(
                "slice length mismatch: snapshot has {cbbs}, structure has {}",
                self.cbbs.len()
            )));
        }
        let per_cbb = self.pes.len() / self.cbbs.len();
        for (cbb, pes) in self.cbbs.iter_mut().zip(self.pes.chunks_mut(per_cbb)) {
            cbb.restore_with(pes, r)?;
        }
        fasda_ckpt::restore_slice(&mut self.pos_rings, r)?;
        fasda_ckpt::restore_slice(&mut self.frc_rings, r)?;
        self.mig_ring.restore(r)?;
        self.cycle = r.get_u64()?;
        self.phase = match r.get_u8()? {
            0 => Phase::Idle,
            1 => Phase::Force,
            2 => Phase::MotionUpdate,
            t => return Err(r.malformed(format!("invalid phase tag {t}"))),
        };
        self.pos_egress = Persist::load(r)?;
        self.frc_egress = Persist::load(r)?;
        self.mig_egress = Persist::load(r)?;
        self.pos_ingress = Persist::load(r)?;
        self.frc_ingress = Persist::load(r)?;
        self.mig_ingress = Persist::load(r)?;
        let outstanding: HashMap<ChipCoord, i64> = Persist::load(r)?;
        self.remote_pos_outstanding.fill(0);
        self.outstanding_seen = 0;
        for (origin, count) in outstanding {
            let Some(peer) = self.recv_chips.iter().position(|c| *c == origin) else {
                return Err(r.malformed(format!("outstanding work from {origin:?}, not a receive peer")));
            };
            self.remote_pos_outstanding[peer] = count;
            self.outstanding_seen |= 1 << peer;
        }
        for pe in &mut self.pes {
            pe.reset_stats(self.cycle);
        }
        self.rebuild_masks();
        Ok(())
    }
}
