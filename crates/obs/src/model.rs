//! The paper's §5 analytical performance model, and the
//! model-vs-measured divergence report.
//!
//! §5 of the paper sizes a FASDA deployment from first principles:
//! filter-bank throughput against the half-shell candidate-pair volume
//! (Eq. 3), force-pipeline throughput against the post-filter valid
//! pairs, the position-broadcast metering interval that paces a cell's
//! stream to its consumers, packetization overhead on the inter-node
//! ports, and the topology's transit latency. This module rebuilds
//! that model from a [`ModelInput`] (pure configuration — nothing
//! measured) and compares its [`Prediction`] against a [`Measured`]
//! summary distilled from a finished run's `ClusterRunReport` and
//! stall ledger. The divergence report is what keeps the model honest:
//! `fasda-cluster`'s `model_divergence_computes_from_a_real_run` test
//! computes it from a real run and fails on any [`Gate`] violation (see
//! `DESIGN.md` §12 for the equations and the calibration method).
//! Every axis it reports is gated.
//!
//! Everything here is deterministic: the pair pass-rate integral uses
//! a fixed midpoint quadrature, so the same input always produces the
//! same prediction bytes.

/// Per-axis half-shell offsets (§3.1): each unordered neighbour-cell
/// pair is covered exactly once by the 13 positive-direction offsets.
const HALF_SHELL: [(i32, i32, i32); 13] = [
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// Number of stall causes mirrored from `fasda_trace::StallCause`.
pub const STALL_CLASSES: usize = 8;

/// Pure-configuration input to the §5 model. Constructed from
/// `ClusterConfig` + workload geometry by the cluster crate; kept as
/// plain numbers here so the model has no dependency on the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelInput {
    /// Node-grid dimensions (chips per axis).
    pub grid: (u32, u32, u32),
    /// Cells per chip along each axis.
    pub block: (u32, u32, u32),
    /// Average particles per cell.
    pub per_cell: f64,
    /// Pair filters per PE.
    pub filters_per_pe: u32,
    /// PEs per SPE.
    pub pes_per_spe: u32,
    /// SPEs per CBB.
    pub spes_per_cbb: u32,
    /// Force-pipeline latency, cycles.
    pub force_pipe_latency: u32,
    /// Motion-update pipeline latency, cycles.
    pub mu_latency: u32,
    /// Broadcast-metering cooldown; 0 derives the §4.5 interval
    /// `13·(per_cell + force_pipe_latency) / filters_per_spe`.
    pub bcast_cooldown: u32,
    /// Filter cutoff radius in cell units (paper design point: 1.0).
    pub cutoff_cells: f64,
    /// Packet-departure cooldown, cycles (§5.4).
    pub packet_cooldown: u32,
    /// One-way inter-node transit latency, cycles (switch latency or
    /// mean ring path length × hop latency).
    pub path_latency: f64,
    /// Mean injected straggler stall per (node, step), cycles (0 when
    /// unset; a single-node injection divided by the node count).
    pub straggler_cycles: f64,
}

impl ModelInput {
    /// Total chips.
    pub fn nodes(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    /// Cells per chip.
    pub fn cells_per_node(&self) -> u64 {
        self.block.0 as u64 * self.block.1 as u64 * self.block.2 as u64
    }

    /// Filters per CBB.
    fn filters_per_cbb(&self) -> f64 {
        (self.filters_per_pe * self.pes_per_spe * self.spes_per_cbb) as f64
    }

    /// Force pipelines per CBB.
    fn pes_per_cbb(&self) -> f64 {
        (self.pes_per_spe * self.spes_per_cbb) as f64
    }

    /// The §4.5 broadcast-metering interval in cycles.
    pub fn bcast_interval(&self) -> f64 {
        if self.bcast_cooldown > 0 {
            return self.bcast_cooldown as f64;
        }
        let filters_per_spe = (self.filters_per_pe * self.pes_per_spe) as f64;
        13.0 * (self.per_cell + self.force_pipe_latency as f64) / filters_per_spe
    }
}

/// Probability that two uniform points in unit cells at the given
/// absolute offset are within `cutoff` of each other (Eq. 3's
/// pass-rate term), by fixed midpoint quadrature over the per-axis
/// triangular difference densities. Deterministic for a given input.
pub fn pair_pass_rate(offset: (u32, u32, u32), cutoff: f64) -> f64 {
    const M: usize = 64;
    let r2 = cutoff * cutoff;
    // Per-axis: d = (p2 + off) - p1 with p1, p2 ~ U[0,1) has the
    // triangular density f(t) = 1 - |t - off| on [off-1, off+1].
    let axis = |off: u32| -> Vec<(f64, f64)> {
        let o = off as f64;
        let step = 2.0 / M as f64;
        (0..M)
            .map(|i| {
                let t = (o - 1.0) + (i as f64 + 0.5) * step;
                (t, (1.0 - (t - o).abs()).max(0.0) * step)
            })
            .collect()
    };
    let (ax, ay, az) = (axis(offset.0), axis(offset.1), axis(offset.2));
    let mut pass = 0.0;
    for &(tx, wx) in &ax {
        if wx == 0.0 {
            continue;
        }
        for &(ty, wy) in &ay {
            if wy == 0.0 {
                continue;
            }
            let d2xy = tx * tx + ty * ty;
            if d2xy > r2 {
                continue;
            }
            for &(tz, wz) in &az {
                if d2xy + tz * tz <= r2 {
                    pass += wx * wy * wz;
                }
            }
        }
    }
    pass
}

/// The deterministic sub-lattice the workload generator places for
/// `per_cell` particles: smallest `k` with `k³ ≥ per_cell`, pitch
/// `1/k`, sites filled in x-major order. Cell-relative coordinates.
fn lattice_sites(per_cell: u32) -> Vec<(f64, f64, f64)> {
    let k = (1..=per_cell).find(|k| k * k * k >= per_cell).unwrap_or(1);
    let pitch = 1.0 / k as f64;
    let mut out = Vec::with_capacity(per_cell as usize);
    'fill: for ix in 0..k {
        for iy in 0..k {
            for iz in 0..k {
                if out.len() == per_cell as usize {
                    break 'fill;
                }
                out.push((
                    (ix as f64 + 0.5) * pitch,
                    (iy as f64 + 0.5) * pitch,
                    (iz as f64 + 0.5) * pitch,
                ));
            }
        }
    }
    out
}

/// Probability that a particle visiting a neighbour cell at `offset`
/// ejects a force return — i.e. at least one of its pairs against the
/// destination cell's particles passes the cutoff filter.
///
/// Unlike [`pair_pass_rate`] (the paper's Eq. 3 uniform-density
/// integral, kept for the filter/force throughput bounds), this term
/// is workload-aware: the repo's generator places a deterministic
/// jittered sub-lattice, so the nearest-pair distance is a lattice
/// geometry fact. Pairs at **exactly** the cutoff (lattice-aligned
/// across a face) are decided by the generator's jitter — they pass
/// with probability ½.
fn eject_rate(per_cell: f64, offset: (i32, i32, i32), cutoff: f64) -> f64 {
    const EPS: f64 = 1e-9;
    let n = per_cell.round().max(1.0) as u32;
    let sites = lattice_sites(n);
    let (ox, oy, oz) = (offset.0 as f64, offset.1 as f64, offset.2 as f64);
    let mut total = 0.0;
    for u in &sites {
        let best = sites
            .iter()
            .map(|v| {
                let d = (ox + v.0 - u.0, oy + v.1 - u.1, oz + v.2 - u.2);
                d.0 * d.0 + d.1 * d.1 + d.2 * d.2
            })
            .fold(f64::INFINITY, f64::min)
            .sqrt();
        if best < cutoff - EPS {
            total += 1.0;
        } else if (best - cutoff).abs() <= EPS {
            total += 0.5;
        }
    }
    total / sites.len() as f64
}

/// What the §5 model predicts for one configuration. All quantities
/// are per step unless noted; packet counts are cluster-global.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Mean filter pass rate over half-shell candidates (home included).
    pub pass_rate: f64,
    /// Candidate pairs per cell per step.
    pub candidates_per_cell: f64,
    /// Valid (post-filter) pairs per cell per step.
    pub valid_per_cell: f64,
    /// Broadcast-metering interval, cycles.
    pub bcast_interval: f64,
    /// Filter-bank bound on the force phase, cycles.
    pub filter_bound: f64,
    /// Force-pipeline bound on the force phase, cycles.
    pub force_bound: f64,
    /// Broadcast-metering bound on the force phase, cycles.
    pub bcast_bound: f64,
    /// Predicted sync tail per (node, step): packetizer flush plus the
    /// marker transit (wait-neighbor-sync + drained territory), cycles.
    pub sync_tail: f64,
    /// Predicted force-phase duration per (node, step), cycles.
    pub force_cycles: f64,
    /// Predicted motion-update duration per (node, step), cycles.
    pub mu_cycles: f64,
    /// Predicted wall cycles per step.
    pub cycles_per_step: f64,
    /// Predicted force-phase occupancy (productive / attributed).
    pub occupancy: f64,
    /// Predicted position-fabric packets per step (cluster-global).
    pub pos_packets_per_step: f64,
    /// Predicted force-fabric packets per step (cluster-global).
    pub frc_packets_per_step: f64,
    /// Predicted idle-share per stall class (fractions of total idle).
    pub stall_shares: [f64; STALL_CLASSES],
}

/// Geometry helper: per-chip packet counts on both fabrics, from the
/// half-shell destination map over the node grid.
///
/// Returns `(pos_payloads, frc_payloads)` summed over all chips:
///
/// * one **position** payload per (source cell, remote destination
///   *chip*) per particle — positions ship once per chip with a
///   destination-cell mask;
/// * one **force** return per (visiting particle, remote destination
///   *cell*) **that produced at least one passing pair** — the PE
///   array accumulates a visiting particle's partial force per scanned
///   cell and ejects a ring flit only when `had_pairs` (otherwise the
///   station discards). With per-cell count `n` and per-offset pass
///   rate `p`, the ejection probability is `1 - (1-p)^n`.
fn boundary_payloads(input: &ModelInput) -> (f64, f64) {
    let (gx, gy, gz) = input.grid;
    let (bx, by, bz) = input.block;
    let (dx, dy, dz) = (gx * bx, gy * by, gz * bz);
    let n = input.per_cell;
    // Ejection probability per half-shell offset, from the generator's
    // lattice geometry. Per actual offset, not symmetry class: the
    // x-major fill breaks reflection symmetry when `per_cell` is not a
    // perfect cube (e.g. 4 particles on a k=2 lattice all share one
    // x-plane, so +x and -x neighbours see different distances).
    let eject: Vec<f64> = HALF_SHELL
        .iter()
        .map(|&o| eject_rate(n, o, input.cutoff_cells))
        .collect();
    let mut pos = 0.0;
    let mut frc = 0.0;
    for cx in 0..dx {
        for cy in 0..dy {
            for cz in 0..dz {
                let home = (cx / bx, cy / by, cz / bz);
                // Distinct remote chips this cell sends to.
                let mut chips: Vec<(u32, u32, u32)> = Vec::new();
                for (i, &(ox, oy, oz)) in HALF_SHELL.iter().enumerate() {
                    let wrap = |v: u32, o: i32, d: u32| -> u32 {
                        (v as i64 + o as i64).rem_euclid(d as i64) as u32
                    };
                    let dest = (wrap(cx, ox, dx), wrap(cy, oy, dy), wrap(cz, oz, dz));
                    let chip = (dest.0 / bx, dest.1 / by, dest.2 / bz);
                    if chip == home {
                        continue;
                    }
                    // Each of the cell's n particles visits this remote
                    // cell; a return crosses back iff the scan had pairs.
                    frc += n * eject[i];
                    if !chips.contains(&chip) {
                        chips.push(chip);
                    }
                }
                pos += n * chips.len() as f64; // one payload per particle per remote chip
            }
        }
    }
    (pos, frc)
}

/// Evaluate the §5 model for a configuration.
pub fn predict(input: &ModelInput) -> Prediction {
    let n = input.per_cell;
    let r = input.cutoff_cells;
    // Pass rates by offset class (all 13 half-shell offsets reduce to
    // face/edge/corner under per-axis reflection symmetry).
    let p_home = pair_pass_rate((0, 0, 0), r);
    let class = |o: (i32, i32, i32)| (o.0.unsigned_abs(), o.1.unsigned_abs(), o.2.unsigned_abs());
    let p_shell: f64 = HALF_SHELL.iter().map(|&o| pair_pass_rate(class(o), r)).sum();

    let candidates_per_cell = 13.0 * n * n + n * (n - 1.0) / 2.0;
    let valid_per_cell = p_shell * n * n + p_home * n * (n - 1.0) / 2.0;
    let pass_rate = if candidates_per_cell > 0.0 {
        valid_per_cell / candidates_per_cell
    } else {
        0.0
    };

    let interval = input.bcast_interval();
    let filter_bound = candidates_per_cell / input.filters_per_cbb();
    let force_bound = valid_per_cell / input.pes_per_cbb();
    // A cell's n positions leave one per `interval` cycles; the last
    // departure still has to be scanned and drained.
    let bcast_bound = n * interval;
    let stream = filter_bound.max(force_bound).max(bcast_bound);

    // Packetization: payloads per chip-pair, four to a packet, plus the
    // end-of-phase marker packet each (kind, peer) gate flushes.
    let (pos_payloads, frc_payloads) = boundary_payloads(input);
    let nodes = input.nodes() as f64;
    let peer_links = if nodes > 1.0 {
        // Mean distinct send-peers per chip (same for recv by symmetry):
        // payload-weighted is what the marker count needs; approximate
        // with the exact count from the geometry walk below.
        peer_link_count(input) as f64
    } else {
        0.0
    };
    let pos_packets = if nodes > 1.0 {
        (pos_payloads / 4.0).floor() + peer_links
    } else {
        0.0
    };
    let frc_packets = if nodes > 1.0 {
        (frc_payloads / 4.0).floor() + peer_links
    } else {
        0.0
    };

    // Sync tail: the final broadcast drains through the pipeline, the
    // marker crosses the fabric, and the chained handshake completes.
    let sync_tail = if nodes > 1.0 {
        input.force_pipe_latency as f64 + 2.0 * input.path_latency
    } else {
        input.force_pipe_latency as f64
    };

    let force_cycles = stream + sync_tail + input.straggler_cycles;
    // The motion update issues one particle per cell per cycle (every
    // CBB has its own MU unit), drains the pipeline, then — on a
    // multi-chip cluster — holds the phase open until every migration
    // peer's last-migrant marker has crossed the fabric.
    let mu_marker_wait = if nodes > 1.0 { input.path_latency } else { 0.0 };
    let mu_cycles = n + input.mu_latency as f64 + mu_marker_wait;
    let cycles_per_step = force_cycles + mu_cycles;

    // Occupancy is attributed chip-wide ("any PE busy"): during the
    // metered stream each CBB sees a deterministic overlap of
    // `13n/interval` in-flight scans, and the chip is productive when
    // any of its `cells` CBBs is mid-scan.
    let cells = input.cells_per_node() as f64;
    let concurrency = if interval > 0.0 {
        cells * 13.0 * n / interval
    } else {
        0.0
    };
    let busy = stream * concurrency.min(1.0);
    let occupancy = if force_cycles > 0.0 {
        (busy / force_cycles).min(1.0)
    } else {
        0.0
    };

    // Idle split across stall classes, mirroring the attribution
    // precedence in the driver: a chip that ticks with live output
    // queues (flits draining, packets crossing, remote returns in
    // flight) books ring-backpressure; the short window after
    // everything drains but before the neighbours' markers land books
    // wait-neighbor-sync. Tx-cooldown hides under ticked cycles (the
    // chip keeps ticking while a packetizer waits out a departure
    // cooldown), so its share is ~0.
    let idle = (force_cycles - busy).max(0.0);
    let mut stall_cycles = [0.0f64; STALL_CLASSES];
    if idle > 0.0 {
        let starved = stream * (1.0 - concurrency.min(1.0));
        stall_cycles[3] = starved.min(idle); // filter-starved
        stall_cycles[5] = input.straggler_cycles.min(idle - stall_cycles[3]); // injected
        let exchange = (idle - stall_cycles[3] - stall_cycles[5]).max(0.0);
        if nodes > 1.0 {
            // Marker skew after the pipes drain: flush latency plus the
            // last packet's departure cooldown on both fabrics.
            let wait = (input.force_pipe_latency as f64
                + 2.0 * input.packet_cooldown as f64)
                .min(exchange);
            stall_cycles[0] = wait; // wait-neighbor-sync
            stall_cycles[1] = exchange - wait; // ring-backpressure
        } else {
            stall_cycles[4] = exchange; // drained (no neighbours to wait on)
        }
    }
    let idle_sum: f64 = stall_cycles.iter().sum();
    let mut stall_shares = [0.0f64; STALL_CLASSES];
    if idle_sum > 0.0 {
        for (share, cycles) in stall_shares.iter_mut().zip(stall_cycles.iter()) {
            *share = cycles / idle_sum;
        }
    }

    Prediction {
        pass_rate,
        candidates_per_cell,
        valid_per_cell,
        bcast_interval: interval,
        filter_bound,
        force_bound,
        bcast_bound,
        sync_tail,
        force_cycles,
        mu_cycles,
        cycles_per_step,
        occupancy,
        pos_packets_per_step: pos_packets,
        frc_packets_per_step: frc_packets,
        stall_shares,
    }
}

/// Exact distinct (chip, send-peer) link count over the whole grid —
/// the number of end-of-phase marker packets per fabric per step.
fn peer_link_count(input: &ModelInput) -> u64 {
    let (gx, gy, gz) = input.grid;
    let (bx, by, bz) = input.block;
    let (dx, dy, dz) = (gx * bx, gy * by, gz * bz);
    let mut links = 0u64;
    for nx in 0..gx {
        for ny in 0..gy {
            for nz in 0..gz {
                let mut peers: Vec<(u32, u32, u32)> = Vec::new();
                for cx in (nx * bx)..(nx * bx + bx) {
                    for cy in (ny * by)..(ny * by + by) {
                        for cz in (nz * bz)..(nz * bz + bz) {
                            for &(ox, oy, oz) in &HALF_SHELL {
                                let wrap = |v: u32, o: i32, d: u32| -> u32 {
                                    (v as i64 + o as i64).rem_euclid(d as i64) as u32
                                };
                                let dest =
                                    (wrap(cx, ox, dx), wrap(cy, oy, dy), wrap(cz, oz, dz));
                                let chip = (dest.0 / bx, dest.1 / by, dest.2 / bz);
                                if chip != (nx, ny, nz) && !peers.contains(&chip) {
                                    peers.push(chip);
                                }
                            }
                        }
                    }
                }
                links += peers.len() as u64;
            }
        }
    }
    links
}

/// Ground truth distilled from a finished run (report + stall
/// ledger). Built by the cluster crate; plain numbers here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Measured {
    /// Steps completed.
    pub steps: u64,
    /// Nodes simulated.
    pub nodes: u64,
    /// Wall cycles per step.
    pub cycles_per_step: f64,
    /// Mean force-phase cycles per (node, step).
    pub force_cycles: f64,
    /// Force-phase occupancy: ledger productive / attributed.
    pub occupancy: f64,
    /// Position-fabric packets per step (cluster-global).
    pub pos_packets_per_step: f64,
    /// Force-fabric packets per step (cluster-global).
    pub frc_packets_per_step: f64,
    /// Idle share per stall class (fractions of total idle).
    pub stall_shares: [f64; STALL_CLASSES],
}

/// Gate thresholds for the divergence report. The defaults are
/// calibrated against the dense fig16 smoke workloads (see DESIGN.md
/// §12 — "calibration method"); `fasda-cluster`'s `obs` test suite
/// (`model_divergence_computes_from_a_real_run`) enforces them in CI.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// Max |rel err| on cycles per step.
    pub cycles_rel: f64,
    /// Max |rel err| on mean force-phase cycles.
    pub force_rel: f64,
    /// Max |abs err| on occupancy (a fraction, so absolute).
    pub occupancy_abs: f64,
    /// Max |rel err| on either fabric's packets per step.
    pub packets_rel: f64,
    /// Max |abs err| on any stall class's idle share.
    pub stall_share_abs: f64,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            cycles_rel: 0.15,
            force_rel: 0.15,
            occupancy_abs: 0.15,
            packets_rel: 0.10,
            stall_share_abs: 0.25,
        }
    }
}

fn rel_err(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - measured) / measured
    }
}

/// The model-vs-measured divergence report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Divergence {
    /// Relative error on cycles per step.
    pub cycles_rel: f64,
    /// Relative error on mean force-phase cycles.
    pub force_rel: f64,
    /// Absolute error on occupancy.
    pub occupancy_abs: f64,
    /// Relative error on position-fabric packets per step.
    pub pos_packets_rel: f64,
    /// Relative error on force-fabric packets per step.
    pub frc_packets_rel: f64,
    /// Absolute error per stall class's idle share.
    pub stall_share_abs: [f64; STALL_CLASSES],
}

impl Divergence {
    /// Compare a prediction against ground truth.
    pub fn compare(pred: &Prediction, meas: &Measured) -> Self {
        let mut stall_share_abs = [0.0f64; STALL_CLASSES];
        for (out, (p, m)) in stall_share_abs
            .iter_mut()
            .zip(pred.stall_shares.iter().zip(meas.stall_shares.iter()))
        {
            *out = (p - m).abs();
        }
        Divergence {
            cycles_rel: rel_err(pred.cycles_per_step, meas.cycles_per_step),
            force_rel: rel_err(pred.force_cycles, meas.force_cycles),
            occupancy_abs: (pred.occupancy - meas.occupancy).abs(),
            pos_packets_rel: rel_err(pred.pos_packets_per_step, meas.pos_packets_per_step),
            frc_packets_rel: rel_err(pred.frc_packets_per_step, meas.frc_packets_per_step),
            stall_share_abs,
        }
    }

    /// Worst stall-share absolute error.
    pub fn max_stall_share_abs(&self) -> f64 {
        self.stall_share_abs.iter().cloned().fold(0.0, f64::max)
    }

    /// Gate violations (empty = within thresholds). Packet errors are
    /// only gated when the run had inter-node traffic.
    pub fn violations(&self, gate: &Gate, meas: &Measured) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, err: f64, limit: f64| {
            if err.abs() > limit {
                out.push(format!("{name}: |{err:.4}| > {limit}"));
            }
        };
        check("cycles_rel", self.cycles_rel, gate.cycles_rel);
        check("force_rel", self.force_rel, gate.force_rel);
        check("occupancy_abs", self.occupancy_abs, gate.occupancy_abs);
        if meas.pos_packets_per_step > 0.0 {
            check("pos_packets_rel", self.pos_packets_rel, gate.packets_rel);
        }
        if meas.frc_packets_per_step > 0.0 {
            check("frc_packets_rel", self.frc_packets_rel, gate.packets_rel);
        }
        check(
            "max_stall_share_abs",
            self.max_stall_share_abs(),
            gate.stall_share_abs,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_input() -> ModelInput {
        ModelInput {
            grid: (2, 1, 1),
            block: (1, 1, 2),
            per_cell: 4.0,
            filters_per_pe: 6,
            pes_per_spe: 1,
            spes_per_cbb: 1,
            force_pipe_latency: 43,
            mu_latency: 24,
            bcast_cooldown: 0,
            cutoff_cells: 1.0,
            packet_cooldown: 2,
            path_latency: 200.0,
            straggler_cycles: 0.0,
        }
    }

    #[test]
    fn pass_rates_match_geometry() {
        // Same cell: mean pair distance in the unit cube is ~0.66, so
        // most pairs pass at cutoff 1.
        let home = pair_pass_rate((0, 0, 0), 1.0);
        assert!(home > 0.9 && home <= 1.0, "home pass {home}");
        // Face/edge/corner neighbours pass progressively less often.
        let face = pair_pass_rate((1, 0, 0), 1.0);
        let edge = pair_pass_rate((1, 1, 0), 1.0);
        let corner = pair_pass_rate((1, 1, 1), 1.0);
        assert!(face > edge && edge > corner, "{face} {edge} {corner}");
        assert!(corner > 0.0);
        // Shrinking the cutoff shrinks every rate.
        assert!(pair_pass_rate((1, 0, 0), 0.5) < face);
        // Quadrature is deterministic.
        assert_eq!(face, pair_pass_rate((1, 0, 0), 1.0));
    }

    #[test]
    fn lattice_ejection_tracks_site_geometry() {
        // 4 particles on a k=2 lattice (x-major fill) all share the
        // x=0.25 plane: every +x-face pair sits at exactly the cutoff
        // (jitter decides, weight ½), while a +y-face neighbour has
        // sites well inside it — the fill order breaks symmetry.
        assert_eq!(lattice_sites(4).len(), 4);
        assert!((eject_rate(4.0, (1, 0, 0), 1.0) - 0.5).abs() < 1e-12);
        assert!(eject_rate(4.0, (0, 1, 0), 1.0) > eject_rate(4.0, (1, 0, 0), 1.0));
        // Corner neighbours' nearest sites are beyond the cutoff.
        assert_eq!(eject_rate(4.0, (1, 1, 1), 1.0), 0.0);
        // A full k=4 lattice (64/cell) restores per-axis symmetry.
        assert_eq!(
            eject_rate(64.0, (1, 0, 0), 1.0),
            eject_rate(64.0, (0, 0, 1), 1.0)
        );
    }

    #[test]
    fn prediction_is_internally_consistent() {
        let p = predict(&paper_input());
        assert!(p.pass_rate > 0.0 && p.pass_rate < 1.0);
        assert!(p.valid_per_cell < p.candidates_per_cell);
        assert!(p.force_cycles >= p.filter_bound.max(p.force_bound).max(p.bcast_bound));
        assert!(p.cycles_per_step > p.force_cycles);
        assert!(p.occupancy > 0.0 && p.occupancy <= 1.0);
        let share_sum: f64 = p.stall_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9 || share_sum == 0.0, "{share_sum}");
        // Two nodes exchanging positions: traffic predicted on both
        // fabrics, but force returns are sparser than broadcasts — a
        // visiting particle ejects at most one return per scanned cell,
        // and only when a pair passed the filter.
        assert!(p.pos_packets_per_step > 0.0);
        assert!(p.frc_packets_per_step > 0.0);
        assert!(p.frc_packets_per_step <= p.pos_packets_per_step);
    }

    #[test]
    fn single_chip_predicts_no_traffic() {
        let mut input = paper_input();
        input.grid = (1, 1, 1);
        input.block = (2, 1, 1);
        let p = predict(&input);
        assert_eq!(p.pos_packets_per_step, 0.0);
        assert_eq!(p.frc_packets_per_step, 0.0);
    }

    #[test]
    fn divergence_flags_misses_and_passes_matches() {
        let pred = predict(&paper_input());
        // A "measurement" that equals the prediction has zero divergence.
        let meas = Measured {
            steps: 4,
            nodes: 2,
            cycles_per_step: pred.cycles_per_step,
            force_cycles: pred.force_cycles,
            occupancy: pred.occupancy,
            pos_packets_per_step: pred.pos_packets_per_step,
            frc_packets_per_step: pred.frc_packets_per_step,
            stall_shares: pred.stall_shares,
        };
        let div = Divergence::compare(&pred, &meas);
        assert_eq!(div.cycles_rel, 0.0);
        assert_eq!(div.max_stall_share_abs(), 0.0);
        assert!(div.violations(&Gate::default(), &meas).is_empty());
        // A 2x miss violates the default gate.
        let mut off = meas;
        off.cycles_per_step *= 2.0;
        let div = Divergence::compare(&pred, &off);
        assert!(!div.violations(&Gate::default(), &off).is_empty());
    }
}
