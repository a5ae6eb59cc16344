//! Layer probes of the traced pass: each times calls into one crate's
//! public functions from outside, or derives a ratio from two such
//! timings. A probe belongs to the workload whose end-to-end numbers its
//! layer moves and runs only in that workload's traced pass.

use super::BUDGET;
use crate::host::{cpu_seconds, TempDir};
use crate::manifest::Outcome;
use crate::stats::median;
use fasda_arith::fixed::FixVec3;
use fasda_arith::interp::TableConfig;
use fasda_cluster::wire::WirePos;
use fasda_cluster::{
    chrome_trace, drain_to_container, load_checkpoint, run_sharded, run_with_checkpoints,
    save_checkpoint, CheckpointConfig, Cluster, ClusterConfig, ClusterRunReport, EngineConfig,
    ObsLive, ObsSinkConfig, RunAccumulator, ShardOpts, TraceConfig,
};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::datapath::{ForceDatapath, HomeSoa, ScanHit};
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::timed::ring::PosFlit;
use fasda_core::timed::TimedChip;
use fasda_md::element::{Element, PairTable};
use fasda_md::integrator::Integrator;
use fasda_md::space::{CellCoord, SimulationSpace};
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_net::packet::{Packet, PacketKind};
use fasda_net::reliable::{Accept, LinkReceiver, LinkSender, RelConfig};
use fasda_net::switch::SwitchFabric;
use fasda_net::transport::{FrameLink, SocketLink};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call of `f`, the minimum over `rounds` batches of
/// `batch` calls: a descheduling inflates one batch and the minimum
/// drops it.
fn min_per_call<R>(rounds: u32, batch: u64, mut f: impl FnMut() -> R) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `core.kernel_*`: the fused SIMD filter→force scan against the scalar
/// `filter`+`force` walk over a 64-particle reference home cell, in
/// interleaved rounds, each kernel keeping its fastest round. (The
/// method of `crates/bench/src/kernels.rs`, copied so this benchmark
/// does not move when that crate does.)
pub fn kernel(out: &mut Outcome) {
    let dp = ForceDatapath::new(&PairTable::new(UnitSystem::PAPER), TableConfig::PAPER);
    let mut state = 0x5DA_F00Du64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let elems: Vec<Element> = (0..64)
        .map(|i| Element::ALL[i % Element::ALL.len()])
        .collect();
    let concat: Vec<FixVec3> = (0..64)
        .map(|_| ForceDatapath::concat((2, 2, 2), FixVec3::from_f64(rnd(), rnd(), rnd())))
        .collect();
    let mut soa = HomeSoa::new();
    soa.rebuild(&elems, &concat);
    let nbr = ForceDatapath::concat((3, 2, 2), FixVec3::from_f64(0.12, 0.43, 0.77));
    let mut hits: Vec<ScanHit> = Vec::with_capacity(64);

    const ROUNDS: usize = 8;
    const BATCH: u64 = 20_000;
    let (mut scalar_s, mut fused_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        scalar_s = scalar_s.min(min_per_call(1, BATCH, || {
            let mut acc = [0.0f32; 3];
            for i in 0..concat.len() {
                if let Some(pair) = dp.filter(concat[i], nbr) {
                    let f = dp.force(elems[i], Element::Na, pair);
                    for k in 0..3 {
                        acc[k] += f[k];
                    }
                }
            }
            acc
        }));
        fused_s = fused_s.min(min_per_call(1, BATCH, || {
            hits.clear();
            dp.fused_scan_into(&soa, nbr, Element::Na, 0, &mut hits);
            hits.iter().fold([0.0f32; 3], |mut acc, h| {
                for (a, f) in acc.iter_mut().zip(h.force) {
                    *a += f;
                }
                acc
            })
        }));
    }
    let pairs = concat.len() as f64;
    out.set(
        "core.kernel_fused_mpairs_per_s",
        pairs / fused_s / 1e6,
        ROUNDS,
    );
    out.set(
        "core.kernel_scalar_mpairs_per_s",
        pairs / scalar_s / 1e6,
        ROUNDS,
    );
    out.set("core.kernel_fused_vs_scalar", scalar_s / fused_s, ROUNDS);
}

/// One timestep of a single 3×3×3 chip at `per_cell`; returns (seconds,
/// simulated cycles).
fn chip_step(sys: &ParticleSystem, fast: bool) -> (f64, u64) {
    let mut chip = TimedChip::new(
        ChipConfig::variant(DesignVariant::A),
        ChipGeometry::single_chip(sys.space),
        UnitSystem::PAPER,
        Integrator::PAPER.dt_fs,
    );
    chip.set_fast_path(fast);
    chip.set_soa_scan(fast);
    chip.load(sys);
    let t = Instant::now();
    let r = chip.run_timestep();
    (t.elapsed().as_secs_f64(), r.total_cycles())
}

/// One node's worth of the cluster's system: same generator and density
/// over 3×3×3 cells.
fn single_chip_system(per_cell: u32, seed: u64) -> ParticleSystem {
    WorkloadSpec {
        per_cell,
        ..WorkloadSpec::paper(SimulationSpace::cubic(3), seed)
    }
    .generate()
}

/// `core.chip_dense_*`: the compute phase of `dense8` is eight of
/// these. Returns the fast path's seconds per step.
pub fn chip_dense(out: &mut Outcome, seed: u64) -> f64 {
    let sys = single_chip_system(64, seed);
    const REPS: usize = 3;
    let (mut fast, mut oracle, mut cycles) = (Vec::new(), Vec::new(), 0);
    for _ in 0..REPS {
        let (s, c) = chip_step(&sys, true);
        fast.push(s);
        cycles = c;
        oracle.push(chip_step(&sys, false).0);
    }
    out.set(
        "core.chip_dense_ns_per_cycle",
        median(&fast) * 1e9 / cycles as f64,
        REPS,
    );
    out.set(
        "core.chip_dense_oracle_ns_per_cycle",
        median(&oracle) * 1e9 / cycles as f64,
        REPS,
    );
    out.set("core.chip_dense_cycles_per_step", cycles as f64, 1);
    median(&fast)
}

/// `core.chip_sparse_ns_per_cycle` and `sparse8`'s `cluster.fabric_share`.
pub fn chip_sparse(out: &mut Outcome, seed: u64, steps: u64, one_thread_run_s: Option<f64>) {
    let sys = single_chip_system(4, seed);
    const REPS: usize = 9;
    let (mut walls, mut cycles) = (Vec::new(), 0);
    for _ in 0..REPS {
        let (s, c) = chip_step(&sys, true);
        walls.push(s);
        cycles = c;
    }
    out.set(
        "core.chip_sparse_ns_per_cycle",
        median(&walls) * 1e9 / cycles as f64,
        REPS,
    );
    fabric_share(out, median(&walls), one_thread_run_s, steps);
}

/// `cluster.fabric_share`: what is left of the single-threaded cluster's
/// wall per step after eight single chips' worth of compute — exchange,
/// network cycle, deliver and sync. Derived and approximate.
fn fabric_share(out: &mut Outcome, chip_step_s: f64, one_thread_run_s: Option<f64>, steps: u64) {
    if let Some(run_s) = one_thread_run_s {
        out.set(
            "cluster.fabric_share",
            1.0 - 8.0 * chip_step_s / (run_s / steps as f64),
            1,
        );
    }
}

/// `dense8`'s derived cluster figures.
pub fn dense_run_layers(
    out: &mut Outcome,
    report: &ClusterRunReport,
    default_run_s: Option<f64>,
    one_thread_run_s: Option<f64>,
    chip_step_s: f64,
    steps: u64,
) {
    if let Some(run_s) = default_run_s {
        let in_situ = report.stats.work("Filter") as f64 / run_s / 1e6;
        out.set("cluster.in_situ_mpairs_per_s", in_situ, 1);
        if let Some(kernel) = out.get("core.kernel_fused_mpairs_per_s") {
            out.set("cluster.kernel_efficiency", in_situ / kernel, 1);
        }
    }
    fabric_share(out, chip_step_s, one_thread_run_s, steps);
}

/// `trace.*` / `obs.*`: what each recorder level and a heartbeat per
/// step cost, on one step of `dense8`'s system under the default
/// engine. The heartbeat ratio includes the `Sync` recorder it needs.
pub fn trace_and_obs(
    out: &mut Outcome,
    scratch: &TempDir,
    sys: &ParticleSystem,
    cfg: &ClusterConfig,
) {
    let run = |engine: EngineConfig, beat: Option<ObsLive>| {
        let mut cluster = Cluster::new(cfg.clone(), sys);
        if let Some(live) = beat {
            cluster.attach_obs(Box::new(live));
        }
        let t = Instant::now();
        cluster.run_with(1, &engine);
        (t.elapsed().as_secs_f64(), cluster)
    };
    let auto = EngineConfig::auto();
    let (plain_s, _) = run(auto, None);
    let (full_s, mut traced) = run(auto.with_trace(TraceConfig::full()), None);
    out.set("trace.full_overhead_ratio", full_s / plain_s, 1);
    if let Some(trace) = traced.take_trace() {
        let events: usize = trace.nodes.iter().map(|n| n.events.len()).sum();
        out.set("trace.events", events as f64, 1);
        let t = Instant::now();
        black_box(chrome_trace(&trace));
        out.set("trace.chrome_export_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    }
    let sinks = ObsSinkConfig {
        heartbeat_out: Some(scratch.path().join("beats.jsonl")),
        prom_out: None,
    };
    if let Ok(live) = ObsLive::new(1, &sinks) {
        let (beat_s, _) = run(
            auto.with_trace(TraceConfig::sync()).with_heartbeat_every(1),
            Some(live),
        );
        out.set("obs.beat_overhead_ratio", beat_s / plain_s, 1);
    }
}

/// `baseline.cpu_step_ms`: what doing the MD itself costs the host, for
/// scale against simulating the machine that does it.
pub fn baseline_cpu(out: &mut Outcome, sys: &ParticleSystem) {
    let engine = fasda_baseline::cpu::ThreadedCpuEngine::new(PairTable::new(UnitSystem::PAPER), 1);
    let mut sys = sys.clone();
    const STEPS: usize = 2;
    out.set(
        "baseline.cpu_step_ms",
        engine.measure(&mut sys, &Integrator::PAPER, STEPS) * 1e3,
        STEPS,
    );
}

/// `net.*` micro-probes: the per-packet work `chaos-recover8` multiplies.
pub fn net(out: &mut Outcome) {
    let flit = PosFlit {
        owner_chip: ChipCoord::new(1, 0, 1),
        owner_cbb: 13,
        slot: 42,
        elem: Element::Na,
        offset: FixVec3::from_f64(0.25, 0.5, 0.75),
        src_gcell: CellCoord::new(4, 2, 5),
        local_mask: 0,
        remote_mask: 0b101,
    };
    let packet = Packet::data(PacketKind::Position, vec![WirePos(flit); 4], 3).with_seq(9);
    const ROUNDS: u32 = 5;
    let codec = min_per_call(ROUNDS, 20_000, || {
        Packet::<WirePos>::from_bytes(&packet.to_bytes())
    });
    out.set("net.packet_codec_ns", codec * 1e9, ROUNDS as usize);

    let mut fabric = SwitchFabric::paper(8);
    let mut cycle = 0u64;
    let send = min_per_call(ROUNDS, 100_000, || {
        cycle += 1;
        fabric.send(cycle, (cycle % 8) as usize, ((cycle + 3) % 8) as usize)
    });
    out.set("net.switch_send_ns", send * 1e9, ROUNDS as usize);

    let mut tx: LinkSender<Packet<WirePos>> = LinkSender::new(RelConfig::DEFAULT);
    let mut rx: LinkReceiver<Packet<WirePos>> = LinkReceiver::new();
    let mut now = 0u64;
    let frame = min_per_call(ROUNDS, 20_000, || {
        now += 1;
        let seq = tx.launch(now, packet.clone());
        match rx.accept(seq, packet.clone()) {
            Accept::Deliver { cumulative, .. }
            | Accept::Buffered { cumulative }
            | Accept::Duplicate { cumulative } => tx.on_ack(now, cumulative),
        }
    });
    out.set("net.reliable_frame_ns", frame * 1e9, ROUNDS as usize);
}

/// `net.socketlink_rtt_us`: a 4 KiB frame there and back over a Unix
/// socket pair — the floor under one shard round.
pub fn socketlink(out: &mut Outcome) -> Result<(), String> {
    let (mut near, mut far) = SocketLink::pair().map_err(|e| format!("socket pair: {e}"))?;
    const TRIPS: usize = 2_000;
    let echo = std::thread::spawn(move || {
        for _ in 0..TRIPS {
            let Ok(frame) = far.recv_frame() else { return };
            if far.send_frame(&frame).is_err() {
                return;
            }
        }
    });
    let payload = vec![0xA5u8; 4096];
    let mut trips = Vec::with_capacity(TRIPS);
    for _ in 0..TRIPS {
        let t = Instant::now();
        near.send_frame(&payload)
            .map_err(|e| format!("socketlink send: {e}"))?;
        let back = near
            .recv_frame()
            .map_err(|e| format!("socketlink recv: {e}"))?;
        trips.push(t.elapsed().as_secs_f64() * 1e6);
        if back.len() != payload.len() {
            return Err("socketlink echoed a different frame".into());
        }
    }
    echo.join().map_err(|_| "socketlink echo thread panicked")?;
    out.set("net.socketlink_rtt_us", median(&trips), TRIPS);
    Ok(())
}

/// `ckpt.*` on `chaos-recover8`'s cluster after its first step: the
/// snapshot, the durable save, the load, and what checkpointing every
/// step adds to a fault-free run.
pub fn ckpt(
    out: &mut Outcome,
    scratch: &TempDir,
    sys: &ParticleSystem,
    cfg: &ClusterConfig,
    steps: u64,
) -> Result<(), String> {
    let mut clean = cfg.clone();
    clean.faults = None;
    clean.reliability = None;
    let engine = EngineConfig::auto();

    let mut cluster = Cluster::new(clean.clone(), sys);
    let mut acc = RunAccumulator::new();
    acc.fold(&cluster.run_with(1, &engine));
    const REPS: usize = 7;
    let bytes = drain_to_container(&cluster, &acc).len();
    out.set("ckpt.bytes", bytes as f64, 1);
    let snapshot: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(drain_to_container(&cluster, &acc));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("ckpt.snapshot_ms", median(&snapshot), REPS);

    let dir = CheckpointConfig::new(1, scratch.sub("ckpt-probe")).with_keep(3);
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let path = save_checkpoint(&cluster, &acc, &dir).map_err(|e| format!("ckpt save: {e}"))?;
        save.push(t.elapsed().as_secs_f64() * 1e3);
        let mut fresh = Cluster::new(clean.clone(), sys);
        let t = Instant::now();
        load_checkpoint(&mut fresh, &path).map_err(|e| format!("ckpt load: {e}"))?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("ckpt.save_ms", median(&save), REPS);
    out.set(
        "ckpt.save_mb_per_s",
        bytes as f64 / 1e6 / (median(&save) / 1e3),
        REPS,
    );
    out.set("ckpt.load_ms", median(&load), REPS);

    let timed_run = |ckpt: Option<&CheckpointConfig>| -> Result<f64, String> {
        let mut cluster = Cluster::new(clean.clone(), sys);
        let t = Instant::now();
        run_with_checkpoints(
            &mut cluster,
            steps,
            BUDGET,
            &engine,
            ckpt,
            RunAccumulator::new(),
        )
        .map_err(|e| format!("ckpt overhead run: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        without.push(timed_run(None)?);
        with.push(timed_run(Some(&dir))?);
    }
    out.set(
        "ckpt.run_overhead_ratio",
        median(&with) / median(&without),
        3,
    );
    Ok(())
}

/// `shard.*` on `dense8`'s input: protocol cost at one shard, speed-up
/// and CPU at two, and the TCP carrier against Unix sockets.
pub fn shard(
    out: &mut Outcome,
    sys: &ParticleSystem,
    cfg: &ClusterConfig,
    steps: u64,
    two_shard_run_s: Option<f64>,
    two_shard_cpu_s: f64,
) -> Result<(), String> {
    let worker = EngineConfig::auto().with_threads(1);
    let sharded = |shards: usize, tcp: bool| -> Result<f64, String> {
        let t = Instant::now();
        run_sharded(
            cfg,
            sys,
            steps,
            &worker,
            shards,
            ShardOpts {
                tcp,
                ..ShardOpts::default()
            },
        )
        .map_err(|e| format!("shard probe ({shards} shard(s), tcp {tcp}): {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let mut cluster = Cluster::new(cfg.clone(), sys);
    cluster.run_with(steps, &worker);
    let (one_process_s, one_process_cpu) = (t.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    out.set(
        "shard.s1_vs_one_process",
        sharded(1, false)? / one_process_s,
        1,
    );
    if let Some(s2) = two_shard_run_s {
        out.set("shard.s2_speedup", one_process_s / s2, 1);
        out.set("shard.s2_cpu_ratio", two_shard_cpu_s / one_process_cpu, 1);
        out.set("shard.s2_tcp_vs_unix", sharded(2, true)? / s2, 1);
    }
    Ok(())
}
