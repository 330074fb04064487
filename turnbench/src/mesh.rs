//! The two 16×16 mesh workloads: the paper's four turn-model algorithms
//! on the wormhole engine `Sim` plus double-y on `VcSim`, each under
//! uniform and matrix-transpose traffic, at one offered load.

use std::time::Instant;
use turnroute_routing::{mesh2d, RoutingFunction, RoutingMode};
use turnroute_sim::{Packet, Phase, PhaseProfiler, Sim, SimConfig, SimReport};
use turnroute_topology::Mesh;
use turnroute_traffic::{MeshTranspose, TrafficPattern, Uniform};
use turnroute_vc::{DoubleYAdaptive, VcRoutingFunction, VcSim};

use crate::trace::Tracer;
use crate::wrap::{TimedPattern, TimedRouting, TimedVcRouting};

/// Mesh side: the paper's 256-node network.
pub const SIDE: u16 = 16;
/// Offered load past saturation for every algorithm, in flits per node
/// per cycle.
pub const SATURATED_RATE: f64 = 0.30;
/// Offered load with few flits in flight.
pub const SPARSE_RATE: f64 = 0.02;

// Short runs, so that a run of the benchmark repeats every piece of a
// repetition often enough to find the host's quiet moments (see
// BENCHMARK.md). Saturation sets in within the warm-up.
const WARMUP_CYCLES: u64 = 500;
const MEASURE_CYCLES: u64 = 2_000;
const DRAIN_CYCLES: u64 = 500;

/// Topology, routing objects and traffic patterns shared by every run.
pub struct Fixture {
    mesh: Mesh,
    algorithms: Vec<Box<dyn RoutingFunction>>,
    double_y: DoubleYAdaptive,
    patterns: Vec<Box<dyn TrafficPattern>>,
}

impl Fixture {
    pub fn new() -> Fixture {
        Fixture {
            mesh: Mesh::new_2d(SIDE, SIDE),
            algorithms: vec![
                Box::new(mesh2d::xy()),
                Box::new(mesh2d::west_first(RoutingMode::Minimal)),
                Box::new(mesh2d::north_last(RoutingMode::Minimal)),
                Box::new(mesh2d::negative_first(RoutingMode::Minimal)),
            ],
            double_y: DoubleYAdaptive::new(),
            patterns: vec![Box::new(Uniform::new()), Box::new(MeshTranspose::new())],
        }
    }

    /// Every run of the workload: (run index, wormhole algorithm or
    /// `None` for double-y on `VcSim`, traffic pattern).
    fn runs(&self) -> Vec<(u64, Option<&dyn RoutingFunction>, &dyn TrafficPattern)> {
        let mut out = Vec::new();
        for alg in &self.algorithms {
            for pat in &self.patterns {
                out.push((out.len() as u64, Some(alg.as_ref()), pat.as_ref()));
            }
        }
        for pat in &self.patterns {
            out.push((out.len() as u64, None, pat.as_ref()));
        }
        out
    }
}

fn config(rate: f64, seed: u64, index: u64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(rate)
        .warmup_cycles(WARMUP_CYCLES)
        .measure_cycles(MEASURE_CYCLES)
        .drain_cycles(DRAIN_CYCLES)
        .seed(crate::report::mix(seed, index))
        .build()
}

/// Build the fixture and every engine of the workload once; the set-up
/// cost a repetition pays before simulating.
pub fn setup(rate: f64, seed: u64) -> usize {
    let fx = Fixture::new();
    let mut slots = 0;
    for (index, alg, pat) in fx.runs() {
        let cfg = config(rate, seed, index);
        slots += match alg {
            Some(alg) => Sim::new(&fx.mesh, alg, pat, cfg).num_slots(),
            None => VcSim::new(&fx.mesh, &fx.double_y, pat, cfg).num_slots(),
        };
    }
    slots
}

/// What one simulation produced. Two runs of the same configuration and
/// seed must compare equal, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    pub label: String,
    /// `"sim"` (wormhole) or `"vc"`.
    pub engine: &'static str,
    pub report: SimReport,
    /// Flits entering network channels in the window (wormhole only).
    pub flit_hops: u64,
    /// Network-channel grants to headers, summed over all packets.
    pub grants: u64,
    /// Packet records the engine holds at the end of the run.
    pub retained: u64,
    /// Latencies of window packets delivered by the end of the run.
    pub window_latencies: Vec<u64>,
    /// Failed output checks.
    pub problems: Vec<String>,
}

/// The accessors the output checks need, common to both engines.
trait EngineView {
    fn packets(&self) -> &[Packet];
    fn num_nodes(&self) -> usize;
    fn num_slots(&self) -> usize;
    fn slot_owner(&self, slot: usize) -> Option<u32>;
    fn slot_packets(&self, slot: usize) -> Vec<u32>;
    fn queued(&self, node: usize) -> Vec<u32>;
    fn emitting(&self, node: usize) -> Option<u32>;
}

macro_rules! engine_view {
    ($engine:ty) => {
        impl EngineView for $engine {
            fn packets(&self) -> &[Packet] {
                self.packets()
            }
            fn num_nodes(&self) -> usize {
                SIDE as usize * SIDE as usize
            }
            fn num_slots(&self) -> usize {
                self.num_slots()
            }
            fn slot_owner(&self, slot: usize) -> Option<u32> {
                self.slot_owner(slot)
            }
            fn slot_packets(&self, slot: usize) -> Vec<u32> {
                self.slot_flits(slot).map(|(p, _, _)| p).collect()
            }
            fn queued(&self, node: usize) -> Vec<u32> {
                self.source_queue(node).collect()
            }
            fn emitting(&self, node: usize) -> Option<u32> {
                self.source_emitting(node).map(|(p, _)| p)
            }
        }
    };
}

engine_view!(Sim<'_>);
engine_view!(VcSim<'_>);

impl RunStats {
    fn collect(
        label: String,
        engine: &'static str,
        view: &dyn EngineView,
        report: SimReport,
        flit_hops: u64,
    ) -> RunStats {
        let packets = view.packets();
        let (ms, me) = (WARMUP_CYCLES, WARMUP_CYCLES + MEASURE_CYCLES);
        let window_latencies: Vec<u64> = packets
            .iter()
            .filter(|p| p.created >= ms && p.created < me)
            .filter_map(Packet::latency)
            .collect();
        let mut problems = Vec::new();
        if report.deadlocked {
            problems.push(format!("{label}: deadlocked at cycle {}", report.end_cycle));
        }
        if let Err(e) = conservation(view) {
            problems.push(format!("{label}: {e}"));
        }
        let latency_mass: u64 = window_latencies.iter().sum();
        if report.blame.total() != latency_mass {
            problems.push(format!(
                "{label}: blame totals {} != window latency mass {latency_mass}",
                report.blame.total()
            ));
        }
        RunStats {
            label,
            engine,
            grants: packets.iter().map(|p| u64::from(p.hops)).sum(),
            retained: packets.len() as u64,
            flit_hops,
            report,
            window_latencies,
            problems,
        }
    }
}

/// Packet conservation: every generated packet is delivered, dropped, or
/// still queued or in flight — and exactly one of those.
fn conservation(view: &dyn EngineView) -> Result<(), String> {
    let packets = view.packets();
    let mut live = vec![false; packets.len()];
    let mut mark = |id: u32| -> Result<(), String> {
        let slot = live
            .get_mut(id as usize)
            .ok_or_else(|| format!("unknown packet p{id} in the network"))?;
        *slot = true;
        Ok(())
    };
    for node in 0..view.num_nodes() {
        for id in view.queued(node) {
            mark(id)?;
        }
        if let Some(id) = view.emitting(node) {
            mark(id)?;
        }
    }
    for slot in 0..view.num_slots() {
        if let Some(id) = view.slot_owner(slot) {
            mark(id)?;
        }
        for id in view.slot_packets(slot) {
            mark(id)?;
        }
    }
    for (p, &in_network) in packets.iter().zip(&live) {
        let resolved = p.delivered.is_some() || p.dropped.is_some();
        if resolved == in_network {
            return Err(format!(
                "packet {} is {} yet {} in the network",
                p.id,
                if resolved { "resolved" } else { "unresolved" },
                if in_network { "still" } else { "not" },
            ));
        }
    }
    Ok(())
}

/// Cycles the untraced wormhole runs step between two clock readings.
const PIECE_CYCLES: u64 = 250;

/// One repetition of the workload's fixed work.
#[derive(Debug, Default)]
pub struct Rep {
    pub runs: Vec<RunStats>,
    /// Simulation plus output checks; engine construction is outside.
    pub work_ns: u64,
    /// Untraced only: `work_ns` split into pieces that are the same work
    /// in every repetition, in order: each `PIECE_CYCLES` cycles of a
    /// wormhole run, a whole `VcSim` run, and each run's output checks.
    pub piece_ns: Vec<u64>,
    /// Cycles simulated, both engines.
    pub cycles: u64,
    /// Traced only: wall time of every profiled wormhole step.
    pub step_ns: Vec<u64>,
}

/// Run every simulation of the workload once. With tracing on, the
/// wormhole engine steps through `step_profiled` and the layer wrappers
/// count and time the calls; with it off, the bare objects run.
pub fn run_rep(rate: f64, seed: u64, tracer: &mut Tracer) -> Rep {
    let fx = Fixture::new();
    let mut rep = Rep::default();
    for (index, alg, pat) in fx.runs() {
        let cfg = config(rate, seed, index);
        let label = format!(
            "{}/{}",
            alg.map_or(fx.double_y.name(), |a| a.name()),
            pat.name()
        );
        let stats = match (alg, tracer.enabled()) {
            (Some(alg), false) => {
                // The loop of `Sim::run`, read off the clock every
                // `PIECE_CYCLES` cycles.
                let mut sim = Sim::new(&fx.mesh, alg, pat, cfg);
                let end = WARMUP_CYCLES + MEASURE_CYCLES + DRAIN_CYCLES;
                sim.set_measure_window(WARMUP_CYCLES, WARMUP_CYCLES + MEASURE_CYCLES);
                while sim.now() < end && !sim.deadlocked() {
                    let t = Instant::now();
                    let piece_end = (sim.now() + PIECE_CYCLES).min(end);
                    while sim.now() < piece_end && !sim.deadlocked() {
                        sim.step();
                    }
                    rep.piece(t);
                }
                let t = Instant::now();
                let report = sim.report();
                let stats =
                    RunStats::collect(label, "sim", &sim, report, sim.total_channel_flits());
                rep.piece(t);
                stats
            }
            (None, false) => {
                let mut sim = VcSim::new(&fx.mesh, &fx.double_y, pat, cfg);
                let t = Instant::now();
                let report = sim.run();
                rep.piece(t);
                let t = Instant::now();
                let stats = RunStats::collect(label, "vc", &sim, report, 0);
                rep.piece(t);
                stats
            }
            (Some(alg), true) => traced_wormhole(&fx, alg, pat, cfg, label, tracer, &mut rep),
            (None, true) => traced_vc(&fx, pat, cfg, label, tracer, &mut rep),
        };
        rep.cycles += stats.report.end_cycle;
        rep.runs.push(stats);
    }
    rep
}

fn elapsed(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Rep {
    /// Close a piece of untraced work that started at `t`.
    fn piece(&mut self, t: Instant) {
        let ns = elapsed(t);
        self.piece_ns.push(ns);
        self.work_ns += ns;
    }
}

fn traced_wormhole(
    fx: &Fixture,
    alg: &dyn RoutingFunction,
    pat: &dyn TrafficPattern,
    cfg: SimConfig,
    label: String,
    tracer: &mut Tracer,
    rep: &mut Rep,
) -> RunStats {
    let routing = TimedRouting::new(alg);
    let pattern = TimedPattern::new(pat);
    tracer.open("bench.setup", label.clone());
    let mut sim = Sim::new(&fx.mesh, &routing, &pattern, cfg);
    tracer.close();

    let t = Instant::now();
    tracer.open("sim.run", label.clone());
    let mut prof = PhaseProfiler::new();
    let end = WARMUP_CYCLES + MEASURE_CYCLES + DRAIN_CYCLES;
    sim.set_measure_window(WARMUP_CYCLES, WARMUP_CYCLES + MEASURE_CYCLES);
    while sim.now() < end && !sim.deadlocked() {
        let step = Instant::now();
        sim.step_profiled(&mut prof);
        rep.step_ns.push(elapsed(step));
    }
    let report = sim.report();
    let run = tracer.close().expect("traced");
    for phase in Phase::ALL {
        let id = tracer.aggregate(run, phase_span(phase), prof.cycles(), prof.nanos(phase));
        match phase {
            Phase::Injection => {
                let m = &pattern.meter;
                tracer.aggregate(id, "traffic.dest", m.calls(), m.nanos());
            }
            Phase::Arbitration => {
                let m = &routing.meter;
                tracer.aggregate(id, "routing.route", m.calls(), m.nanos());
            }
            _ => {}
        }
    }
    tracer.open("bench.check", label.clone());
    let stats = RunStats::collect(label, "sim", &sim, report, sim.total_channel_flits());
    tracer.close();
    rep.work_ns += elapsed(t);
    stats
}

fn traced_vc(
    fx: &Fixture,
    pat: &dyn TrafficPattern,
    cfg: SimConfig,
    label: String,
    tracer: &mut Tracer,
    rep: &mut Rep,
) -> RunStats {
    let routing = TimedVcRouting::new(&fx.double_y);
    let pattern = TimedPattern::new(pat);
    tracer.open("bench.setup", label.clone());
    let mut sim = VcSim::new(&fx.mesh, &routing, &pattern, cfg);
    tracer.close();

    let t = Instant::now();
    tracer.open("vc.run", label.clone());
    let report = sim.run();
    let run = tracer.close().expect("traced");
    let m = &routing.meter;
    tracer.aggregate(run, "vc.route", m.calls(), m.nanos());
    let m = &pattern.meter;
    tracer.aggregate(run, "traffic.dest", m.calls(), m.nanos());
    tracer.open("bench.check", label.clone());
    let stats = RunStats::collect(label, "vc", &sim, report, 0);
    tracer.close();
    rep.work_ns += elapsed(t);
    stats
}

/// Span name of an engine phase.
pub fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Injection => "sim.injection",
        Phase::Routing => "sim.routing",
        Phase::Arbitration => "sim.arbitration",
        Phase::Traversal => "sim.traversal",
        Phase::Drain => "sim.drain",
    }
}

/// Simulated results pooled over the runs of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pooled {
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub accepted_flits_per_node_cycle: f64,
}

pub fn pooled(runs: &[RunStats]) -> Pooled {
    let mut lat: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.window_latencies.iter().copied())
        .collect();
    lat.sort_unstable();
    let nodes = f64::from(SIDE) * f64::from(SIDE);
    let accepted: u64 = runs
        .iter()
        .map(|r| r.report.delivered_flits_in_window)
        .sum();
    Pooled {
        latency_p50: crate::report::nearest_rank(&lat, 0.50) as f64,
        latency_p99: crate::report::nearest_rank(&lat, 0.99) as f64,
        accepted_flits_per_node_cycle: accepted as f64
            / (nodes * MEASURE_CYCLES as f64 * runs.len() as f64),
    }
}
