//! `turnbench` — the repository benchmark.
//!
//! ```text
//! turnbench --workload <mesh16_saturated|mesh16_sparse|verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's fixed work for `--seconds`, checks every
//! output, and prints one JSON result object as its last line of
//! standard output: the end-to-end metrics from an untraced run
//! (`--trace 0`), or the per-layer metrics from a traced run
//! (`--trace 1`). See `BENCHMARK.md` beside this crate.

mod mesh;
mod report;
mod trace;
mod verify;
mod wrap;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, metric, ratio, Metric};
use trace::{Totals, Tracer};

const USAGE: &str = "usage: turnbench --workload <mesh16_saturated|mesh16_sparse|verify> \
                     --seed <n> --seconds <1-600> --trace <0|1>";

/// Timed set-ups before every repetition; `setup_s` is their median.
/// The first after a repetition runs with cold caches.
const SETUP_PER_REP: usize = 15;

/// End-to-end metrics, printed by the untraced run, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_s", "1/s"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed by the traced run, in output order. A
/// layer the workload does not call reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("sim.injection.ns_per_cycle", "ns"),
    ("sim.routing.ns_per_cycle", "ns"),
    ("sim.arbitration.ns_per_cycle", "ns"),
    ("sim.traversal.ns_per_cycle", "ns"),
    ("sim.drain.ns_per_cycle", "ns"),
    ("sim.step.ns_p50", "ns"),
    ("sim.step.ns_p99", "ns"),
    ("sim.flit_hops", "count"),
    ("sim.grants", "count"),
    ("sim.stall_cycles", "cycles"),
    ("sim.blame.queue_cycles", "cycles"),
    ("sim.blame.blocked_cycles", "cycles"),
    ("sim.blame.service_cycles", "cycles"),
    ("sim.blame.misroute_cycles", "cycles"),
    ("sim.packets_retained", "count"),
    ("sim.latency_p50_cycles", "cycles"),
    ("sim.latency_p99_cycles", "cycles"),
    ("sim.accepted_flits_per_node_cycle", "flit/node/cycle"),
    ("routing.route_calls", "count"),
    ("routing.route_ns", "ns"),
    ("routing.grant_ratio", "ratio"),
    ("traffic.dest_calls", "count"),
    ("traffic.dest_ns", "ns"),
    ("vc.step.ns_per_cycle", "ns"),
    ("vc.route_calls", "count"),
    ("vc.grant_ratio", "ratio"),
    ("analysis.extract.ms", "ms"),
    ("analysis.prove.ms", "ms"),
    ("analysis.check.ms", "ms"),
    ("analysis.synth.ms", "ms"),
    ("analysis.extract.deps", "count"),
    ("analysis.prove.certified_pairs", "count"),
    ("analysis.check.path_steps", "count"),
    ("analysis.synth.cut_edges", "count"),
    ("analysis.synth.escape_channels", "count"),
    ("analysis.config_ms_p50", "ms"),
    ("analysis.config_ms_p90", "ms"),
    ("analysis.mc.ms", "ms"),
    ("analysis.mc.states", "count"),
    ("analysis.mc.transitions", "count"),
    ("analysis.mc.states_per_transition", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("bench.traced_reps", "count"),
    ("bench.untraced_reps", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Saturated,
    Sparse,
    Verify,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Saturated => "mesh16_saturated",
            Workload::Sparse => "mesh16_sparse",
            Workload::Verify => "verify",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "mesh16_saturated" => Workload::Saturated,
                    "mesh16_sparse" => Workload::Sparse,
                    "verify" => Workload::Verify,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1 to 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn metrics(&self, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|&(name, unit)| metric(name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("turnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = report::provenance(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("provenance {provenance}");

    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload {
        Workload::Saturated => mesh_workload(mesh::SATURATED_RATE, &args, &mut tracer),
        Workload::Sparse => mesh_workload(mesh::SPARSE_RATE, &args, &mut tracer),
        Workload::Verify => verify_workload(&args, &mut tracer),
    };
    if args.trace {
        self_time_notes(&tracer, &mut out);
    }
    let ok_share = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    out.set("ok_share", ok_share);

    for note in &out.notes {
        println!("{note}");
    }
    for problem in out.problems.iter().take(20) {
        eprintln!("turnbench: FAILED {problem}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = out.failed == 0;
    let line = report::result_json(correct, out.attempted, out.failed, &out.metrics(names));
    if let Err(e) = save(&args, &provenance, &line, &tracer) {
        eprintln!("turnbench: could not save results: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Append the result to `out/results.jsonl` and, for a traced run, write
/// the spans to `out/spans-<workload>-seed<n>.jsonl`.
fn save(args: &Args, provenance: &str, line: &str, tracer: &Tracer) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut results = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    writeln!(results, "{{\"provenance\":{provenance},\"result\":{line}}}")?;
    results.flush()?;
    if args.trace {
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let mut body = format!("{{\"provenance\":{provenance}}}\n");
        body.push_str(&tracer.to_jsonl());
        std::fs::write(path, body)?;
    }
    Ok(())
}

/// The repetitions of one invocation.
struct Reps<R> {
    untraced: Vec<R>,
    traced: Vec<R>,
    /// Set-up times, `SETUP_PER_REP` before every repetition.
    setup_s: Vec<f64>,
    /// Peak resident memory once the first repetition has run. Later
    /// repetitions only add allocator history, which varies with how
    /// many fit in the measuring time.
    peak_rss_mb: f64,
}

/// Repetitions of the workload in rounds, until another round as long as
/// the last would end past `seconds`. A round is one untraced repetition,
/// or for a traced run an untraced and a traced one. So a run takes about
/// `seconds`, however long a repetition is. Before every repetition the
/// set-up runs `SETUP_PER_REP` times on its own, timed: by then the
/// process is warm, so `setup_s` measures set-up work, not start-up.
fn repeat<R>(
    seconds: u64,
    trace: bool,
    tracer: &mut Tracer,
    mut setup: impl FnMut(),
    mut f: impl FnMut(&mut Tracer) -> R,
) -> Reps<R> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut round_start = Instant::now();
    loop {
        for _ in 0..SETUP_PER_REP {
            let t = Instant::now();
            setup();
            reps.setup_s.push(t.elapsed().as_secs_f64());
        }
        if trace && reps.untraced.len() > reps.traced.len() {
            tracer.set_run(reps.traced.len() as u32);
            tracer.open("bench.rep", "");
            reps.traced.push(f(tracer));
            tracer.close();
        } else {
            reps.untraced.push(f(&mut Tracer::new(false)));
        }
        if reps.untraced.len() + reps.traced.len() == 1 {
            reps.peak_rss_mb = report::peak_rss_mb();
        }
        let paired = !trace || reps.traced.len() == reps.untraced.len();
        if paired {
            if start.elapsed() + round_start.elapsed() >= budget {
                return reps;
            }
            round_start = Instant::now();
        }
    }
}

/// Host time of a repetition, in seconds, from its pieces: the sum over
/// piece positions of the fastest time any repetition took for that
/// piece. A piece is the same work in every repetition, so each minimum
/// is that work's least-disturbed time. Contention from other tenants of
/// the host only ever adds time, and on a shared VM it comes and goes in
/// spells of seconds to minutes, longer than a repetition; pieces of
/// milliseconds, each timed many times over a run, find the quiet moments
/// inside a spell, where whole repetitions rarely do.
fn best_seconds<'a>(reps: impl Iterator<Item = &'a [u64]>) -> f64 {
    let mut best: Vec<u64> = Vec::new();
    for pieces in reps {
        for (i, &ns) in pieces.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = (*b).min(ns),
                None => best.push(ns),
            }
        }
    }
    best.iter().sum::<u64>() as f64 / 1e9
}

/// Host time of a repetition, in seconds: the low decile (nearest rank)
/// of the repetitions' times, which is the fastest one when fewer than
/// eleven ran. Used to compare traced with untraced repetitions, whose
/// work is split into different pieces.
fn host_seconds(ns: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = ns.collect();
    v.sort_unstable();
    report::nearest_rank(&v, 0.10) as f64 / 1e9
}

/// The untraced repetitions' work times, the samples behind `wall_s`.
fn rep_note(work_ns: impl Iterator<Item = u64>) -> String {
    let secs: Vec<String> = work_ns
        .map(|ns| format!("{:.3}", ns as f64 / 1e9))
        .collect();
    format!(
        "untraced repetitions ({}), work s: {}",
        secs.len(),
        secs.join(" ")
    )
}

/// Check that every repetition after the first reproduced it exactly.
fn check_repeats<T: PartialEq>(out: &mut Outcome, what: &str, first: &T, rest: &[&T]) {
    for (i, r) in rest.iter().enumerate() {
        out.check(first == *r, || {
            format!("{what} repetition {} differs from the first", i + 1)
        });
    }
}

fn mesh_workload(rate: f64, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let reps = repeat(
        args.seconds,
        args.trace,
        tracer,
        || {
            black_box(mesh::setup(rate, args.seed));
        },
        |t| mesh::run_rep(rate, args.seed, t),
    );
    out.set("setup_s", median(&reps.setup_s));
    out.set("peak_rss_mb", reps.peak_rss_mb);
    let (untraced, traced) = (reps.untraced, reps.traced);
    for rep in untraced.iter().chain(&traced) {
        for run in &rep.runs {
            out.check(run.problems.is_empty(), || run.problems.join("; "));
        }
    }
    let first = &untraced[0].runs;
    let rest: Vec<_> = untraced[1..].iter().map(|r| &r.runs).collect();
    check_repeats(&mut out, "untraced", first, &rest);
    let rest: Vec<_> = traced.iter().map(|r| &r.runs).collect();
    check_repeats(&mut out, "traced vs untraced", first, &rest);

    let work = |reps: &[mesh::Rep]| host_seconds(reps.iter().map(|r| r.work_ns));
    let wall = best_seconds(untraced.iter().map(|r| &r.piece_ns[..]));
    out.notes.push(rep_note(untraced.iter().map(|r| r.work_ns)));
    out.set("wall_s", wall);
    out.set("sim_cycles_per_s", ratio(untraced[0].cycles as f64, wall));
    out.set("bench.untraced_reps", untraced.len() as f64);
    out.set("bench.traced_reps", traced.len() as f64);
    if args.trace {
        out.set("trace.overhead", work(&traced) / work(&untraced) - 1.0);
        mesh_layers(&mut out, &untraced[0].runs, &traced, tracer);
    }
    let pooled = mesh::pooled(first);
    out.notes.push(format!(
        "simulated (unvalidated against hardware): latency p50 {} p99 {} cycles, accepted {:.5} flits/node/cycle over {} runs",
        pooled.latency_p50, pooled.latency_p99, pooled.accepted_flits_per_node_cycle, first.len()
    ));
    out
}

/// Per-layer metrics of the mesh workloads, from the traced repetitions.
fn mesh_layers(out: &mut Outcome, runs: &[mesh::RunStats], traced: &[mesh::Rep], tracer: &Tracer) {
    let totals = tracer.totals();
    let get = |run: usize, name: &str| -> Totals {
        totals.get(&(run as u32, name)).copied().unwrap_or_default()
    };
    let per_rep = |f: &dyn Fn(usize) -> f64| median(&(0..traced.len()).map(f).collect::<Vec<_>>());

    let sim_cycles = get(0, "sim.injection").count as f64;
    for phase in turnroute_sim::Phase::ALL {
        let name = mesh::phase_span(phase);
        let metric_name = match phase {
            turnroute_sim::Phase::Injection => "sim.injection.ns_per_cycle",
            turnroute_sim::Phase::Routing => "sim.routing.ns_per_cycle",
            turnroute_sim::Phase::Arbitration => "sim.arbitration.ns_per_cycle",
            turnroute_sim::Phase::Traversal => "sim.traversal.ns_per_cycle",
            turnroute_sim::Phase::Drain => "sim.drain.ns_per_cycle",
        };
        out.set(
            metric_name,
            per_rep(&|r| ratio(get(r, name).busy_ns as f64, sim_cycles)),
        );
    }
    let mut steps: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.step_ns.iter().copied())
        .collect();
    steps.sort_unstable();
    out.set("sim.step.ns_p50", report::nearest_rank(&steps, 0.50) as f64);
    out.set("sim.step.ns_p99", report::nearest_rank(&steps, 0.99) as f64);

    let sum = |engine: &str, f: &dyn Fn(&mesh::RunStats) -> u64| -> f64 {
        runs.iter()
            .filter(|r| r.engine == engine)
            .map(f)
            .sum::<u64>() as f64
    };
    let grants = sum("sim", &|r| r.grants);
    out.set("sim.flit_hops", sum("sim", &|r| r.flit_hops));
    out.set("sim.grants", grants);
    out.set(
        "sim.stall_cycles",
        sum("sim", &|r| r.report.total_stall_cycles),
    );
    out.set(
        "sim.blame.queue_cycles",
        sum("sim", &|r| r.report.blame.queue_cycles),
    );
    out.set(
        "sim.blame.blocked_cycles",
        sum("sim", &|r| r.report.blame.blocked_cycles),
    );
    out.set(
        "sim.blame.service_cycles",
        sum("sim", &|r| r.report.blame.service_cycles),
    );
    out.set(
        "sim.blame.misroute_cycles",
        sum("sim", &|r| r.report.blame.misroute_cycles),
    );
    out.set(
        "sim.packets_retained",
        runs.iter().map(|r| r.retained).sum::<u64>() as f64,
    );
    let pooled = mesh::pooled(runs);
    out.set("sim.latency_p50_cycles", pooled.latency_p50);
    out.set("sim.latency_p99_cycles", pooled.latency_p99);
    out.set(
        "sim.accepted_flits_per_node_cycle",
        pooled.accepted_flits_per_node_cycle,
    );

    let route_calls = get(0, "routing.route").count as f64;
    out.set("routing.route_calls", route_calls);
    out.set(
        "routing.route_ns",
        per_rep(&|r| get(r, "routing.route").busy_ns as f64),
    );
    out.set("routing.grant_ratio", ratio(grants, route_calls));
    out.set("traffic.dest_calls", get(0, "traffic.dest").count as f64);
    out.set(
        "traffic.dest_ns",
        per_rep(&|r| get(r, "traffic.dest").busy_ns as f64),
    );

    let vc_cycles = sum("vc", &|r| r.report.end_cycle);
    out.set(
        "vc.step.ns_per_cycle",
        per_rep(&|r| ratio(get(r, "vc.run").busy_ns as f64, vc_cycles)),
    );
    let vc_calls = get(0, "vc.route").count as f64;
    out.set("vc.route_calls", vc_calls);
    out.set("vc.grant_ratio", ratio(sum("vc", &|r| r.grants), vc_calls));
}

fn verify_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (checked, problems) = verify::check_matrix();
    out.attempted += checked;
    out.failed += problems.len() as u64;
    out.problems.extend(problems);
    let catalog = verify::Catalog::new(args.seed);
    let reps = repeat(
        args.seconds,
        args.trace,
        tracer,
        || {
            black_box(verify::Catalog::new(args.seed).len());
        },
        |t| verify::run_rep(&catalog, t),
    );
    out.set("setup_s", median(&reps.setup_s));
    out.set("peak_rss_mb", reps.peak_rss_mb);
    let (untraced, traced) = (reps.untraced, reps.traced);
    for rep in untraced.iter().chain(&traced) {
        out.attempted += rep.attempted;
        out.failed += rep.problems.len() as u64;
        out.problems.extend(rep.problems.iter().cloned());
    }
    let key = |r: &verify::Rep| (r.counters.clone(), r.verdicts.clone());
    let first = key(&untraced[0]);
    let rest: Vec<_> = untraced[1..].iter().chain(&traced).map(key).collect();
    check_repeats(&mut out, "verify", &first, &rest.iter().collect::<Vec<_>>());

    let work = |reps: &[verify::Rep]| host_seconds(reps.iter().map(|r| r.work_ns));
    let mc_s = best_seconds(untraced.iter().map(|r| &r.mc_ns[..]));
    let wall = mc_s + best_seconds(untraced.iter().map(|r| &r.config_ns[..]));
    out.notes.push(rep_note(untraced.iter().map(|r| r.work_ns)));
    out.set("wall_s", wall);
    // The model checker steps the engines one cycle per transition.
    out.set(
        "sim_cycles_per_s",
        ratio(untraced[0].counters.mc_transitions as f64, mc_s),
    );
    out.set("bench.untraced_reps", untraced.len() as f64);
    out.set("bench.traced_reps", traced.len() as f64);
    let c = &untraced[0].counters;
    out.notes.push(format!(
        "verify: {} configs ({} cyclic, {} synthesized), {} model-checked configs, {} states",
        c.configs, c.cyclic, c.synthesized, c.mc_configs, c.mc_states
    ));
    if args.trace {
        out.set("trace.overhead", work(&traced) / work(&untraced) - 1.0);
        let totals = tracer.totals();
        let self_ms = |name: &str| {
            median(
                &(0..traced.len())
                    .map(|r| {
                        totals
                            .get(&(r as u32, name))
                            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
                    })
                    .collect::<Vec<_>>(),
            )
        };
        out.set("analysis.extract.ms", self_ms("analysis.extract"));
        out.set("analysis.prove.ms", self_ms("analysis.prove"));
        out.set("analysis.check.ms", self_ms("analysis.check"));
        out.set("analysis.synth.ms", self_ms("analysis.synth"));
        out.set("analysis.mc.ms", self_ms("analysis.mc"));
        out.set("analysis.extract.deps", c.extract_deps as f64);
        out.set(
            "analysis.prove.certified_pairs",
            c.prove_certified_pairs as f64,
        );
        out.set("analysis.check.path_steps", c.check_path_steps as f64);
        out.set("analysis.synth.cut_edges", c.synth_cut_edges as f64);
        out.set(
            "analysis.synth.escape_channels",
            c.synth_escape_channels as f64,
        );
        let mut config: Vec<u64> = traced
            .iter()
            .flat_map(|r| r.config_ns.iter().copied())
            .collect();
        config.sort_unstable();
        out.set(
            "analysis.config_ms_p50",
            report::nearest_rank(&config, 0.50) as f64 / 1e6,
        );
        out.set(
            "analysis.config_ms_p90",
            report::nearest_rank(&config, 0.90) as f64 / 1e6,
        );
        out.notes.push(format!(
            "verify: {} config samples in the traced repetitions",
            config.len()
        ));
        out.set("analysis.mc.states", c.mc_states as f64);
        out.set("analysis.mc.transitions", c.mc_transitions as f64);
        out.set(
            "analysis.mc.states_per_transition",
            ratio(c.mc_states as f64, c.mc_transitions as f64),
        );
    }
    out
}

/// Self time per layer, as a share of the traced repetitions' wall time,
/// and the share the named layers account for (`trace.coverage`).
fn self_time_notes(tracer: &Tracer, out: &mut Outcome) {
    let totals = tracer.totals();
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut rep_ns = 0u64;
    for (&(_, name), t) in &totals {
        if name == "bench.rep" {
            rep_ns += t.busy_ns;
        }
        *by_name.entry(name).or_default() += t.self_ns;
    }
    let unattributed = by_name.get("bench.rep").copied().unwrap_or(0);
    out.set(
        "trace.coverage",
        1.0 - ratio(unattributed as f64, rep_ns as f64),
    );
    let mut rows: Vec<(&str, u64)> = by_name.into_iter().collect();
    rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    out.notes
        .push("self time over all traced repetitions (layer, ms, share of traced wall):".into());
    for (name, ns) in rows {
        out.notes.push(format!(
            "  {name:<22} {:>10.1} {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ratio(ns as f64, rep_ns as f64)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload verify --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Verify);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn best_seconds_sums_the_fastest_time_of_each_piece() {
        let reps: [&[u64]; 3] = [&[5, 1, 9], &[2, 4, 9], &[3, 3, 7]];
        assert_eq!(best_seconds(reps.into_iter()), (2 + 1 + 7) as f64 / 1e9);
        assert_eq!(best_seconds(std::iter::empty()), 0.0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload verify --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload verify --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload verify --seed 1 --seconds 1").is_err());
        assert!(args("--workload verify --seed").is_err());
    }
}
