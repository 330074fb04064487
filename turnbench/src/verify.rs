//! The `verify` workload: extract → prove → check over a catalog of
//! configurations, synthesize → prove → check on every cyclic one, and
//! model checking of the census-safe turn sets. No streaming simulation
//! runs here.

use std::time::Instant;
use turnroute_analysis::mc::{self, McOptions};
use turnroute_analysis::synth::{escape_dead_end, synthesize};
use turnroute_analysis::{check, extract, prove, Certificate, GraphSpec};
use turnroute_model::cycle::two_turn_census;
use turnroute_model::{presets, Turn, TurnSet};
use turnroute_rng::{Rng, SeedableRng, StdRng};
use turnroute_routing::torus::{NegativeFirstTorus, WrapOnFirstHop};
use turnroute_routing::{hypercube, mesh2d, RoutingFunction, RoutingMode};
use turnroute_topology::{Hypercube, Mesh, Torus};
use turnroute_vc::DoubleYAdaptive;

use crate::trace::Tracer;

/// Side of the 2D mesh the turn sets are proven on. Proving the
/// two-turn sets dominates the catalog's cost, which grows steeply with
/// the side; 8 keeps a repetition short, so that a run times each of
/// its pieces often (see BENCHMARK.md).
const MESH_SIDE: u16 = 8;
/// Seeded random netlists per extraction kind.
const NETLISTS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Acyclic,
    Cyclic,
}

/// How a catalog entry is lowered to a [`GraphSpec`].
enum Source {
    MeshTurnSet(TurnSet),
    Mesh3dTurnSet(TurnSet),
    TorusTurnSet(TurnSet),
    CubeRouting(usize),
    TorusRouting(usize),
    DoubleY,
    Netlist(usize),
    NetlistUnrestricted(usize),
}

struct Entry {
    name: String,
    source: Source,
    expect: Expect,
}

/// Topologies, routing objects, seeded netlists and the entry list.
pub struct Catalog {
    mesh: Mesh,
    mesh3d: Mesh,
    cube: Hypercube,
    torus: Torus,
    cube_algs: Vec<Box<dyn RoutingFunction>>,
    torus_algs: Vec<Box<dyn RoutingFunction>>,
    double_y: DoubleYAdaptive,
    netlists: Vec<(u32, Vec<(u32, u32)>)>,
    entries: Vec<Entry>,
    /// Two-turn pairs the census classes safe (the paper: 12 of 28).
    safe_pairs: usize,
    /// The census-safe sets, in census order.
    census_safe: Vec<TurnSet>,
}

impl Catalog {
    pub fn new(seed: u64) -> Catalog {
        let torus = Torus::new(8, 2);
        let mut c = Catalog {
            mesh: Mesh::new_2d(MESH_SIDE, MESH_SIDE),
            mesh3d: Mesh::new_cubic(4, 3),
            cube: Hypercube::new(6),
            cube_algs: vec![
                Box::new(hypercube::e_cube(6)),
                Box::new(hypercube::p_cube(6, RoutingMode::Minimal)),
            ],
            torus_algs: vec![
                Box::new(NegativeFirstTorus::new(2)),
                Box::new(WrapOnFirstHop::new(
                    mesh2d::west_first(RoutingMode::Minimal),
                    &torus,
                )),
            ],
            torus,
            double_y: DoubleYAdaptive::new(),
            netlists: Vec::new(),
            entries: Vec::new(),
            safe_pairs: 0,
            census_safe: Vec::new(),
        };
        c.add_entries(seed);
        c
    }

    fn push(&mut self, name: String, source: Source, expect: Expect) {
        self.entries.push(Entry {
            name,
            source,
            expect,
        });
    }

    fn add_entries(&mut self, seed: u64) {
        let side = MESH_SIDE;
        let named_2d = [
            ("xy", presets::xy_turns()),
            ("west-first", presets::west_first_turns()),
            ("north-last", presets::north_last_turns()),
            ("negative-first", presets::negative_first_turns(2)),
        ];
        for (nm, set) in named_2d {
            self.push(
                format!("mesh{side}/{nm}"),
                Source::MeshTurnSet(set),
                Expect::Acyclic,
            );
        }

        // All 28 pairs of prohibited 90-degree turns. The expected class
        // comes from the census on the 3×3 mesh, the smallest that shows
        // the paper's 12/4 split; a pair outside the census prohibits two
        // turns of one abstract cycle and leaves the other cycle whole.
        let census = two_turn_census(&Mesh::new_2d(3, 3));
        self.census_safe = census
            .entries
            .iter()
            .filter(|(_, free)| *free)
            .map(|(set, _)| set.clone())
            .collect();
        let turns = Turn::all_ninety(2);
        for i in 0..turns.len() {
            for j in (i + 1)..turns.len() {
                let mut set = TurnSet::all_ninety(2);
                set.prohibit(turns[i]);
                set.prohibit(turns[j]);
                let safe = census.entries.iter().any(|(s, free)| *free && *s == set);
                self.safe_pairs += usize::from(safe);
                self.push(
                    format!("mesh{side}/two-turn {{{}, {}}}", turns[i], turns[j]),
                    Source::MeshTurnSet(set),
                    if safe {
                        Expect::Acyclic
                    } else {
                        Expect::Cyclic
                    },
                );
            }
        }
        self.push(
            format!("mesh{side}/unrestricted"),
            Source::MeshTurnSet(TurnSet::all_ninety(2)),
            Expect::Cyclic,
        );

        let named_3d = [
            ("negative-first-3d", presets::negative_first_turns(3)),
            ("abonf-3d", presets::all_but_one_negative_first_turns(3)),
            ("abopl-3d", presets::all_but_one_positive_last_turns(3)),
        ];
        for (nm, set) in named_3d {
            self.push(
                format!("mesh4x4x4/{nm}"),
                Source::Mesh3dTurnSet(set),
                Expect::Acyclic,
            );
        }
        for i in 0..self.cube_algs.len() {
            let name = format!("6-cube/{}", self.cube_algs[i].name());
            self.push(name, Source::CubeRouting(i), Expect::Acyclic);
        }
        for i in 0..self.torus_algs.len() {
            let name = format!("8-ary 2-cube/{}", self.torus_algs[i].name());
            self.push(name, Source::TorusRouting(i), Expect::Acyclic);
        }
        self.push(
            "8-ary 2-cube/unrestricted".into(),
            Source::TorusTurnSet(TurnSet::all_ninety(2)),
            Expect::Cyclic,
        );
        self.push(
            format!("mesh{side}/double-y"),
            Source::DoubleY,
            Expect::Acyclic,
        );

        // Seeded random connected netlists: up*/down* is acyclic by
        // construction; unrestricted routing is cyclic exactly when the
        // netlist has an undirected cycle, i.e. more links than a tree.
        let mut rng = StdRng::seed_from_u64(crate::report::mix(seed, 0x4E7));
        for i in 0..NETLISTS {
            let (n, links) = random_netlist(&mut rng);
            self.push(
                format!("netlist{i}/up-down (n={n})"),
                Source::Netlist(self.netlists.len()),
                Expect::Acyclic,
            );
            self.netlists.push((n, links));
        }
        for i in 0..NETLISTS {
            let (n, links) = random_netlist(&mut rng);
            let expect = if links.len() >= n as usize {
                Expect::Cyclic
            } else {
                Expect::Acyclic
            };
            self.push(
                format!("netlist{i}/unrestricted (n={n})"),
                Source::NetlistUnrestricted(self.netlists.len()),
                expect,
            );
            self.netlists.push((n, links));
        }
    }

    fn extract(&self, e: &Entry) -> GraphSpec {
        let name = e.name.clone();
        match &e.source {
            Source::MeshTurnSet(set) => extract::from_turn_set(name, &self.mesh, set),
            Source::Mesh3dTurnSet(set) => extract::from_turn_set(name, &self.mesh3d, set),
            Source::TorusTurnSet(set) => extract::from_turn_set(name, &self.torus, set),
            Source::CubeRouting(i) => {
                extract::from_routing(name, &self.cube, self.cube_algs[*i].as_ref())
            }
            Source::TorusRouting(i) => {
                extract::from_routing(name, &self.torus, self.torus_algs[*i].as_ref())
            }
            Source::DoubleY => extract::from_vc_routing(name, &self.mesh, &self.double_y),
            Source::Netlist(i) => {
                let (n, links) = &self.netlists[*i];
                extract::from_netlist(name, *n, links)
            }
            Source::NetlistUnrestricted(i) => {
                let (n, links) = &self.netlists[*i];
                extract::from_netlist_unrestricted(name, *n, links)
            }
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A connected netlist of 8 to 24 nodes: a random spanning tree plus 0
/// to 6 extra distinct links.
fn random_netlist(rng: &mut StdRng) -> (u32, Vec<(u32, u32)>) {
    let n = rng.gen_range(8..=24u32);
    let extra = rng.gen_range(0..=6usize);
    let mut links: Vec<(u32, u32)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
    let mut attempts = 0;
    while links.len() < (n as usize - 1) + extra && attempts < 200 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let link = (a.min(b), a.max(b));
        if a != b && !links.contains(&link) {
            links.push(link);
        }
    }
    links.sort_unstable();
    (n, links)
}

/// Deterministic work counters of one repetition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub configs: u64,
    pub cyclic: u64,
    pub synthesized: u64,
    pub extract_deps: u64,
    pub prove_certified_pairs: u64,
    pub check_path_steps: u64,
    pub synth_cut_edges: u64,
    pub synth_escape_channels: u64,
    pub mc_configs: u64,
    pub mc_states: u64,
    pub mc_transitions: u64,
}

/// One repetition of the workload's fixed work.
#[derive(Debug, Default)]
pub struct Rep {
    pub counters: Counters,
    /// Verdict per catalog entry, in catalog order.
    pub verdicts: Vec<bool>,
    pub attempted: u64,
    pub problems: Vec<String>,
    pub work_ns: u64,
    /// Wall time of each model-checking certification.
    pub mc_ns: Vec<u64>,
    /// Wall time of each catalog entry's whole pipeline.
    pub config_ns: Vec<u64>,
}

fn path_steps(cert: &Certificate) -> u64 {
    cert.paths.iter().map(|p| p.path.len() as u64).sum()
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.open(name, "");
    let out = f();
    tracer.close();
    out
}

/// Prove `spec` and have the independent checker validate the result.
fn prove_and_check(
    spec: &GraphSpec,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> (Certificate, Result<(), String>) {
    let cert = timed(tracer, "analysis.prove", || prove::prove(spec));
    let checked = timed(tracer, "analysis.check", || check::check(spec, &cert));
    c.prove_certified_pairs += cert.paths.len() as u64;
    c.check_path_steps += path_steps(&cert);
    (cert, checked)
}

/// Run the quick turncheck matrix once and check every entry's claim:
/// the number of entries checked and the failures. It is an output check
/// of the model checker on both engines, untimed: its one call of about
/// half a second would be the largest piece of a repetition.
pub fn check_matrix() -> (u64, Vec<String>) {
    let report = mc::run(&McOptions {
        quick: true,
        ..McOptions::default()
    });
    let problems = report
        .entries
        .iter()
        .filter(|e| !e.ok())
        .map(|e| format!("mc {}: claim not verified", e.name))
        .collect();
    (report.entries.len() as u64, problems)
}

pub fn run_rep(catalog: &Catalog, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    rep.attempted += 1;
    if catalog.safe_pairs != 12 {
        rep.problems.push(format!(
            "census: {} safe two-turn pairs, expected 12",
            catalog.safe_pairs
        ));
    }
    // Each census-safe set certified deadlock free on the 2×2 mesh, a
    // piece of about 15 ms each: the smallest whole model-checking runs
    // the analysis crate exposes one by one.
    for set in &catalog.census_safe {
        let t = Instant::now();
        tracer.open("analysis.mc", "");
        let entry = mc::certify_set(2, set);
        tracer.close();
        rep.mc_ns.push(t.elapsed().as_nanos() as u64);
        rep.attempted += 1;
        let c = &mut rep.counters;
        c.mc_configs += 1;
        c.mc_states += entry.states as u64;
        c.mc_transitions += entry.transitions as u64;
        if !entry.ok() {
            rep.problems
                .push(format!("mc {}: claim not verified", entry.name));
        }
    }

    for e in &catalog.entries {
        let t = Instant::now();
        tracer.open("analysis.config", e.name.clone());
        rep.attempted += 1;
        let c = &mut rep.counters;
        c.configs += 1;
        let spec = timed(tracer, "analysis.extract", || catalog.extract(e));
        c.extract_deps += spec.deps.len() as u64;
        let (cert, checked) = prove_and_check(&spec, tracer, c);
        let acyclic = cert.verdict.is_acyclic();
        rep.verdicts.push(acyclic);
        if let Err(err) = checked {
            rep.problems
                .push(format!("{}: checker rejected: {err}", e.name));
        } else if acyclic != (e.expect == Expect::Acyclic) {
            rep.problems.push(format!(
                "{}: verdict {acyclic}, expected {:?}",
                e.name, e.expect
            ));
        } else if acyclic && !cert.unreachable.is_empty() {
            rep.problems.push(format!(
                "{}: {} unreachable pairs",
                e.name,
                cert.unreachable.len()
            ));
        }
        if !acyclic {
            rep.counters.cyclic += 1;
            rep.attempted += 1;
            if let Err(err) = synthesize_checked(&spec, tracer, &mut rep.counters) {
                rep.problems.push(format!("{}: synthesis: {err}", e.name));
            }
        }
        tracer.close();
        rep.config_ns.push(t.elapsed().as_nanos() as u64);
    }
    rep.work_ns = start.elapsed().as_nanos() as u64;
    rep
}

/// Synthesize an escape/adaptive split of a cyclic spec, re-prove it and
/// have the checker validate it. The span covers the whole step; the
/// prove and check inside it are its children, so synthesis self time
/// excludes them.
fn synthesize_checked(
    spec: &GraphSpec,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    tracer.open("analysis.synth", spec.name.clone());
    let out = (|| {
        let result = synthesize(spec)?;
        c.synthesized += 1;
        c.synth_cut_edges += result.feedback.len() as u64;
        c.synth_escape_channels += result.escape.len() as u64;
        let (cert, checked) = prove_and_check(&result.spec, tracer, c);
        checked?;
        if !cert.verdict.is_acyclic() {
            return Err("synthesized assignment is still cyclic".into());
        }
        if !cert.unreachable.is_empty() {
            return Err(format!("{} unreachable pairs", cert.unreachable.len()));
        }
        escape_dead_end(&result).map_or(Ok(()), Err)
    })();
    tracer.close();
    out
}
