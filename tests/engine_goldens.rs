//! Exact behaviour goldens for both wormhole engines.
//!
//! Each case runs one seeded simulation and renders its report plus a
//! digest of every packet's `(delivered, hops, misroutes)` outcome. The
//! renderings are compared byte for byte against `tests/golden/engines.txt`,
//! so any change to arbitration order, candidate sets, RNG consumption or
//! timing shows up as a diff. The cases cover the routing paths most
//! likely to drift under an engine refactor: nonminimal misroute budgets,
//! transient faults, healing holds and quarantines, random policies,
//! routing delay, deeper buffers and the virtual-channel engine under
//! faults.
//!
//! Regenerate the golden file (only when a behaviour change is intended)
//! with `TURNROUTE_BLESS=1 cargo test --test engine_goldens`.

use std::fmt::Write as _;
use turnroute::routing::{mesh2d, RoutingMode};
use turnroute::sim::{FaultPlan, InputPolicy, OutputPolicy, Packet, Sim, SimConfig, SimReport};
use turnroute::topology::{Direction, Mesh, NodeId, Topology};
use turnroute::traffic::Uniform;
use turnroute::vc::{DoubleYAdaptive, VcSim};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engines.txt");

/// A loaded 8x8 run long enough to saturate hot spots and short enough
/// for a debug-build test.
fn loaded(seed: u64) -> turnroute::sim::SimConfigBuilder {
    SimConfig::builder()
        .injection_rate(0.2)
        .warmup_cycles(200)
        .measure_cycles(1_000)
        .drain_cycles(800)
        .deadlock_threshold(3_000)
        .seed(seed)
}

/// FNV-1a over every packet's outcome, in packet-id order.
fn render(name: &str, report: &SimReport, packets: &[Packet]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut delivered, mut hops, mut misroutes) = (0u64, 0u64, 0u64);
    for p in packets {
        let d = p.delivered.map_or(u64::MAX, |t| t);
        for word in [d, u64::from(p.hops), u64::from(p.misroutes)] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        delivered += u64::from(p.delivered.is_some());
        hops += u64::from(p.hops);
        misroutes += u64::from(p.misroutes);
    }
    let mut out = String::new();
    writeln!(out, "[{name}]").unwrap();
    writeln!(out, "report {report:?}").unwrap();
    writeln!(
        out,
        "packets n={} delivered={delivered} hops={hops} misroutes={misroutes} fnv={hash:016x}",
        packets.len()
    )
    .unwrap();
    out
}

fn nonminimal_misroute_budget() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::west_first(RoutingMode::Nonminimal);
    let cfg = loaded(101).misroute_budget(2).build();
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    assert!(r.avg_misroutes > 0.0, "the case must exercise misroutes");
    render(
        "west-first nonminimal, misroute budget 2",
        &r,
        sim.packets(),
    )
}

fn transient_faults() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::west_first(RoutingMode::Nonminimal);
    let plan = FaultPlan::new()
        .transient_link(NodeId(27), Direction::EAST, 300, 400)
        .transient_link(NodeId(36), Direction::NORTH, 500, 300)
        .transient_node(NodeId(45), 700, 250);
    let cfg = loaded(102)
        .misroute_budget(1)
        .packet_timeout(900)
        .max_retries(1)
        .fault_plan(plan)
        .build();
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    render("west-first nonminimal, transient faults", &r, sim.packets())
}

fn hold_and_quarantine() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::negative_first(RoutingMode::Minimal);
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, loaded(103).build());
    sim.set_measure_window(200, 1_200);
    let held = mesh.node_at_coords(&[3, 4]);
    let quarantined = mesh.node_at_coords(&[4, 3]);
    while sim.now() < 2_000 && !sim.deadlocked() {
        match sim.now() {
            300 => sim.set_hold(held, true),
            400 => sim.set_quarantine(quarantined, Direction::EAST, true),
            450 => sim.set_hold(held, false),
            700 => sim.set_quarantine(quarantined, Direction::EAST, false),
            900 => sim.set_quarantine(quarantined, Direction::NORTH, true),
            1_100 => sim.set_quarantine(quarantined, Direction::NORTH, false),
            _ => {}
        }
        sim.step();
    }
    let r = sim.report();
    render(
        "negative-first, hold and quarantine toggled",
        &r,
        sim.packets(),
    )
}

fn random_policies() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::north_last(RoutingMode::Minimal);
    let cfg = loaded(104)
        .input_policy(InputPolicy::Random)
        .output_policy(OutputPolicy::Random)
        .build();
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    render("north-last, random input and output", &r, sim.packets())
}

fn routing_delay() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::west_first(RoutingMode::Minimal);
    let cfg = loaded(105).routing_delay(2).build();
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    render("west-first, routing delay 2", &r, sim.packets())
}

fn deep_buffers() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = mesh2d::negative_first(RoutingMode::Minimal);
    let cfg = loaded(106).buffer_depth(2).build();
    let pattern = Uniform::new();
    let mut sim = Sim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    render("negative-first, buffer depth 2", &r, sim.packets())
}

fn vc_under_faults() -> String {
    let mesh = Mesh::new_2d(8, 8);
    let alg = DoubleYAdaptive::new();
    let plan = FaultPlan::random_links(&mesh, 0.05, 300, 11)
        .transient_node(NodeId(19), 500, 400)
        .transient_link(NodeId(42), Direction::NORTH, 200, 600);
    let cfg = loaded(107)
        .injection_rate(0.15)
        .packet_timeout(900)
        .max_retries(1)
        .fault_plan(plan)
        .build();
    let pattern = Uniform::new();
    let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
    let r = sim.run();
    render("double-y VcSim, faults", &r, sim.packets())
}

#[test]
fn engines_match_their_goldens() {
    let rendered = [
        nonminimal_misroute_budget(),
        transient_faults(),
        hold_and_quarantine(),
        random_policies(),
        routing_delay(),
        deep_buffers(),
        vc_under_faults(),
    ]
    .concat();
    if std::env::var_os("TURNROUTE_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read golden file");
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "engine behaviour drifted from the golden");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
