//! Differential test of the two wormhole engines.
//!
//! `Sim` and `VcSim` implement the same Section 6 model: single-flit
//! buffers, header reservation, tail release, source queues and
//! exponential arrivals. With one virtual-channel class, a physical
//! routing function offered to `VcSim` through [`OneClass`] sees the
//! same candidates in the same order as in `Sim`, and `VcSim`'s
//! first-free output choice is `Sim`'s default lowest-dimension policy.
//! The two engines must then agree on every report field and on every
//! packet's `(injected, delivered, hops, misroutes)`.
//!
//! The grid covers four minimal turn-model algorithms at three loads
//! under uniform traffic, plus one transpose run whose packets time out
//! and are retried or dropped.

use turnroute::model::RoutingFunction;
use turnroute::routing::{mesh2d, RoutingMode};
use turnroute::sim::{Packet, Sim, SimConfig, SimReport};
use turnroute::topology::{Mesh, NodeId};
use turnroute::traffic::{MeshTranspose, TrafficPattern, Uniform};
use turnroute::vc::{VcClass, VcRoutingFunction, VcSim, VirtualDirection};

/// A physical routing function as a one-class virtual-channel function.
struct OneClass<'a>(&'a dyn RoutingFunction);

impl VcRoutingFunction for OneClass<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(
        &self,
        mesh: &Mesh,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        self.0
            .route(mesh, current, dest, arrived.map(VirtualDirection::dir))
            .iter()
            .map(|d| VirtualDirection::new(d, VcClass::One))
            .collect()
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
    }

    fn num_classes(&self) -> usize {
        1
    }

    fn channel_exists(&self, vd: VirtualDirection) -> bool {
        vd.class() == VcClass::One
    }
}

type Outcome = (Option<u64>, Option<u64>, u32, u32);

fn outcomes(packets: &[Packet]) -> Vec<Outcome> {
    packets
        .iter()
        .map(|p| (p.injected, p.delivered, p.hops, p.misroutes))
        .collect()
}

/// Run both engines on the same inputs and assert they agree.
fn assert_engines_agree(
    mesh: &Mesh,
    routing: &dyn RoutingFunction,
    pattern: &dyn TrafficPattern,
    cfg: SimConfig,
) -> SimReport {
    let mut base = Sim::new(mesh, routing, pattern, cfg.clone());
    let base_report = base.run();
    let one_class = OneClass(routing);
    let mut vc = VcSim::new(mesh, &one_class, pattern, cfg);
    let vc_report = vc.run();
    let what = format!("{} / {}", routing.name(), pattern.name());
    assert_eq!(
        format!("{base_report:?}"),
        format!("{vc_report:?}"),
        "reports differ: {what}"
    );
    assert_eq!(
        outcomes(base.packets()),
        outcomes(vc.packets()),
        "packet outcomes differ: {what}"
    );
    base_report
}

fn cfg(rate: f64, seed: u64) -> turnroute::sim::SimConfigBuilder {
    SimConfig::builder()
        .injection_rate(rate)
        .warmup_cycles(200)
        .measure_cycles(800)
        .drain_cycles(600)
        .deadlock_threshold(3_000)
        .seed(seed)
}

#[test]
fn one_class_vc_sim_matches_sim_under_uniform_traffic() {
    let mesh = Mesh::new_2d(8, 8);
    let xy = mesh2d::xy();
    let west_first = mesh2d::west_first(RoutingMode::Minimal);
    let north_last = mesh2d::north_last(RoutingMode::Minimal);
    let negative_first = mesh2d::negative_first(RoutingMode::Minimal);
    let algorithms: [&dyn RoutingFunction; 4] = [&xy, &west_first, &north_last, &negative_first];
    let pattern = Uniform::new();
    for routing in algorithms {
        for rate in [0.02, 0.1, 0.3] {
            let report = assert_engines_agree(&mesh, routing, &pattern, cfg(rate, 1).build());
            assert!(report.delivered_packets > 0, "{} at {rate}", routing.name());
        }
    }
}

#[test]
fn one_class_vc_sim_matches_sim_through_timeouts_and_retries() {
    let mesh = Mesh::new_2d(8, 8);
    let routing = mesh2d::west_first(RoutingMode::Minimal);
    let pattern = MeshTranspose::new();
    let report = assert_engines_agree(
        &mesh,
        &routing,
        &pattern,
        cfg(0.3, 1).packet_timeout(300).max_retries(1).build(),
    );
    assert!(
        report.retries + report.dropped_packets > 0,
        "the case must exercise retries or drops: {report:?}"
    );
}
