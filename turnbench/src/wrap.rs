//! Counting and timing wrappers around the layer traits the engines call
//! on every cycle. The traced run hands these to the engines; the
//! untraced run passes the bare objects, because timing every `route()`
//! call costs a measurable share of a saturated cycle.
//!
//! Every wrapper forwards each trait method, so an engine cannot tell a
//! wrapped object from the bare one and simulates the same network.

use std::cell::Cell;
use std::time::Instant;
use turnroute_model::{RoutingFunction, TurnSet};
use turnroute_rng::RngCore;
use turnroute_topology::{DirSet, Direction, Mesh, NodeId, Topology};
use turnroute_traffic::TrafficPattern;
use turnroute_vc::{VcRoutingFunction, VirtualDirection};

/// Calls made and nanoseconds spent in one wrapped method.
#[derive(Debug, Default)]
pub struct Meter {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Meter {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }
}

/// A [`RoutingFunction`] whose `route()` calls are counted and timed.
pub struct TimedRouting<'a> {
    inner: &'a dyn RoutingFunction,
    pub meter: Meter,
}

impl<'a> TimedRouting<'a> {
    pub fn new(inner: &'a dyn RoutingFunction) -> TimedRouting<'a> {
        TimedRouting {
            inner,
            meter: Meter::default(),
        }
    }
}

impl RoutingFunction for TimedRouting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        arrived: Option<Direction>,
    ) -> DirSet {
        self.meter
            .time(|| self.inner.route(topo, current, dest, arrived))
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn turn_set(&self, num_dims: usize) -> Option<TurnSet> {
        self.inner.turn_set(num_dims)
    }
}

/// A [`VcRoutingFunction`] whose `route()` calls are counted and timed.
pub struct TimedVcRouting<'a> {
    inner: &'a dyn VcRoutingFunction,
    pub meter: Meter,
}

impl<'a> TimedVcRouting<'a> {
    pub fn new(inner: &'a dyn VcRoutingFunction) -> TimedVcRouting<'a> {
        TimedVcRouting {
            inner,
            meter: Meter::default(),
        }
    }
}

impl VcRoutingFunction for TimedVcRouting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(
        &self,
        mesh: &Mesh,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> Vec<VirtualDirection> {
        self.meter
            .time(|| self.inner.route(mesh, current, dest, arrived))
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn channel_exists(&self, vd: VirtualDirection) -> bool {
        self.inner.channel_exists(vd)
    }
}

/// A [`TrafficPattern`] whose `dest()` calls are counted and timed.
pub struct TimedPattern<'a> {
    inner: &'a dyn TrafficPattern,
    pub meter: Meter,
}

impl<'a> TimedPattern<'a> {
    pub fn new(inner: &'a dyn TrafficPattern) -> TimedPattern<'a> {
        TimedPattern {
            inner,
            meter: Meter::default(),
        }
    }
}

impl TrafficPattern for TimedPattern<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        self.meter.time(|| self.inner.dest(topo, src, rng))
    }
}
