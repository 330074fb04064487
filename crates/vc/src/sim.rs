//! Virtual-channel wormhole simulator.
//!
//! Shares with the base simulator everything outside the channel model
//! and arbitration: the packet [`Ledger`] (packet table, source queues,
//! arrivals, lifetimes and retries, latency blame, the measurement window
//! and the report), the readiness search of the flit advance
//! ([`Traversal`]), the route memo and the per-router scripted
//! arbitration loop. What is its own is the channel model — every virtual
//! channel has a private single-flit buffer, and each *physical* link
//! transfers at most one flit per cycle, shared by its virtual channels
//! (the bandwidth cost of virtual channels the paper points out: "it also
//! reduces the bandwidths of the virtual channels already sharing the
//! physical channel") — and its arbitration: local FCFS input selection
//! and the first free offered virtual channel.

use crate::{VcRoutingFunction, VirtualDirection};
use turnroute_rng::rngs::StdRng;
use turnroute_rng::SeedableRng;
use turnroute_sim::obs::{ChannelLayout, StallReason};
use turnroute_sim::{
    ChoiceScript, FaultState, Flit, Ledger, NoopObserver, Packet, PacketId, RouteMemo, SimConfig,
    SimObserver, SimReport, Traversal,
};
use turnroute_topology::{Mesh, NodeId, Topology};
use turnroute_traffic::TrafficPattern;

const NONE_U32: u32 = u32::MAX;

/// Results of a virtual-channel simulation (same shape as the base
/// simulator's report).
pub type VcSimReport = SimReport;

/// A complete copy of a [`VcSim`]'s mutable state, produced by
/// [`VcSim::snapshot`] and consumed by [`VcSim::restore`].
///
/// Same boundary as the base engine's
/// [`SimSnapshot`](turnroute_sim::SimSnapshot): the simulation state is
/// captured, the static network description and the attached observer are
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct VcSimSnapshot(State);

turnroute_sim::reusing_clone! {
    /// The mutable simulation state of a [`VcSim`]: exactly what a
    /// [`VcSimSnapshot`] captures.
    #[derive(Debug, PartialEq)]
    struct State {
        now: u64,
        rng: StdRng,

        /// Failure refcounts and how far `fault_events` has been applied
        /// (same model as the base engine: fail-stop for new channel
        /// acquisitions, in-flight flits drain).
        faults: FaultState,

        owner: Vec<u32>,
        buf: Vec<Option<Flit>>,
        assigned_out: Vec<u32>,
        head_since: Vec<u64>,

        /// Packets, sources, lifetimes, blame and window counters. No move is
        /// ever counted as a misroute here.
        ledger: Ledger,
    }
}

/// A wormhole simulation over a double-y virtual-channel mesh.
///
/// Uses the same [`SimConfig`] as the base simulator; input selection is
/// local FCFS and output selection takes the routing function's first
/// offered virtual channel that is free. These [`SimConfig`] fields are
/// ignored:
///
/// * `input_policy` and `output_policy` — arbitration is always FCFS and
///   first-free;
/// * `misroute_budget` — the routing function alone decides which
///   channels are offered;
/// * `buffer_depth` — every virtual-channel buffer holds one flit;
/// * `routing_delay` — a header is routable the cycle after it arrives;
/// * `record_paths` — no node paths are recorded.
///
/// Like the base engine, the simulation is generic over a
/// [`SimObserver`]; the default [`NoopObserver`] compiles every hook call
/// away. The virtual-channel engine fires the per-flit hooks
/// (`on_inject`, `on_flit_source`, `on_flit_advance`, `on_stall`,
/// `on_deliver`, `on_blame`, `on_fault`, `on_purge`, `on_drop`,
/// `on_cycle_end`) using the slot numbering of [`VcSim::channel_layout`];
/// the turn-level hooks (`on_turn`, `on_misroute`) are specific to the
/// base engine's physical directions, and `on_deadlock` to its deadlock
/// snapshot, so they are not fired here.
pub struct VcSim<'a, O: SimObserver = NoopObserver> {
    mesh: &'a Mesh,
    routing: &'a dyn VcRoutingFunction,
    pattern: &'a dyn TrafficPattern,
    cfg: SimConfig,
    obs: O,
    state: State,

    num_nodes: usize,
    /// Virtual-channel classes per physical direction (2 for double-y).
    num_classes: usize,
    /// Network VC slots per node: `4 * num_classes`.
    slots_per_node: usize,
    /// Network VC slots: `node * slots_per_node + vdir.index_in(classes)`;
    /// then injection, then ejection slots.
    inj_base: usize,
    ej_base: usize,
    num_channels: usize,
    exists: Vec<bool>,
    input_router: Vec<u32>,
    /// Physical link of each slot (per-cycle bandwidth arbiter).
    phys_link: Vec<u32>,

    /// Time-sorted transitions compiled from the config's fault plan. A
    /// link fault takes down every virtual channel of the physical link.
    fault_events: Vec<turnroute_sim::FaultEvent>,

    /// Each input channel's offered slots (`routing.route` in slot form)
    /// for the head waiting there, keyed on `(packet, head_since,
    /// epoch)`. Faults are filtered at use time, so only `restore` bumps
    /// the epoch.
    route_memo: RouteMemo,
    /// Routable heads of the current cycle, reused across cycles.
    scratch_heads: Vec<u32>,
    traversal: Traversal,
    /// Physical links that carried a flit this cycle, reused across
    /// cycles.
    link_used: Vec<bool>,
}

impl<'a> VcSim<'a> {
    /// Create a virtual-channel simulation with no instrumentation.
    pub fn new(
        mesh: &'a Mesh,
        routing: &'a dyn VcRoutingFunction,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
    ) -> VcSim<'a> {
        VcSim::with_observer(mesh, routing, pattern, cfg, NoopObserver)
    }
}

impl<'a, O: SimObserver> VcSim<'a, O> {
    /// Create a virtual-channel simulation that reports events to `obs`.
    pub fn with_observer(
        mesh: &'a Mesh,
        routing: &'a dyn VcRoutingFunction,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
        obs: O,
    ) -> VcSim<'a, O> {
        assert_eq!(mesh.num_dims(), 2, "VC engine is for 2D meshes");
        let num_nodes = mesh.num_nodes();
        let num_classes = routing.num_classes();
        assert!(num_classes >= 1, "need at least one VC class");
        let slots_per_node = 4 * num_classes;
        let inj_base = num_nodes * slots_per_node;
        let ej_base = inj_base + num_nodes;
        let num_channels = ej_base + num_nodes;
        let phys_network_links = num_nodes * 4;
        let num_links = phys_network_links + 2 * num_nodes;

        let mut exists = vec![false; num_channels];
        let mut input_router = vec![NONE_U32; num_channels];
        let mut phys_link = vec![NONE_U32; num_channels];
        for node in 0..num_nodes {
            let node_id = NodeId(node as u32);
            for vd in VirtualDirection::all_classes(2, num_classes) {
                if !routing.channel_exists(vd) {
                    continue;
                }
                if let Some(next) = mesh.neighbor(node_id, vd.dir()) {
                    let slot = node * slots_per_node + vd.index_in(num_classes);
                    exists[slot] = true;
                    input_router[slot] = next.0;
                    phys_link[slot] = (node * 4 + vd.dir().index()) as u32;
                }
            }
            exists[inj_base + node] = true;
            input_router[inj_base + node] = node as u32;
            phys_link[inj_base + node] = (phys_network_links + node) as u32;
            exists[ej_base + node] = true;
            input_router[ej_base + node] = node as u32;
            phys_link[ej_base + node] = (phys_network_links + num_nodes + node) as u32;
        }

        let fault_events = cfg.fault_plan.events();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let ledger = Ledger::new(num_nodes, &cfg, &mut rng);
        VcSim {
            mesh,
            routing,
            pattern,
            obs,
            state: State {
                now: 0,
                rng,
                faults: FaultState::new(num_channels, num_nodes, !fault_events.is_empty()),
                owner: vec![NONE_U32; num_channels],
                buf: vec![None; num_channels],
                assigned_out: vec![NONE_U32; num_channels],
                head_since: vec![0; num_channels],
                ledger,
            },
            fault_events,
            cfg,
            num_nodes,
            num_classes,
            slots_per_node,
            inj_base,
            ej_base,
            num_channels,
            exists,
            input_router,
            phys_link,
            route_memo: RouteMemo::new(ej_base, slots_per_node),
            scratch_heads: Vec::new(),
            traversal: Traversal::new(num_channels),
            link_used: vec![false; num_links],
        }
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the simulation, returning the observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The engine's slot numbering, for decoding observer events:
    /// `4 * num_classes` virtual-direction slots per node
    /// (`node * slots_per_node + vdir.index_in(num_classes)`, the shape of
    /// a `2 * num_classes`-dimension layout), then one injection and one
    /// ejection slot per node. [`ChannelLayout::dir_of`] is meaningless
    /// here — slot index pairs are (direction, VC class) — but the
    /// injection/ejection predicates and `node_of` decode correctly.
    pub fn channel_layout(&self) -> ChannelLayout {
        ChannelLayout::new(self.num_nodes, 2 * self.num_classes)
    }

    /// Whether deadlock was detected.
    pub fn deadlocked(&self) -> bool {
        self.state.ledger.deadlocked()
    }

    /// All packets created so far.
    pub fn packets(&self) -> &[Packet] {
        self.state.ledger.packets()
    }

    /// Manually queue a packet.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `len == 0`.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> PacketId {
        assert_ne!(src, dst, "packet must leave its source");
        assert!(len >= 1, "packet needs at least one flit");
        PacketId(
            self.state
                .ledger
                .create_packet(&self.cfg, self.state.now, src, dst, len),
        )
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.cycle(None);
    }

    /// Advance one cycle with every arbitration decision resolved by
    /// `script` instead of the engine's FCFS/first-free defaults.
    ///
    /// Same phases in the same order as [`VcSim::step`]; the explored
    /// decision points are (1) which waiting head each router serves
    /// next and (2) which *free* offered virtual channel a served head
    /// acquires — together these cover every input-selection and
    /// VC-allocation policy. The physical-link bandwidth arbiter in
    /// `advance` stays deterministic (slot order): it is work-conserving
    /// and re-arbitrated from scratch every cycle, so it can delay a flit
    /// by at most the link's service of other ready flits and can never
    /// create a circular wait — a sound reduction for deadlock checking.
    pub fn step_with_choices(&mut self, script: &mut ChoiceScript) {
        self.cycle(Some(script));
    }

    /// One cycle: the engine's phase sequence, written once. Arbitration
    /// follows `script` when given, FCFS and first-free otherwise.
    fn cycle(&mut self, script: Option<&mut ChoiceScript>) {
        self.apply_faults();
        self.expire_packets();
        self.state.ledger.generate(
            &self.cfg,
            self.state.now,
            self.mesh,
            self.pattern,
            &mut self.state.rng,
        );
        match script {
            None => self.assign_outputs(),
            Some(script) => self.assign_outputs_scripted(script),
        }
        self.advance();
        self.feed_injection();
        self.state
            .ledger
            .detect_deadlock(self.state.now, self.cfg.deadlock_threshold, || {
                self.state.buf.iter().any(Option::is_some)
            });
        if O::ENABLED {
            self.obs.on_cycle_end(self.state.now);
        }
        self.state.now += 1;
    }

    /// Run warmup → measure → drain and summarize.
    pub fn run(&mut self) -> VcSimReport {
        let end = self.state.ledger.begin_run(&self.cfg, self.state.now);
        while self.state.now < end && !self.deadlocked() {
            self.step();
        }
        self.report()
    }

    /// Step until idle or `max_cycles` pass; `true` if everything
    /// drained.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        let end = self.state.now + max_cycles;
        while self.state.now < end && !self.deadlocked() {
            self.step();
            if self.is_idle() {
                return true;
            }
        }
        self.is_idle()
    }

    /// Whether nothing is queued, streaming, or in flight.
    pub fn is_idle(&self) -> bool {
        self.state.buf.iter().all(Option::is_none) && self.state.ledger.sources_idle()
    }

    /// Summarize packets created in the measurement window.
    pub fn report(&self) -> VcSimReport {
        self.state.ledger.report(self.state.now)
    }

    /// Apply every fault transition scheduled at or before `now`. A link
    /// fault fails every virtual channel the physical link carries (in
    /// the double-y scheme only the y links carry two).
    fn apply_faults(&mut self) {
        let (per_node, classes, exists) = (self.slots_per_node, self.num_classes, &self.exists);
        self.state.faults.apply_due(
            &self.fault_events,
            self.state.now,
            self.mesh,
            (self.inj_base, self.ej_base),
            &mut self.obs,
            move |node, dir| {
                let base = node.index() * per_node + dir.index() * classes;
                (base..base + classes).filter(move |&slot| exists[slot])
            },
        );
    }

    /// Purge packets whose lifetime expired (see [`Ledger::expire`]),
    /// removing every channel the worm holds.
    fn expire_packets(&mut self) {
        self.state.ledger.expire(
            &self.cfg,
            self.state.now,
            self.state.faults.node_down(),
            &mut self.obs,
            |pid| {
                for slot in 0..self.num_channels {
                    if self.state.owner[slot] != pid {
                        continue;
                    }
                    if matches!(self.state.buf[slot], Some(f) if f.packet == pid) {
                        self.state.buf[slot] = None;
                    }
                    self.state.owner[slot] = NONE_U32;
                    self.state.assigned_out[slot] = NONE_U32;
                }
            },
        );
    }

    fn vdir_of_slot(&self, slot: usize) -> VirtualDirection {
        let vidx = slot % self.slots_per_node;
        let dir = turnroute_topology::Direction::from_index(vidx / self.num_classes);
        let class = crate::VcClass::new((vidx % self.num_classes) as u8);
        VirtualDirection::new(dir, class)
    }

    /// Input channels whose buffered flit is an unassigned head, in slot
    /// order. The returned vec is the engine's scratch buffer; hand it
    /// back to `scratch_heads` when done.
    fn routable_heads(&mut self) -> Vec<u32> {
        let mut heads = std::mem::take(&mut self.scratch_heads);
        heads.clear();
        for slot in 0..self.ej_base {
            if !self.exists[slot] || self.state.assigned_out[slot] != NONE_U32 {
                continue;
            }
            if matches!(self.state.buf[slot], Some(f) if f.is_head) {
                heads.push(slot as u32);
            }
        }
        heads
    }

    fn assign_outputs(&mut self) {
        let mut heads = self.routable_heads();
        heads.sort_unstable_by_key(|&c| (self.state.head_since[c as usize], c));
        for &c in &heads {
            self.try_assign(c as usize, |_| 0);
        }
        self.scratch_heads = heads;
    }

    /// Grant the head at input channel `c` an output: the ejection
    /// channel at its destination, otherwise one of the free offered
    /// virtual channels — `pick(n)` chooses among the `n` free ones in
    /// routing order (`|_| 0` is the engine's first-free policy). `pick`
    /// is called only when there is a free channel.
    fn try_assign(&mut self, c: usize, pick: impl FnOnce(usize) -> usize) {
        let flit = self.state.buf[c].expect("head present");
        let dst = self.state.ledger.packets()[flit.packet as usize].dst;
        let v = NodeId(self.input_router[c]);
        if v == dst {
            let ej = self.ej_base + v.index();
            if self.state.owner[ej] == NONE_U32 && !self.state.faults.is_faulty(ej) {
                self.state.assigned_out[c] = ej as u32;
                self.state.owner[ej] = flit.packet;
            }
            return;
        }
        // The offered channels depend only on the router, destination
        // and arrival channel, so they are routed once per header
        // arrival.
        let (packet, since) = (flit.packet, self.state.head_since[c]);
        if self.route_memo.get(c, packet, since).is_none() {
            let arrived = (c < self.inj_base).then(|| self.vdir_of_slot(c));
            let base = v.index() * self.slots_per_node;
            let offered = self.routing.route(self.mesh, v, dst, arrived);
            self.route_memo.insert(
                c,
                packet,
                since,
                offered.into_iter().map(|vd| {
                    let slot = base + vd.index_in(self.num_classes);
                    debug_assert!(self.exists[slot], "offered channel must exist");
                    slot as u32
                }),
            );
        }
        let offered = self
            .route_memo
            .get(c, packet, since)
            .expect("memoized above");
        // Faulty channels are simply skipped: removing outputs from the
        // double-y scheme never adds edges to its (acyclic) virtual-channel
        // dependency graph, so deadlock freedom survives any fault
        // pattern; packets with every offered channel down wait for the
        // packet timeout.
        let free = |&&slot: &&u32| {
            self.state.owner[slot as usize] == NONE_U32
                && !self.state.faults.is_faulty(slot as usize)
        };
        let n = offered.iter().filter(free).count();
        if n == 0 {
            return;
        }
        let slot = *offered.iter().filter(free).nth(pick(n)).expect("k < n") as usize;
        self.state.assigned_out[c] = slot as u32;
        self.state.owner[slot] = packet;
        self.state.ledger.count_hop(packet, true);
    }

    /// Phase A under the choice oracle: same routable-head collection as
    /// [`VcSim::assign_outputs`], served per router in a script-chosen
    /// order. The free-VC pick is delegated to the oracle too: instead of
    /// the first free offered virtual channel, any of them is reachable.
    fn assign_outputs_scripted(&mut self, script: &mut ChoiceScript) {
        let mut heads = self.routable_heads();
        script.serve_per_router(
            self,
            &mut heads,
            |sim, c| sim.input_router[c],
            |sim, c, script| sim.try_assign(c, |n| script.decide(n)),
        );
        self.scratch_heads = heads;
    }

    // ---- snapshot / restore -----------------------------------------

    /// Capture the engine's complete mutable state. See [`VcSimSnapshot`].
    pub fn snapshot(&self) -> VcSimSnapshot {
        VcSimSnapshot(self.state.clone())
    }

    /// Restore state captured by [`VcSim::snapshot`]. The observer is not
    /// rewound.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a differently-shaped network.
    pub fn restore(&mut self, snap: &VcSimSnapshot) {
        let shape = (snap.0.owner.len(), snap.0.faults.node_down().len());
        assert_eq!(
            shape,
            (self.num_channels, self.num_nodes),
            "snapshot from a different network shape"
        );
        self.state.clone_from(&snap.0);
        self.route_memo.invalidate();
    }

    // ---- model-checker state views ----------------------------------

    /// Total channel slots (eight VC slots per node, then injection, then
    /// ejection; see [`VcSim::channel_layout`]).
    pub fn num_slots(&self) -> usize {
        self.num_channels
    }

    /// The packet whose worm currently owns `slot`, if any.
    pub fn slot_owner(&self, slot: usize) -> Option<u32> {
        (self.state.owner[slot] != NONE_U32).then_some(self.state.owner[slot])
    }

    /// The output slot the worm crossing input `slot` is bound to, if
    /// routed.
    pub fn slot_binding(&self, slot: usize) -> Option<usize> {
        (self.state.assigned_out[slot] != NONE_U32)
            .then_some(self.state.assigned_out[slot] as usize)
    }

    /// The flit buffered at `slot` (VC buffers hold at most one) as
    /// `(packet, is_head, is_tail)`.
    pub fn slot_flits(&self, slot: usize) -> impl Iterator<Item = (u32, bool, bool)> + '_ {
        self.state.buf[slot]
            .iter()
            .map(|f| (f.packet, f.is_head, f.is_tail))
    }

    /// Packets queued at `node`'s source, front first.
    pub fn source_queue(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        self.state.ledger.source_queue(node)
    }

    /// The packet currently streaming into `node`'s injection channel and
    /// how many of its flits have been emitted.
    pub fn source_emitting(&self, node: usize) -> Option<(u32, u32)> {
        self.state.ledger.source_emitting(node)
    }

    /// Advance flits in lockstep: every flit the readiness search
    /// schedules moves, except that each physical link carries at most
    /// one flit per cycle.
    fn advance(&mut self) {
        let moves = self.traversal.schedule(
            self.ej_base,
            &self.state.assigned_out,
            |c| self.state.buf[c].is_some(),
            |o| self.state.buf[o].is_none(),
        );

        // Apply targets-first, with one flit per physical link per cycle.
        // A move is cancelled if its link budget is spent or its target
        // did not actually vacate (because an earlier move was
        // cancelled); cancelling cascades naturally through the occupancy
        // check.
        self.link_used.fill(false);
        for i in 0..moves {
            let c = self.traversal.scheduled(i);
            let flit = self.state.buf[c].expect("flit scheduled to move");
            if c >= self.ej_base {
                // Consume from the ejection buffer (the processor side of
                // the ejection link was already paid when entering it).
                self.state.buf[c] = None;
                self.state.ledger.note_move(flit.packet, self.state.now);
                self.state
                    .ledger
                    .consume(flit, c, self.state.now, &mut self.obs);
                if flit.is_tail {
                    self.state.owner[c] = NONE_U32;
                }
                continue;
            }
            let o = self.state.assigned_out[c] as usize;
            let link = self.phys_link[o] as usize;
            if self.state.buf[o].is_some() || self.link_used[link] {
                // Upstream of a cancelled move, or the physical bandwidth
                // is spent this cycle.
                self.traversal.cancel(c);
                continue;
            }
            self.link_used[link] = true;
            self.state.buf[c] = None;
            self.state.buf[o] = Some(flit);
            self.state.ledger.note_move(flit.packet, self.state.now);
            if O::ENABLED {
                self.obs.on_flit_advance(
                    self.state.now,
                    c,
                    Some(o),
                    PacketId(flit.packet),
                    flit.is_tail,
                );
            }
            if flit.is_head {
                self.state.head_since[o] = self.state.now;
            }
            if flit.is_tail {
                self.state.owner[c] = NONE_U32;
                self.state.assigned_out[c] = NONE_U32;
            }
        }
        self.state
            .ledger
            .count_stalls(self.state.now, self.traversal.stalls());
        if O::ENABLED {
            for c in 0..self.num_channels {
                if !self.traversal.stalled(c) {
                    continue;
                }
                let Some(flit) = self.state.buf[c] else {
                    continue;
                };
                let reason = if c < self.ej_base && self.state.assigned_out[c] == NONE_U32 {
                    StallReason::NotRouted
                } else {
                    StallReason::Backpressure
                };
                self.obs
                    .on_stall(self.state.now, c, PacketId(flit.packet), reason);
            }
        }
    }

    /// Feed the next flit of each source into its injection buffer when
    /// the buffer is free.
    fn feed_injection(&mut self) {
        for v in 0..self.num_nodes {
            let inj = self.inj_base + v;
            if self.state.faults.is_faulty(inj) || self.state.buf[inj].is_some() {
                continue;
            }
            let Some(flit) = self
                .state
                .ledger
                .next_flit(v, inj, self.state.now, &mut self.obs)
            else {
                continue;
            };
            self.state.buf[inj] = Some(flit);
            if flit.is_head {
                self.state.head_since[inj] = self.state.now;
                self.state.owner[inj] = flit.packet;
            }
        }
    }
}

impl<O: SimObserver> std::fmt::Debug for VcSim<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcSim")
            .field("now", &self.state.now)
            .field("routing", &self.routing.name())
            .field("packets", &self.packets().len())
            .field("deadlocked", &self.deadlocked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DoubleYAdaptive;
    use turnroute_sim::{LengthDist, RunTermination};
    use turnroute_topology::Direction;
    use turnroute_traffic::{MeshTranspose, Uniform};

    fn quiet_cfg() -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .build()
    }

    #[test]
    fn single_packet_latency_matches_base_model() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[1, 1]);
        let dst = mesh.node_at_coords(&[5, 4]);
        let id = sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 7);
        // Identical pipeline to the base sim: head consumed at cycle 9,
        // tail 9 flit-cycles later.
        assert_eq!(p.latency(), Some(18));
    }

    #[test]
    fn delivers_uniform_traffic_without_deadlock() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .lengths(LengthDist::Fixed(8))
            .warmup_cycles(500)
            .measure_cycles(3_000)
            .drain_cycles(4_000)
            .seed(2)
            .build();
        let report = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert!(!report.deadlocked);
        assert!(report.delivered_fraction() > 0.99);
        assert!(report.generated_packets > 100);
    }

    #[test]
    fn oversaturation_does_not_deadlock() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = MeshTranspose::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.8)
            .warmup_cycles(0)
            .measure_cycles(6_000)
            .drain_cycles(0)
            .deadlock_threshold(2_000)
            .seed(3)
            .build();
        let report = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert!(!report.deadlocked);
        assert!(report.delivered_flits_in_window > 0);
    }

    #[test]
    fn physical_link_bandwidth_is_shared() {
        // Two packets heading north through the same physical link on
        // different virtual channels: total time must reflect one
        // flit/cycle of shared bandwidth, not two.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        // Packet A: pure vertical (uses y2). Packet B: west-then-north at
        // the same column (uses y1 while westbound... it starts at the
        // column, so it is pure vertical too — give it a west leg first).
        let a = sim.inject_packet(
            mesh.node_at_coords(&[1, 0]),
            mesh.node_at_coords(&[1, 3]),
            20,
        );
        let b = sim.inject_packet(
            mesh.node_at_coords(&[2, 0]),
            mesh.node_at_coords(&[1, 3]),
            20,
        );
        assert!(sim.run_until_idle(1_000));
        let (pa, pb) = (sim.packets()[a.index()], sim.packets()[b.index()]);
        // Both traverse the column-1 northward links; with one flit per
        // cycle per physical link their tails must be >= 20 cycles apart
        // (they also share the ejection channel).
        let (da, db) = (pa.delivered.unwrap(), pb.delivered.unwrap());
        assert!(da.abs_diff(db) >= 20, "physical bandwidth not shared");
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(200)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .seed(42)
            .build();
        let r1 = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let r2 = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let mesh = Mesh::new_2d(8, 8);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let plan = turnroute_sim::FaultPlan::random_links(&mesh, 0.05, 300, 11).transient_node(
            NodeId(19),
            500,
            400,
        );
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .warmup_cycles(200)
            .measure_cycles(1_500)
            .drain_cycles(1_500)
            .packet_timeout(900)
            .max_retries(1)
            .seed(21)
            .fault_plan(plan)
            .build();
        let r1 = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let r2 = VcSim::new(&mesh, &alg, &pattern, cfg).run();
        assert_eq!(r1, r2);
        assert!(r1.delivered_packets > 0);
    }

    #[test]
    fn faulty_link_is_routed_around() {
        // Double-y is adaptive in x until aligned: with the eastward link
        // out of the source down, the packet detours via the row above.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        let plan = turnroute_sim::FaultPlan::new().permanent_link(src, Direction::EAST, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .fault_plan(plan)
            .build();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some());
        assert_eq!(p.hops, 4, "minimal detour north-then-east");
    }

    #[test]
    fn invariant_sanitizer_stays_clean_under_load_faults_and_retries() {
        use turnroute_sim::InvariantObserver;
        let mesh = Mesh::new_2d(6, 6);
        let alg = DoubleYAdaptive::new();
        let pattern = MeshTranspose::new();
        let plan = turnroute_sim::FaultPlan::new()
            .transient_link(NodeId(10), Direction::NORTH, 200, 300)
            .transient_node(NodeId(21), 500, 200);
        let cfg = SimConfig::builder()
            .injection_rate(0.3)
            .warmup_cycles(200)
            .measure_cycles(1_500)
            .drain_cycles(1_000)
            .packet_timeout(600)
            .max_retries(1)
            .deadlock_threshold(5_000)
            .seed(9)
            .fault_plan(plan)
            .build();
        // VC buffers hold a single flit regardless of cfg.buffer_depth.
        let obs = InvariantObserver::new(ChannelLayout::new(mesh.num_nodes(), 4), 1);
        let mut sim = VcSim::with_observer(&mesh, &alg, &pattern, cfg, obs);
        let report = sim.run();
        assert!(!report.deadlocked);
        let obs = sim.observer();
        obs.assert_clean();
        let s = obs.summary();
        assert!(s.sourced_flits > 0 && s.consumed_flits > 0);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let mesh = Mesh::new_2d(6, 6);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(100)
            .measure_cycles(400)
            .drain_cycles(400)
            .seed(31)
            .build();
        let plain = VcSim::new(&mesh, &alg, &pattern, cfg.clone()).run();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        sim.state.ledger.set_window(100, 500);
        for _ in 0..250 {
            sim.step();
        }
        let snap = sim.snapshot();
        sim.inject_packet(NodeId(0), NodeId(35), 7);
        for _ in 0..40 {
            sim.step();
        }
        sim.restore(&snap);
        assert_eq!(sim.snapshot(), snap, "restore is lossless");
        while sim.now() < 900 && !sim.deadlocked() {
            sim.step();
        }
        assert_eq!(sim.report(), plain, "restored run diverged");
    }

    /// One perturbation for the restore-leak test: a packet from `src`
    /// to `dst`, then `cycles` scripted steps with every choice set to
    /// `digit`.
    fn scripted_leg(sim: &mut VcSim<'_>, (src, dst): (NodeId, NodeId), digit: u32, cycles: usize) {
        sim.inject_packet(src, dst, 5);
        for _ in 0..cycles {
            sim.step_with_choices(&mut ChoiceScript::new(vec![digit; 16]));
        }
    }

    #[test]
    fn route_memo_does_not_leak_across_restore() {
        // Warm the memo with waiting heads and snapshot. Leg A sends the
        // next packet id from (2,2) north-east under script A; after
        // restoring, leg B sends the same packet id from the same
        // injection channel, at the same cycle, west under script B. A
        // memo entry surviving the restore would offer B's header A's
        // virtual channels, so B must end exactly where a fresh engine
        // restored from the snapshot ends.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        for (src, dst) in [
            (at(0, 0), at(3, 3)),
            (at(1, 0), at(3, 2)),
            (at(0, 1), at(2, 3)),
            (at(1, 1), at(3, 3)),
        ] {
            sim.inject_packet(src, dst, 6);
        }
        for _ in 0..4 {
            sim.step();
        }
        let snap = sim.snapshot();
        let leg_a = (at(2, 2), at(3, 3));
        let leg_b = (at(2, 2), at(0, 2));
        scripted_leg(&mut sim, leg_a, 1, 8);
        sim.restore(&snap);
        scripted_leg(&mut sim, leg_b, 0, 8);
        let mut fresh = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
        fresh.restore(&snap);
        scripted_leg(&mut fresh, leg_b, 0, 8);
        assert_eq!(
            sim.snapshot(),
            fresh.snapshot(),
            "memo leaked across restore"
        );
        let b = sim.packets().last().expect("leg B packet");
        assert!(b.hops > 0, "leg B's header must have been routed");
    }

    #[test]
    fn scripted_step_explores_the_free_vc_choice() {
        // A head offered two free virtual channels (the adaptive
        // east-or-north choice): digit 0 takes the first, digit 1 the
        // second — distinct owners result.
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let mut owners = Vec::new();
        for digit in [0u32, 1] {
            let mut sim = VcSim::new(&mesh, &alg, &pattern, quiet_cfg());
            sim.inject_packet(
                mesh.node_at_coords(&[0, 0]),
                mesh.node_at_coords(&[2, 2]),
                3,
            );
            {
                let mut s = ChoiceScript::default();
                sim.step_with_choices(&mut s); // head enters injection buffer
            }
            let mut script = ChoiceScript::new(vec![digit]);
            sim.step_with_choices(&mut script);
            let chosen: Vec<usize> = (0..sim.num_slots())
                .filter(|&s| s < sim.inj_base && sim.slot_owner(s).is_some())
                .collect();
            assert_eq!(chosen.len(), 1, "exactly one network VC acquired");
            assert!(
                !script.arities().is_empty(),
                "two free VCs must be a choice point"
            );
            owners.push(chosen[0]);
        }
        assert_ne!(owners[0], owners[1], "digit did not change the VC pick");
    }

    #[test]
    fn down_destination_degrades_to_unroutable_drop() {
        let mesh = Mesh::new_2d(4, 4);
        let alg = DoubleYAdaptive::new();
        let pattern = Uniform::new();
        let dst = mesh.node_at_coords(&[3, 3]);
        let plan = turnroute_sim::FaultPlan::new().permanent_node(dst, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(200)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = VcSim::new(&mesh, &alg, &pattern, cfg);
        sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 5);
        let report = sim.run();
        assert_eq!(report.termination, RunTermination::Completed);
        assert_eq!(report.unroutable_packets, 1);
        assert_eq!(report.delivered_packets, 0);
        assert!(sim.is_idle(), "purge must empty the network");
    }
}
