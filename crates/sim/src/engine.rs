//! The simulation engine: wormhole mechanics, arbitration, and the
//! measurement protocol.

use crate::obs::{
    ChannelLayout, DeadlockSnapshot, NoopObserver, SimObserver, StallReason, StreamingHistogram,
    WaitEdge,
};
use crate::profile::{timed, Phase, PhaseProfiler};
use crate::{
    ChoiceScript, FaultState, Flit, InputPolicy, Ledger, OutputPolicy, Packet, PacketId, RouteMemo,
    SimConfig, SimReport, Traversal,
};
use std::collections::VecDeque;
use turnroute_model::{RoutingFunction, Turn, TurnSet};
use turnroute_rng::rngs::StdRng;
use turnroute_rng::{Rng, SeedableRng};
use turnroute_topology::{Direction, NodeId, Topology};
use turnroute_traffic::TrafficPattern;

/// Sentinel for "no packet" / "no channel".
const NONE_U32: u32 = u32::MAX;

/// Capacity of [`Candidates`]: one output per direction, and a
/// [`turnroute_topology::DirSet`] holds at most 32 directions.
const MAX_DIRS: usize = 32;

/// Candidate output channels of one waiting head, in direction order,
/// each packed as `slot | PRODUCTIVE`. Every candidate is a network
/// channel of the head's router, so its direction is
/// `slot % dirs_per_node`. The same packing is what the route memo
/// stores.
#[derive(Clone, Copy)]
struct Candidates {
    len: usize,
    packed: [u32; MAX_DIRS],
}

impl Candidates {
    /// Set on a candidate that reduces the distance to the destination.
    const PRODUCTIVE: u32 = 1 << 31;

    fn from_packed(packed: &[u32]) -> Candidates {
        let mut c = Candidates {
            len: packed.len(),
            packed: [0; MAX_DIRS],
        };
        c.packed[..packed.len()].copy_from_slice(packed);
        c
    }

    fn push(&mut self, slot: usize, productive: bool) {
        debug_assert!(
            slot < Self::PRODUCTIVE as usize - 1,
            "slot collides with the packing"
        );
        self.packed[self.len] = slot as u32 | if productive { Self::PRODUCTIVE } else { 0 };
        self.len += 1;
    }

    fn as_packed(&self) -> &[u32] {
        &self.packed[..self.len]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th candidate as `(slot, productive)`.
    fn get(&self, i: usize) -> (usize, bool) {
        let p = self.packed[i];
        ((p & !Self::PRODUCTIVE) as usize, p & Self::PRODUCTIVE != 0)
    }

    fn iter(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Keep the candidates `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(usize, bool) -> bool) {
        let mut n = 0;
        for i in 0..self.len {
            let (slot, productive) = self.get(i);
            if keep(slot, productive) {
                self.packed[n] = self.packed[i];
                n += 1;
            }
        }
        self.len = n;
    }

    /// Drop the unproductive candidates if any productive one remains:
    /// misroute only when necessary.
    fn prefer_productive(&mut self) {
        if self.iter().any(|(_, p)| p) {
            self.retain(|_, p| p);
        }
    }
}

/// What arbitration can do for the head flit waiting at one input
/// channel, before contention is considered: bind the ejection channel,
/// wait out a healing hold, or choose among the turn-legal healthy
/// candidate outputs. Shared by [`try_assign`](Sim::try_assign), policy
/// driven or choice scripted, and the deadlock snapshot's wanted-output
/// reconstruction, so both see byte-identical routing semantics.
enum RouteDecision {
    /// Destination reached: bind this ejection slot (if free).
    Eject(usize),
    /// The input router is held by the healing driver; grant nothing.
    Hold,
    /// Every candidate output — turn-legal, existing, healthy, and
    /// within the misroute budget — before the free-channel filter.
    Candidates(Candidates),
}

/// A complete copy of one engine's mutable state, produced by
/// [`Sim::snapshot`] and consumed by [`Sim::restore`].
///
/// The snapshot boundary is the *simulation* state: cycle counter, RNG,
/// channel/buffer/worm state, fault and healing state, and the packet
/// [`Ledger`] (sources and every measurement counter the report reads).
/// The static network description (topology, routing, config, existence
/// tables) and the attached observer are outside the boundary — restoring
/// rewinds the network, not the telemetry already emitted about it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot(State);

crate::reusing_clone! {
    /// The mutable simulation state of a [`Sim`]: exactly what a
    /// [`SimSnapshot`] captures.
    #[derive(Debug, PartialEq)]
    struct State {
        now: u64,
        rng: StdRng,

        // --- fault injection ---
        /// Failure refcounts and how far `fault_events` has been applied.
        /// Whether any fault is possible gates the turn-legality filter
        /// and the misroute-around-fault fallback, so fault-free
        /// arbitration is byte-for-byte the old code path.
        faults: FaultState,

        // --- online reconfiguration (turnheal) ---
        /// Routers whose output arbitration is paused while the healing
        /// driver re-proves a region (ejection continues; in-flight worms
        /// drain).
        held: Vec<bool>,
        /// Channels excluded from new acquisitions by a `Cyclic` verdict
        /// (escape-path-only mode); composes with `faulty`.
        quarantined: Vec<bool>,
        /// Whether any hold or quarantine was ever set; gates the hot-path
        /// lookups exactly like `FaultState::possible`, so runs without a healing
        /// driver pay one predictable branch.
        healing_possible: bool,

        // --- dynamic channel state ---
        owner: Vec<u32>,
        /// Per-channel input buffers (FIFO, capacity `cfg.buffer_depth`; the
        /// paper's routers use depth 1). A buffer only ever holds flits of
        /// the packet owning the channel.
        buf: Vec<VecDeque<Flit>>,
        /// Output binding for each *input* channel, while a worm crosses it.
        assigned_out: Vec<u32>,
        /// Cycle the current head flit arrived in this buffer (for FCFS).
        head_since: Vec<u64>,
        /// Whether each input channel's current output binding was granted
        /// non-productively; checked when the header leaves the channel.
        misroute_assigned: Vec<bool>,

        // --- packets and measurement ---
        /// Packets, sources, lifetimes, blame and window counters.
        ledger: Ledger,
        /// Per-packet node paths (populated when `cfg.record_paths`).
        paths: Vec<Vec<NodeId>>,
        /// Flits that entered each channel's buffer during the measurement
        /// window (per-channel utilization).
        channel_flits: Vec<u64>,
        /// Channels whose input buffer currently holds at least one flit,
        /// maintained incrementally at every push/pop so deadlock detection
        /// costs O(1) per cycle.
        occupied_buffers: usize,
    }
}

/// A wormhole network simulation in progress.
///
/// Construct with [`Sim::new`], optionally seed packets with
/// [`Sim::inject_packet`], then either call [`Sim::run`] for the full
/// warmup/measure/drain protocol or drive individual cycles with
/// [`Sim::step`].
///
/// The engine is generic over a [`SimObserver`] receiving flit-level
/// telemetry hooks; the default [`NoopObserver`] has `ENABLED = false`
/// and every hook call site is guarded by that associated constant, so
/// an unobserved simulation compiles to the same code as before the
/// hooks existed. Attach collectors with [`Sim::with_observer`].
pub struct Sim<'a, O: SimObserver = NoopObserver> {
    topo: &'a dyn Topology,
    routing: &'a dyn RoutingFunction,
    pattern: &'a dyn TrafficPattern,
    cfg: SimConfig,
    obs: O,
    state: State,

    // --- static network description ---
    num_nodes: usize,
    dirs_per_node: usize,
    /// First injection slot; ejection slots follow.
    inj_base: usize,
    ej_base: usize,
    num_channels: usize,
    /// Whether each network slot is a real channel.
    exists: Vec<bool>,
    /// Router whose input buffer each channel feeds (ejection channels
    /// feed the local processor and carry their node here).
    input_router: Vec<u32>,
    /// Time-sorted transitions compiled from the config's fault plan.
    fault_events: Vec<crate::FaultEvent>,
    /// The routing function's declared turn set. Under faults, every
    /// arbitration output — primary or fallback — is filtered through it,
    /// which keeps the live dependency graph a subgraph of the turn set's
    /// (acyclic) CDG no matter what fails.
    turn_filter: Option<TurnSet>,

    /// Each input channel's [`Candidates`] for the head waiting there,
    /// keyed on `(packet, head_since, epoch)`. The epoch is bumped by
    /// every change to faults or quarantines and by `restore`.
    route_memo: RouteMemo,

    // scratch buffers reused across cycles
    scratch_heads: Vec<u32>,
    traversal: Traversal,
}

impl<'a> Sim<'a> {
    /// Create a simulation of `routing` on `topo` under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than 2 nodes.
    pub fn new(
        topo: &'a dyn Topology,
        routing: &'a dyn RoutingFunction,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
    ) -> Sim<'a> {
        Sim::with_observer(topo, routing, pattern, cfg, NoopObserver)
    }
}

impl<'a, O: SimObserver> Sim<'a, O> {
    /// Like [`Sim::new`], but with `observer` attached to receive
    /// flit-level telemetry hooks (see [`crate::obs`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than 2 nodes.
    pub fn with_observer(
        topo: &'a dyn Topology,
        routing: &'a dyn RoutingFunction,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
        observer: O,
    ) -> Sim<'a, O> {
        let num_nodes = topo.num_nodes();
        assert!(num_nodes >= 2, "need at least two nodes");
        let dirs_per_node = 2 * topo.num_dims();
        let inj_base = num_nodes * dirs_per_node;
        let ej_base = inj_base + num_nodes;
        let num_channels = ej_base + num_nodes;

        let mut exists = vec![false; num_channels];
        let mut input_router = vec![NONE_U32; num_channels];
        for node in 0..num_nodes {
            let node_id = NodeId(node as u32);
            for dir in Direction::all(topo.num_dims()) {
                let slot = topo.channel_slot(node_id, dir);
                if let Some(next) = topo.neighbor(node_id, dir) {
                    exists[slot] = true;
                    input_router[slot] = next.0;
                }
            }
            exists[inj_base + node] = true;
            input_router[inj_base + node] = node as u32;
            exists[ej_base + node] = true;
            input_router[ej_base + node] = node as u32;
        }

        let fault_events = cfg.fault_plan.events();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let ledger = Ledger::new(num_nodes, &cfg, &mut rng);
        Sim {
            topo,
            routing,
            pattern,
            obs: observer,
            state: State {
                now: 0,
                rng,
                faults: FaultState::new(num_channels, num_nodes, !fault_events.is_empty()),
                held: vec![false; num_nodes],
                quarantined: vec![false; num_channels],
                healing_possible: false,
                owner: vec![NONE_U32; num_channels],
                buf: vec![VecDeque::new(); num_channels],
                assigned_out: vec![NONE_U32; num_channels],
                head_since: vec![0; num_channels],
                misroute_assigned: vec![false; num_channels],
                ledger,
                paths: Vec::new(),
                channel_flits: vec![0; num_channels],
                occupied_buffers: 0,
            },
            num_nodes,
            dirs_per_node,
            inj_base,
            ej_base,
            num_channels,
            exists,
            input_router,
            fault_events,
            turn_filter: routing.turn_set(topo.num_dims()),
            cfg,
            route_memo: RouteMemo::new(ej_base, dirs_per_node),
            scratch_heads: Vec::new(),
            traversal: Traversal::new(num_channels),
        }
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// Whether deadlock was detected.
    pub fn deadlocked(&self) -> bool {
        self.state.ledger.deadlocked()
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the simulation and keep only the observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// All packets created so far.
    pub fn packets(&self) -> &[Packet] {
        self.state.ledger.packets()
    }

    /// Flits that crossed the network channel leaving `node` in `dir`
    /// during the measurement window. Zero for nonexistent channels.
    pub fn channel_load(&self, node: NodeId, dir: Direction) -> u64 {
        self.state.channel_flits[self.topo.channel_slot(node, dir)]
    }

    /// The heaviest per-channel flit count observed during the
    /// measurement window, over network channels only.
    pub fn max_channel_load(&self) -> u64 {
        self.state.channel_flits[..self.inj_base]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total flits that crossed network channels during the measurement
    /// window (the network's transferred volume; equals Σ hops over the
    /// window's flits when traffic is in steady state).
    pub fn total_channel_flits(&self) -> u64 {
        self.state.channel_flits[..self.inj_base].iter().sum()
    }

    /// The node path a packet's header has taken so far (source
    /// included). Empty unless the run was configured with
    /// [`SimConfig::record_paths`].
    pub fn packet_path(&self, id: PacketId) -> &[NodeId] {
        if self.cfg.record_paths {
            &self.state.paths[id.index()]
        } else {
            &[]
        }
    }

    /// Mark the channel leaving `node` in `dir` as faulty; the routing
    /// arbitration will never assign it. For scheduled or transient
    /// failures use [`SimConfig::fault_plan`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_fault(&mut self, node: NodeId, dir: Direction) {
        let slot = self.topo.channel_slot(node, dir);
        assert!(self.exists[slot], "no channel at {node} {dir}");
        self.state
            .faults
            .shift(slot, true, self.state.now, &mut self.obs);
        self.route_memo.invalidate();
    }

    /// Pause (`on`) or resume output arbitration at `node`. A held router
    /// grants no new output channels: heads wait in place while the
    /// healing driver re-proves the region. Ejection still binds, and
    /// worms already granted outputs keep draining, so a hold never
    /// strands in-flight traffic.
    pub fn set_hold(&mut self, node: NodeId, on: bool) {
        self.state.healing_possible = true;
        self.state.held[node.index()] = on;
    }

    /// Quarantine (`on`) or release the channel leaving `node` in `dir`:
    /// a quarantined channel is never assigned to a new worm, exactly
    /// like a faulty one, but its failure refcount is untouched — this is
    /// the healing driver's escape-path-only mode for channels implicated
    /// in a `Cyclic` verdict.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn set_quarantine(&mut self, node: NodeId, dir: Direction, on: bool) {
        let slot = self.topo.channel_slot(node, dir);
        assert!(self.exists[slot], "no channel at {node} {dir}");
        self.state.healing_possible = true;
        self.state.quarantined[slot] = on;
        self.route_memo.invalidate();
    }

    /// Whether the channel leaving `node` in `dir` is quarantined.
    pub fn is_quarantined(&self, node: NodeId, dir: Direction) -> bool {
        self.state.quarantined[self.topo.channel_slot(node, dir)]
    }

    /// How many entries of the compiled fault-event stream have been
    /// applied so far. A healing driver polls this after each step to
    /// detect that a fault transition (and hence a new masked channel
    /// graph) just took effect.
    pub fn applied_fault_events(&self) -> usize {
        self.state.faults.applied()
    }

    /// Set the measurement window `[start, end)` explicitly. [`Sim::run`]
    /// derives the window from the configuration; an external driver that
    /// steps the engine cycle by cycle (the healing driver) sets it once
    /// up front so [`Sim::report`] summarizes the same window `run` would.
    pub fn set_measure_window(&mut self, start: u64, end: u64) {
        self.state.ledger.set_window(start, end);
    }

    /// Manually queue a packet (useful with `injection_rate == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `len == 0`.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId, len: u32) -> PacketId {
        assert_ne!(src, dst, "packet must leave its source");
        assert!(len >= 1, "packet needs at least one flit");
        let id = self
            .state
            .ledger
            .create_packet(&self.cfg, self.state.now, src, dst, len);
        self.record_new_paths();
        PacketId(id)
    }

    /// Start a recorded path at the source of every packet created since
    /// the last call.
    fn record_new_paths(&mut self) {
        if self.cfg.record_paths {
            let new = &self.state.ledger.packets()[self.state.paths.len()..];
            self.state.paths.extend(new.iter().map(|p| vec![p.src]));
        }
    }

    #[inline]
    fn inj_slot(&self, node: usize) -> usize {
        self.inj_base + node
    }

    #[inline]
    fn ej_slot(&self, node: usize) -> usize {
        self.ej_base + node
    }

    #[inline]
    fn is_ejection(&self, slot: usize) -> bool {
        slot >= self.ej_base
    }

    #[inline]
    fn is_injection(&self, slot: usize) -> bool {
        slot >= self.inj_base && slot < self.ej_base
    }

    #[inline]
    fn dir_of_network_slot(&self, slot: usize) -> Direction {
        Direction::from_index(slot % self.dirs_per_node)
    }

    /// Advance the simulation by one cycle.
    pub fn step(&mut self) {
        self.cycle(None, None);
    }

    /// Advance one cycle with each engine phase timed onto `prof`.
    ///
    /// Byte-identical in simulation behavior to [`Sim::step`] — the
    /// phases run in the same order on the same state — it only adds
    /// wall-clock spans around them.
    pub fn step_profiled(&mut self, prof: &mut PhaseProfiler) {
        self.cycle(Some(prof), None);
    }

    /// Advance one cycle with every arbitration decision resolved by
    /// `script` instead of the configured input/output policies.
    ///
    /// The mechanics are [`Sim::step`]'s own — same phases, same order,
    /// same `route_decision` semantics — only the *selection* among
    /// waiting heads and among free candidate outputs is delegated to the
    /// oracle. `turncheck` enumerates scripts (see
    /// [`ChoiceScript::next_script`]) to cover every schedule any policy
    /// could produce; the decision points are:
    ///
    /// 1. per router, which waiting head is served next (the input-policy
    ///    axis), and
    /// 2. per served head, which free candidate output it takes (the
    ///    output-policy axis).
    ///
    /// Heads are grouped by input router in router-index order (see
    /// [`ChoiceScript::serve_per_router`] for why that loses no coverage).
    pub fn step_with_choices(&mut self, script: &mut ChoiceScript) {
        self.cycle(None, Some(script));
    }

    /// One cycle: the engine's phase sequence, written once. Phases are
    /// timed onto `prof` when given; arbitration follows `script` when
    /// given, the configured policies otherwise.
    fn cycle(&mut self, mut prof: Option<&mut PhaseProfiler>, script: Option<&mut ChoiceScript>) {
        timed(&mut prof, Phase::Drain, || {
            self.apply_faults();
            self.expire_packets();
        });
        timed(&mut prof, Phase::Injection, || self.generate());
        match script {
            None => {
                let heads = timed(&mut prof, Phase::Routing, || self.collect_route_heads());
                timed(&mut prof, Phase::Arbitration, || {
                    self.arbitrate_heads(heads)
                });
            }
            Some(script) => self.arbitrate_scripted(script),
        }
        timed(&mut prof, Phase::Traversal, || self.advance());
        timed(&mut prof, Phase::Injection, || self.feed_injection());
        timed(&mut prof, Phase::Drain, || self.detect_deadlock());
        if O::ENABLED {
            self.obs.on_cycle_end(self.state.now);
        }
        self.state.now += 1;
        if let Some(prof) = prof {
            prof.add_cycle();
        }
    }

    /// [`Sim::run`] with every cycle stepped through
    /// [`Sim::step_profiled`]; same protocol, same report, plus a phase
    /// profile accumulated onto `prof`.
    pub fn run_profiled(&mut self, prof: &mut PhaseProfiler) -> SimReport {
        self.run_with(Some(prof))
    }

    /// Run the full warmup → measure → drain protocol from the current
    /// state and summarize.
    pub fn run(&mut self) -> SimReport {
        self.run_with(None)
    }

    fn run_with(&mut self, mut prof: Option<&mut PhaseProfiler>) -> SimReport {
        let end = self.state.ledger.begin_run(&self.cfg, self.state.now);
        while self.state.now < end && !self.deadlocked() {
            self.cycle(prof.as_deref_mut(), None);
        }
        self.report()
    }

    /// Step until the network is empty (queues drained, no flits in
    /// flight) or `max_cycles` elapse. Returns `true` if it drained.
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

    /// Whether no packet is queued, streaming, or in flight.
    pub fn is_idle(&self) -> bool {
        self.state.buf.iter().all(VecDeque::is_empty) && self.state.ledger.sources_idle()
    }

    /// Streaming histogram of total latencies (creation to tail
    /// consumption) of delivered packets created in the measurement
    /// window — the distribution the report's quantiles come from.
    pub fn latency_histogram(&self) -> StreamingHistogram {
        self.state.ledger.latency_histogram()
    }

    /// Build a report summarizing packets created in the measurement
    /// window.
    pub fn report(&self) -> SimReport {
        self.state.ledger.report(self.state.now)
    }

    // ---- per-cycle phases -------------------------------------------

    /// Apply every fault transition scheduled at or before `now`. With an
    /// empty plan this is a single always-false branch.
    fn apply_faults(&mut self) {
        let (topo, exists) = (self.topo, &self.exists);
        let applied = self.state.faults.apply_due(
            &self.fault_events,
            self.state.now,
            topo,
            (self.inj_base, self.ej_base),
            &mut self.obs,
            |node, dir| {
                let slot = topo.channel_slot(node, dir);
                exists[slot].then_some(slot)
            },
        );
        if applied {
            self.route_memo.invalidate();
        }
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
                // A channel's buffer only ever holds flits of its owning
                // packet.
                for slot in 0..self.num_channels {
                    if self.state.owner[slot] != pid {
                        continue;
                    }
                    if !self.state.buf[slot].is_empty() {
                        debug_assert!(self.state.buf[slot].iter().all(|f| f.packet == pid));
                        self.state.buf[slot].clear();
                        self.state.occupied_buffers -= 1;
                    }
                    self.state.owner[slot] = NONE_U32;
                    self.state.assigned_out[slot] = NONE_U32;
                }
            },
        );
    }

    fn generate(&mut self) {
        self.state.ledger.generate(
            &self.cfg,
            self.state.now,
            self.topo,
            self.pattern,
            &mut self.state.rng,
        );
        self.record_new_paths();
    }

    /// Input channels whose buffered flit is an unassigned head past its
    /// routing delay, in slot order. The returned vec is the engine's
    /// scratch buffer; hand it back to `scratch_heads` when done.
    fn routable_heads(&mut self) -> Vec<u32> {
        let mut heads = std::mem::take(&mut self.scratch_heads);
        heads.clear();
        for slot in 0..self.ej_base {
            if !self.exists[slot] || self.state.assigned_out[slot] != NONE_U32 {
                continue;
            }
            // A header arriving at cycle t is normally routable at t+1;
            // routing_delay postpones that by `delay` further cycles.
            if matches!(self.state.buf[slot].front(), Some(f) if f.is_head)
                && self.state.now > self.state.head_since[slot] + self.cfg.routing_delay
            {
                heads.push(slot as u32);
            }
        }
        heads
    }

    /// First half of phase A: collect input channels whose buffered flit
    /// is an unassigned head and order them under the input policy. The
    /// returned vec is the engine's scratch buffer; hand it back via
    /// [`Sim::arbitrate_heads`].
    fn collect_route_heads(&mut self) -> Vec<u32> {
        let mut heads = self.routable_heads();
        match self.cfg.input_policy {
            InputPolicy::Fcfs => {
                heads.sort_unstable_by_key(|&c| (self.state.head_since[c as usize], c));
            }
            InputPolicy::PortOrder => heads.sort_unstable(),
            InputPolicy::Random => {
                // Fisher–Yates with the run RNG for determinism.
                for i in (1..heads.len()).rev() {
                    let j = self.state.rng.gen_range(0..=i);
                    heads.swap(i, j);
                }
            }
        }
        heads
    }

    /// Second half of phase A: grant output channels to the selected
    /// heads, in order.
    fn arbitrate_heads(&mut self, heads: Vec<u32>) {
        for &c in &heads {
            self.try_assign(c as usize, None);
        }
        self.scratch_heads = heads;
    }

    /// Phase A under the choice oracle: collect routable heads exactly as
    /// [`Sim::collect_route_heads`] does, then serve them per router in a
    /// script-chosen order with script-chosen output picks.
    fn arbitrate_scripted(&mut self, script: &mut ChoiceScript) {
        let mut heads = self.routable_heads();
        script.serve_per_router(
            self,
            &mut heads,
            |sim, c| sim.input_router[c],
            |sim, c, script| sim.try_assign(c, Some(script)),
        );
        self.scratch_heads = heads;
    }

    /// Whether `slot` may be granted to a new worm: faulty and
    /// quarantined channels are excluded, each behind its own
    /// possible-flag so undisturbed runs never load the tables.
    #[inline]
    fn unusable(&self, slot: usize) -> bool {
        self.state.faults.is_faulty(slot)
            || (self.state.healing_possible && self.state.quarantined[slot])
    }

    /// The arrival direction of a head waiting at input channel `c`
    /// (`None` on an injection channel).
    fn arrived_dir(&self, c: usize) -> Option<Direction> {
        (!self.is_injection(c)).then(|| self.dir_of_network_slot(c))
    }

    /// The decisions that do not route: ejection at the destination and
    /// a healing hold. `None` means the head needs its candidate list.
    fn route_gate(&self, c: usize) -> Option<RouteDecision> {
        let flit = self.state.buf[c].front().expect("head present");
        let v = self.input_router[c] as usize;
        // Destination reached: bind to the ejection channel.
        if v == self.state.ledger.packets()[flit.packet as usize]
            .dst
            .index()
        {
            return Some(RouteDecision::Eject(self.ej_slot(v)));
        }
        // A held router grants nothing while its region re-proves;
        // ejection (above) still drains delivered traffic.
        if self.state.healing_possible && self.state.held[v] {
            return Some(RouteDecision::Hold);
        }
        None
    }

    /// Everything arbitration knows about the head at input channel `c`
    /// before contention: ejection binding, healing hold, or the full
    /// candidate list. This is the single copy of the routing semantics;
    /// arbitration reads it through [`Sim::route_memoized`], and
    /// [`wanted_output`](Sim::wanted_output) calls it directly.
    fn route_decision(&self, c: usize) -> RouteDecision {
        if let Some(decision) = self.route_gate(c) {
            return decision;
        }
        let flit = *self.state.buf[c].front().expect("head present");
        let pkt = self.state.ledger.packets()[flit.packet as usize];
        let v = NodeId(self.input_router[c]);
        let arrived = self.arrived_dir(c);
        let dirs = self.routing.route(self.topo, v, pkt.dst, arrived);
        // Under faults every output — primary or fallback — is filtered
        // through the declared turn set: misrouting around a failure can
        // leave a packet in arrival states its algorithm never produces,
        // and the filter is what keeps the live channel-dependency graph
        // a subgraph of the turn set's acyclic CDG. Fault-free runs skip
        // this entirely.
        let legal_bits = if !self.state.faults.possible() {
            u32::MAX
        } else {
            match (&self.turn_filter, arrived) {
                (Some(set), Some(a)) => set.allowed_from_bits(a),
                _ => u32::MAX,
            }
        };
        // Candidate output channels: turn-legal, existing, non-faulty, and
        // within the misroute budget when the routing function is
        // nonminimal.
        let here = self.topo.min_hops(v, pkt.dst);
        let mut candidates = Candidates::from_packed(&[]);
        let offer = |dir: Direction, candidates: &mut Candidates| {
            if legal_bits & (1 << dir.index()) == 0 {
                return;
            }
            let slot = self.topo.channel_slot(v, dir);
            if !self.exists[slot] || self.unusable(slot) {
                return;
            }
            let next = self.topo.neighbor(v, dir).expect("existing channel");
            candidates.push(slot, self.topo.min_hops(next, pkt.dst) < here);
        };
        for dir in dirs.iter() {
            offer(dir, &mut candidates);
        }
        // Misroute around the fault: when every output the algorithm
        // offers is broken, take any healthy turn-legal channel instead.
        // Nonminimal drifting is bounded by the packet lifetime, not the
        // misroute budget.
        if candidates.is_empty() && self.state.faults.possible() && self.turn_filter.is_some() {
            for dir_idx in 0..self.dirs_per_node {
                offer(Direction::from_index(dir_idx), &mut candidates);
            }
        }
        if !self.routing.is_minimal() && pkt.misroutes >= self.cfg.misroute_budget {
            candidates.prefer_productive();
        }
        RouteDecision::Candidates(candidates)
    }

    /// [`Sim::route_decision`] for arbitration, with the candidate list
    /// computed once per header arrival.
    ///
    /// The ejection and hold checks run first on every call, as they are
    /// cheap and the hold changes independently of the memo key. The
    /// candidate list is a function of the router, the destination, the
    /// arrival direction and the packet's misroute count — all fixed
    /// while one header waits at one channel — plus the fault and
    /// quarantine state, whose every change bumps the memo's epoch. So a
    /// memo hit returns exactly what `route_decision` would compute.
    fn route_memoized(&mut self, c: usize) -> RouteDecision {
        if let Some(decision) = self.route_gate(c) {
            return decision;
        }
        let packet = self.state.buf[c].front().expect("head present").packet;
        let since = self.state.head_since[c];
        if let Some(packed) = self.route_memo.get(c, packet, since) {
            return RouteDecision::Candidates(Candidates::from_packed(packed));
        }
        let decision = self.route_decision(c);
        if let RouteDecision::Candidates(candidates) = &decision {
            self.route_memo
                .insert(c, packet, since, candidates.as_packed().iter().copied());
        }
        decision
    }

    /// Commit one granted output: channel bindings, misroute marking,
    /// packet accounting, path recording, and observer hooks.
    fn commit_grant(&mut self, c: usize, (slot, productive): (usize, bool)) {
        let packet = self.state.buf[c].front().expect("head present").packet;
        let v = NodeId(self.input_router[c]);
        let dir = self.dir_of_network_slot(slot);
        self.state.assigned_out[c] = slot as u32;
        self.state.owner[slot] = packet;
        self.state.misroute_assigned[c] = !productive;
        if O::ENABLED {
            if let Some(arr) = self.arrived_dir(c) {
                self.obs
                    .on_turn(self.state.now, PacketId(packet), v, Turn::new(arr, dir));
            }
            if !productive {
                self.obs
                    .on_misroute(self.state.now, PacketId(packet), v, dir);
            }
        }
        self.state.ledger.count_hop(packet, productive);
        if self.cfg.record_paths {
            let next = self.topo.neighbor(v, dir).expect("assigned channel");
            self.state.paths[packet as usize].push(next);
        }
    }

    /// Bind the ejection slot for the worm at `c` if it is free; shared
    /// by the policy-driven and scripted arbitration (ejection is never a
    /// choice point).
    fn try_eject(&mut self, c: usize, ej: usize) {
        let packet = self.state.buf[c].front().expect("head present").packet;
        if self.state.owner[ej] == NONE_U32 && !self.unusable(ej) {
            self.state.assigned_out[c] = ej as u32;
            self.state.owner[ej] = packet;
            self.state.misroute_assigned[c] = false;
        }
    }

    /// The candidates a head may take this cycle: free channels only, and
    /// misroute only when necessary — if any productive channel is free,
    /// unproductive ones are not taken.
    fn free_candidates(&self, mut candidates: Candidates) -> Candidates {
        candidates.retain(|slot, _| self.state.owner[slot] == NONE_U32);
        candidates.prefer_productive();
        candidates
    }

    /// Grant the head at input channel `c` an output: the ejection
    /// channel at its destination, otherwise one of its free candidates,
    /// picked by `script` when given and by the output policy otherwise.
    fn try_assign(&mut self, c: usize, script: Option<&mut ChoiceScript>) {
        match self.route_memoized(c) {
            RouteDecision::Eject(ej) => self.try_eject(c, ej),
            RouteDecision::Hold => {}
            RouteDecision::Candidates(candidates) => {
                let free = self.free_candidates(candidates);
                if free.is_empty() {
                    return;
                }
                let dir_of = |(slot, _): &(usize, bool)| slot % self.dirs_per_node;
                let pick = match (script, self.cfg.output_policy) {
                    (Some(script), _) => free.get(script.decide(free.len)),
                    (None, OutputPolicy::LowestDim) => {
                        free.iter().min_by_key(dir_of).expect("nonempty")
                    }
                    (None, OutputPolicy::HighestDim) => {
                        free.iter().max_by_key(dir_of).expect("nonempty")
                    }
                    (None, OutputPolicy::Random) => free.get(self.state.rng.gen_range(0..free.len)),
                };
                self.commit_grant(c, pick);
            }
        }
    }

    /// Phase B: advance flits in lockstep. A flit moves when its bound
    /// output buffer has room or is itself vacating this cycle; dependency
    /// cycles (deadlock) advance nothing.
    fn advance(&mut self) {
        let depth = self.cfg.buffer_depth as usize;
        let moves = self.traversal.schedule(
            self.ej_base,
            &self.state.assigned_out,
            |c| !self.state.buf[c].is_empty(),
            |o| self.state.buf[o].len() < depth,
        );
        self.state
            .ledger
            .count_stalls(self.state.now, self.traversal.stalls());
        if O::ENABLED {
            for c in 0..self.num_channels {
                if !self.traversal.stalled(c) {
                    continue;
                }
                let Some(front) = self.state.buf[c].front() else {
                    continue;
                };
                let reason = if self.state.assigned_out[c] == NONE_U32 {
                    StallReason::NotRouted
                } else {
                    StallReason::Backpressure
                };
                self.obs
                    .on_stall(self.state.now, c, PacketId(front.packet), reason);
            }
        }

        // Apply moves targets-first.
        let in_window = self.state.ledger.in_window(self.state.now);
        for i in 0..moves {
            let c = self.traversal.scheduled(i);
            let flit = self.state.buf[c]
                .pop_front()
                .expect("flit scheduled to move");
            if self.state.buf[c].is_empty() {
                self.state.occupied_buffers -= 1;
            }
            self.state.ledger.note_move(flit.packet, self.state.now);
            if self.is_ejection(c) {
                self.state
                    .ledger
                    .consume(flit, c, self.state.now, &mut self.obs);
                if flit.is_tail {
                    self.state.owner[c] = NONE_U32;
                }
                continue;
            }
            let o = self.state.assigned_out[c] as usize;
            debug_assert!(self.state.buf[o].len() < depth);
            if in_window {
                self.state.channel_flits[o] += 1;
            }
            if flit.is_head {
                self.state.head_since[o] = self.state.now;
                if self.state.misroute_assigned[c] {
                    self.state.ledger.note_misroute(flit.packet);
                }
            }
            if self.state.buf[o].is_empty() {
                self.state.occupied_buffers += 1;
            }
            self.state.buf[o].push_back(flit);
            if O::ENABLED {
                self.obs.on_flit_advance(
                    self.state.now,
                    c,
                    Some(o),
                    PacketId(flit.packet),
                    flit.is_tail,
                );
            }
            if flit.is_tail {
                self.state.owner[c] = NONE_U32;
                self.state.assigned_out[c] = NONE_U32;
            }
        }
    }

    /// Feed the next flit of each source into its injection buffer when
    /// the buffer has room (the processor side of the injection channel).
    fn feed_injection(&mut self) {
        let depth = self.cfg.buffer_depth as usize;
        for v in 0..self.num_nodes {
            let inj = self.inj_slot(v);
            if self.state.faults.is_faulty(inj)
                || (self.state.healing_possible && self.state.held[v])
                || self.state.buf[inj].len() >= depth
            {
                continue;
            }
            let Some(flit) = self
                .state
                .ledger
                .next_flit(v, inj, self.state.now, &mut self.obs)
            else {
                continue;
            };
            if flit.is_head {
                self.state.head_since[inj] = self.state.now;
                self.state.owner[inj] = flit.packet;
            }
            if self.state.buf[inj].is_empty() {
                self.state.occupied_buffers += 1;
            }
            self.state.buf[inj].push_back(flit);
        }
    }

    fn detect_deadlock(&mut self) {
        let stuck =
            self.state
                .ledger
                .detect_deadlock(self.state.now, self.cfg.deadlock_threshold, || {
                    self.state.occupied_buffers > 0
                });
        if stuck && O::ENABLED {
            let snapshot = self.deadlock_snapshot();
            self.obs.on_deadlock(self.state.now, &snapshot);
        }
    }

    /// The frozen waits-for graph over currently occupied channels.
    ///
    /// Each occupied channel contributes one edge naming the front flit's
    /// packet and, when the worm is routed, the output channel it waits
    /// on; [`DeadlockSnapshot::cycle_channels`] then separates worms on
    /// an actual circular wait from traffic merely blocked behind them.
    pub fn deadlock_snapshot(&self) -> DeadlockSnapshot {
        let layout = ChannelLayout::new(self.num_nodes, self.dirs_per_node / 2);
        let mut edges = Vec::new();
        for c in 0..self.num_channels {
            let Some(front) = self.state.buf[c].front() else {
                continue;
            };
            let waits_for = if self.is_ejection(c) {
                None
            } else if self.state.assigned_out[c] != NONE_U32 {
                Some(self.state.assigned_out[c] as usize)
            } else if front.is_head {
                // Unrouted head: arbitration never bound it because every
                // output it wants is held by another worm. Re-derive the
                // wanted output — that is the true waits-for edge.
                self.wanted_output(c)
            } else {
                None
            };
            edges.push(WaitEdge {
                channel: c,
                packet: front.packet,
                buffered: self.state.buf[c].len(),
                head_waiting: front.is_head,
                waits_for,
            });
        }
        DeadlockSnapshot {
            now: self.state.now,
            layout,
            edges,
        }
    }

    /// The output channel the (unassigned) head flit at `c` is waiting
    /// to acquire: [`Sim::try_assign`]'s candidate selection minus the
    /// free-channel filter. With several busy alternatives the output
    /// policy's preferred one is reported (`Random` falls back to
    /// `LowestDim` — the snapshot cannot perturb the RNG).
    fn wanted_output(&self, c: usize) -> Option<usize> {
        self.state.buf[c].front()?;
        match self.route_decision(c) {
            RouteDecision::Eject(ej) => Some(ej),
            // Arbitration paused: the head waits on the hold.
            RouteDecision::Hold => None,
            RouteDecision::Candidates(mut candidates) => {
                candidates.prefer_productive();
                let dir_of = |(slot, _): &(usize, bool)| slot % self.dirs_per_node;
                let pick = match self.cfg.output_policy {
                    OutputPolicy::HighestDim => candidates.iter().max_by_key(dir_of),
                    OutputPolicy::LowestDim | OutputPolicy::Random => {
                        candidates.iter().min_by_key(dir_of)
                    }
                };
                pick.map(|(slot, _)| slot)
            }
        }
    }

    // ---- snapshot / restore -----------------------------------------

    /// Capture the engine's complete mutable state.
    ///
    /// See [`SimSnapshot`] for the boundary. Restoring the snapshot into
    /// the same (or an identically-shaped) simulation with
    /// [`Sim::restore`] resumes execution bit-for-bit: same RNG stream,
    /// same arbitration outcomes, same report.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot(self.state.clone())
    }

    /// Restore state captured by [`Sim::snapshot`]. The observer is not
    /// rewound — see [`SimSnapshot`] for the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a differently-shaped network
    /// (different channel or node count).
    pub fn restore(&mut self, snap: &SimSnapshot) {
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

    /// Total channel slots: network channels, then one injection and one
    /// ejection channel per node (same numbering as
    /// [`crate::obs::ChannelLayout`]).
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

    /// The flits buffered at `slot`, front first, as
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
}

impl<O: SimObserver> std::fmt::Debug for Sim<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.state.now)
            .field("routing", &self.routing.name())
            .field("pattern", &self.pattern.name())
            .field("packets", &self.packets().len())
            .field("deadlocked", &self.deadlocked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::PacketBlame;
    use turnroute_routing::{mesh2d, RoutingMode};
    use turnroute_topology::Mesh;
    use turnroute_traffic::Uniform;

    fn quiet_cfg() -> SimConfig {
        SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .build()
    }

    #[test]
    fn single_packet_latency_is_distance_plus_length() {
        // One packet, no contention: the head takes one cycle per channel
        // (injection + hops + ejection) and the tail follows len-1 cycles
        // behind.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[1, 1]);
        let dst = mesh.node_at_coords(&[5, 4]); // 7 hops
        let id = sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 7);
        // The head enters the injection buffer at the end of cycle 0, is
        // consumed after 1 injection + 7 network + 1 ejection transfers
        // (cycle 9), and the tail follows 9 flit-cycles behind: cycle 18.
        assert_eq!(p.latency(), Some(18));
        assert_eq!(p.misroutes, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::negative_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(300)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .seed(42)
            .build();
        let r1 = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let r2 = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn profiled_run_matches_plain_run_exactly() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(200)
            .measure_cycles(500)
            .drain_cycles(500)
            .seed(17)
            .build();
        let plain = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let mut prof = PhaseProfiler::new();
        let profiled = Sim::new(&mesh, &routing, &pattern, cfg).run_profiled(&mut prof);
        assert_eq!(plain, profiled, "profiling must not perturb simulation");
        assert_eq!(prof.cycles(), 1_200);
        assert!(prof.total_nanos() > 0);
        // Every phase ran (traversal and arbitration dominate, but even
        // drain does fault/expiry checks each cycle).
        for phase in Phase::ALL {
            assert!(prof.nanos(phase) > 0, "{} never timed", phase.name());
        }
    }

    #[test]
    fn conservation_all_packets_delivered_at_low_load() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.05)
            .lengths(crate::LengthDist::Fixed(10))
            .warmup_cycles(0)
            .measure_cycles(2_000)
            .drain_cycles(3_000)
            .seed(3)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.delivered_packets, report.generated_packets);
        assert_eq!(report.queued_at_end, 0);
        assert!(report.generated_packets > 50, "load too low to be a test");
    }

    #[test]
    fn two_packets_contend_for_one_channel() {
        // Both packets need the same output channel; FCFS serializes them.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let a = sim.inject_packet(
            mesh.node_at_coords(&[0, 0]),
            mesh.node_at_coords(&[3, 0]),
            10,
        );
        let b = sim.inject_packet(
            mesh.node_at_coords(&[0, 0]),
            mesh.node_at_coords(&[2, 0]),
            10,
        );
        assert!(sim.run_until_idle(500));
        let (pa, pb) = (sim.packets()[a.index()], sim.packets()[b.index()]);
        // Same source: b cannot even start injecting until a's tail left
        // the injection channel.
        assert!(pb.injected.unwrap() >= pa.injected.unwrap() + 10);
        assert!(pa.delivered.is_some() && pb.delivered.is_some());
    }

    #[test]
    fn faulty_channel_is_avoided_by_adaptive_routing() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        // Break the eastward channel out of the source; WF can go north.
        sim.set_fault(src, Direction::EAST);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 4);
        assert!(p.delivered.is_some());
    }

    #[test]
    fn held_router_pauses_and_resumes_arbitration() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let mid = mesh.node_at_coords(&[1, 0]);
        let dst = mesh.node_at_coords(&[3, 0]);
        sim.set_hold(mid, true);
        let id = sim.inject_packet(src, dst, 3);
        // The head reaches the held router and waits there; nothing is
        // granted past it, so the network never goes idle.
        assert!(!sim.run_until_idle(100));
        assert!(sim.packets()[id.index()].delivered.is_none());
        sim.set_hold(mid, false);
        assert!(sim.run_until_idle(200));
        assert!(sim.packets()[id.index()].delivered.is_some());
    }

    #[test]
    fn held_source_does_not_inject() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 0]);
        sim.set_hold(src, true);
        let id = sim.inject_packet(src, dst, 2);
        assert!(!sim.run_until_idle(100), "queued packet never enters");
        assert!(sim.packets()[id.index()].injected.is_none());
        sim.set_hold(src, false);
        assert!(sim.run_until_idle(100));
        assert!(sim.packets()[id.index()].delivered.is_some());
    }

    #[test]
    fn quarantined_channel_is_avoided_like_a_fault_and_releases() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[2, 2]);
        sim.set_quarantine(src, Direction::EAST, true);
        assert!(sim.is_quarantined(src, Direction::EAST));
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(500));
        // Same detour as the faulty-channel test: west-first goes north
        // and the quarantined channel carries nothing.
        let p = sim.packets()[id.index()];
        assert_eq!(p.hops, 4);
        assert!(p.delivered.is_some());
        assert_eq!(sim.channel_load(src, Direction::EAST), 0);
        // Released, the channel is grantable again.
        sim.set_quarantine(src, Direction::EAST, false);
        assert!(!sim.is_quarantined(src, Direction::EAST));
        let id2 = sim.inject_packet(src, mesh.node_at_coords(&[2, 0]), 5);
        assert!(sim.run_until_idle(500));
        assert!(sim.packets()[id2.index()].delivered.is_some());
        assert!(sim.channel_load(src, Direction::EAST) > 0);
    }

    #[test]
    fn is_idle_initially() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        assert!(sim.is_idle());
        assert_eq!(sim.now(), 0);
        assert!(!sim.deadlocked());
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("xy"), "{dbg}");
    }

    #[test]
    fn channel_loads_count_path_flits() {
        // One 10-flit packet along a straight 3-hop eastward path: each
        // network channel on the path carries all 10 flits.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let src = mesh.node_at_coords(&[0, 1]);
        let dst = mesh.node_at_coords(&[3, 1]);
        sim.inject_packet(src, dst, 10);
        assert!(sim.run_until_idle(200));
        for x in 0..3u16 {
            let node = mesh.node_at_coords(&[x, 1]);
            assert_eq!(sim.channel_load(node, Direction::EAST), 10);
        }
        assert_eq!(sim.channel_load(src, Direction::NORTH), 0);
        assert_eq!(sim.max_channel_load(), 10);
        assert_eq!(sim.total_channel_flits(), 30);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let plan = crate::FaultPlan::random_links(&mesh, 0.08, 200, 99).transient_node(
            NodeId(27),
            400,
            300,
        );
        let cfg = SimConfig::builder()
            .injection_rate(0.06)
            .warmup_cycles(300)
            .measure_cycles(1_500)
            .drain_cycles(1_500)
            .packet_timeout(800)
            .max_retries(1)
            .seed(7)
            .fault_plan(plan)
            .build();
        let r1 = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let r2 = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(r1, r2);
        assert!(r1.delivered_packets > 0);
    }

    #[test]
    fn transient_fault_heals_and_packet_gets_through() {
        // On a 1D line the only output toward the destination is the
        // failed link and no fallback direction exists, so the packet
        // waits at the source, the fault heals at cycle 100, and it
        // delivers.
        let mesh = Mesh::new(vec![4]);
        let routing = turnroute_routing::DimensionOrder::new("x", vec![0]);
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0]);
        let dst = mesh.node_at_coords(&[3]);
        let plan = crate::FaultPlan::new().transient_link(src, Direction::EAST, 0, 100);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(5_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        assert!(sim.run_until_idle(1_000));
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some());
        assert!(p.delivered.unwrap() >= 100, "delivered before the heal");
    }

    /// Deterministic left-turner that forces the paper's Figure 1
    /// circular wait on a 2x2 mesh (used by the precedence tests).
    #[derive(Debug, Clone, Copy)]
    struct TurnLeft;

    impl RoutingFunction for TurnLeft {
        fn name(&self) -> &str {
            "turn-left (deadlocks)"
        }

        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> turnroute_topology::DirSet {
            let left_of = |d: Direction| match d {
                Direction::EAST => Direction::NORTH,
                Direction::NORTH => Direction::WEST,
                Direction::WEST => Direction::SOUTH,
                Direction::SOUTH => Direction::EAST,
                _ => unreachable!("2D directions only"),
            };
            let productive = topo.productive_dirs(current, dest);
            if productive.len() <= 1 {
                return productive;
            }
            if let Some(arr) = arrived {
                if productive.contains(arr) {
                    return turnroute_topology::DirSet::single(arr);
                }
            }
            for d in productive.iter() {
                if productive.contains(left_of(d)) {
                    return turnroute_topology::DirSet::single(d);
                }
            }
            turnroute_topology::DirSet::single(productive.iter().next().expect("nonempty"))
        }

        fn is_minimal(&self) -> bool {
            true
        }
    }

    /// Four diagonal packets on a 2x2 mesh under [`TurnLeft`]: a
    /// guaranteed circular wait.
    fn square_deadlock_sim<'a>(
        mesh: &'a Mesh,
        routing: &'a TurnLeft,
        pattern: &'a Uniform,
        cfg: SimConfig,
    ) -> Sim<'a> {
        let mut sim = Sim::new(mesh, routing, pattern, cfg);
        let pairs = [
            ([0u16, 0], [1u16, 1]),
            ([1, 0], [0, 1]),
            ([1, 1], [0, 0]),
            ([0, 1], [1, 0]),
        ];
        for (s, d) in pairs {
            sim.inject_packet(mesh.node_at_coords(&s), mesh.node_at_coords(&d), 8);
        }
        sim
    }

    #[test]
    fn partitioned_destination_counts_as_unroutable() {
        // The destination node goes down permanently; with a lifetime and
        // no retries the packet is purged as unroutable and the run ends
        // Completed, not deadlocked.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let dst = mesh.node_at_coords(&[3, 3]);
        let plan = crate::FaultPlan::new().permanent_node(dst, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(200)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 5);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Completed);
        assert!(!report.deadlocked);
        assert_eq!(report.unroutable_packets, 1);
        assert_eq!(report.dropped_packets, 0);
        assert_eq!(report.delivered_packets, 0);
        assert!(sim.is_idle(), "purge must empty the network");
    }

    #[test]
    fn timeout_below_threshold_degrades_instead_of_deadlocking() {
        // Force a circular wait, with the packet lifetime shorter than the
        // deadlock threshold: expiries purge the blocked worms and the run
        // ends Completed with the loss accounted, never tripping the
        // detector.
        let mesh = Mesh::new_2d(2, 2);
        let routing = TurnLeft;
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(300)
            .drain_cycles(300)
            .packet_timeout(80)
            .deadlock_threshold(2_000)
            .build();
        let mut sim = square_deadlock_sim(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Completed);
        assert!(!report.deadlocked);
        assert_eq!(
            report.dropped_packets + report.delivered_packets,
            4,
            "{report}"
        );
        assert!(report.dropped_packets > 0, "{report}");
        assert!(sim.is_idle(), "expiries must have drained the network");
    }

    #[test]
    fn threshold_below_timeout_still_declares_deadlock() {
        // Same circular wait, precedence reversed: the deadlock detector
        // fires before any lifetime expires, and nothing is dropped.
        let mesh = Mesh::new_2d(2, 2);
        let routing = TurnLeft;
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(300)
            .drain_cycles(300)
            .packet_timeout(2_000)
            .deadlock_threshold(80)
            .build();
        let mut sim = square_deadlock_sim(&mesh, &routing, &pattern, cfg);
        let report = sim.run();
        assert_eq!(report.termination, crate::RunTermination::Deadlock);
        assert!(report.deadlocked);
        assert_eq!(report.dropped_packets, 0);
    }

    #[test]
    fn retries_requeue_and_are_counted() {
        // Block the packet's only way out long enough to expire its first
        // lifetime; the retry re-queues it and it delivers after the heal.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[0, 0]);
        let dst = mesh.node_at_coords(&[3, 0]);
        let plan = crate::FaultPlan::new().transient_link(src, Direction::EAST, 0, 300);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(1_000)
            .drain_cycles(1_000)
            .packet_timeout(150)
            .max_retries(5)
            .deadlock_threshold(5_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, dst, 5);
        let report = sim.run();
        let p = sim.packets()[id.index()];
        assert!(p.delivered.is_some(), "{report}");
        assert!(report.retries >= 1, "{report}");
        assert_eq!(report.dropped_packets, 0);
    }

    #[test]
    fn down_node_does_not_inject() {
        // A down source cannot stream packets into the network; its
        // queued packet expires as unroutable.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let src = mesh.node_at_coords(&[1, 1]);
        let plan = crate::FaultPlan::new().permanent_node(src, 0);
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .warmup_cycles(0)
            .measure_cycles(400)
            .drain_cycles(400)
            .packet_timeout(100)
            .deadlock_threshold(10_000)
            .fault_plan(plan)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let id = sim.inject_packet(src, mesh.node_at_coords(&[3, 3]), 5);
        let report = sim.run();
        let p = sim.packets()[id.index()];
        assert!(p.injected.is_none());
        assert!(p.dropped.is_some());
        assert_eq!(report.unroutable_packets, 1);
    }

    #[test]
    fn blame_identity_and_report_totals_match_latencies() {
        struct Blames(Vec<(PacketId, PacketBlame)>);
        impl SimObserver for Blames {
            fn on_blame(&mut self, _now: u64, packet: PacketId, blame: PacketBlame) {
                self.0.push((packet, blame));
            }
        }
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.20)
            .warmup_cycles(100)
            .measure_cycles(800)
            .drain_cycles(2_000)
            .seed(11)
            .build();
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, Blames(Vec::new()));
        let report = sim.run();
        assert!(report.delivered_packets > 50, "{report}");
        let blames = std::mem::take(&mut sim.observer_mut().0);
        assert!(!blames.is_empty());
        let mut window_total = 0u64;
        for &(id, blame) in &blames {
            let p = sim.packets()[id.index()];
            assert_eq!(
                blame.total(),
                p.latency().expect("blamed packets were delivered"),
                "blame identity broken for {id:?}"
            );
            if p.created >= 100 && p.created < 900 {
                window_total += blame.total();
            }
        }
        // The report's blame totals cover exactly the delivered window
        // packets, so they sum to that cohort's total latency mass.
        assert_eq!(report.blame.total(), window_total);
        assert!(report.blame.queue_cycles > 0, "{report}");
        assert!(report.blame.service_cycles > 0, "{report}");
    }

    #[test]
    fn saturated_run_times_out_instead_of_completing() {
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = crate::harness::saturating_config(5, 400, 10_000);
        let report = Sim::new(&mesh, &routing, &pattern, cfg).run();
        assert_eq!(report.termination, crate::RunTermination::Timeout);
        assert!(!report.deadlocked);
        assert!(report.queued_at_end > 0, "{report}");
    }

    #[test]
    #[should_panic(expected = "must leave its source")]
    fn inject_rejects_self_packet() {
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        let _ = sim.inject_packet(NodeId(3), NodeId(3), 5);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        // A plain run and a run that is snapshotted mid-flight, perturbed
        // (extra steps, an extra packet), and restored must produce the
        // same report — the snapshot boundary covers everything the
        // simulation reads.
        let mesh = Mesh::new_2d(8, 8);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.08)
            .warmup_cycles(100)
            .measure_cycles(400)
            .drain_cycles(400)
            .seed(23)
            .build();
        let plain = Sim::new(&mesh, &routing, &pattern, cfg.clone()).run();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        sim.set_measure_window(100, 500);
        for _ in 0..250 {
            sim.step();
        }
        let snap = sim.snapshot();
        // Perturb: junk steps plus a junk packet, then rewind.
        sim.inject_packet(NodeId(0), NodeId(60), 7);
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

    #[test]
    fn fault_set_while_a_head_waits_reroutes_it() {
        // The victim's head waits at (1,0) for the east channel a long
        // blocker worm holds; the channel then fails. The head's memoized
        // candidates predate the fault, so `set_fault` must invalidate
        // them: the head misroutes around the failure instead of taking
        // the broken channel once the blocker's tail frees it.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .record_paths(true)
            .build();
        let mut sim = Sim::new(&mesh, &routing, &pattern, cfg);
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        sim.inject_packet(at(0, 0), at(3, 0), 30);
        for _ in 0..4 {
            sim.step();
        }
        let victim = sim.inject_packet(at(1, 0), at(3, 0), 4);
        for _ in 0..4 {
            sim.step();
        }
        assert_eq!(
            sim.packets()[victim.index()].hops,
            0,
            "victim must be waiting"
        );
        sim.set_fault(at(1, 0), Direction::EAST);
        assert!(sim.run_until_idle(500));
        let p = sim.packets()[victim.index()];
        assert!(p.delivered.is_some());
        assert_ne!(
            sim.packet_path(victim)[1],
            at(2, 0),
            "took the failed channel"
        );
        assert!(p.misroutes > 0);
    }

    /// One perturbation for the restore-leak test: a packet from `src`
    /// to `dst`, an optional quarantine, then `cycles` scripted steps
    /// with every choice set to `digit`.
    fn scripted_leg(
        sim: &mut Sim<'_>,
        (src, dst): (NodeId, NodeId),
        quarantine: Option<Direction>,
        digit: u32,
        cycles: usize,
    ) {
        sim.inject_packet(src, dst, 5);
        if let Some(dir) = quarantine {
            sim.set_quarantine(src, dir, true);
        }
        for _ in 0..cycles {
            sim.step_with_choices(&mut ChoiceScript::new(vec![digit; 16]));
        }
    }

    #[test]
    fn route_memo_does_not_leak_across_restore() {
        // Warm the memo with waiting heads and snapshot. Leg A sends the
        // next packet id from (2,2) north-east under a quarantine and
        // script A; after restoring, leg B sends the same packet id from
        // the same injection channel, at the same cycle, west under
        // script B. A memo entry surviving the restore would hand B's
        // header A's candidates, so B must end exactly where a fresh
        // engine restored from the snapshot ends.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::west_first(RoutingMode::Minimal);
        let pattern = Uniform::new();
        let at = |x, y| mesh.node_at_coords(&[x, y]);
        let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
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
        scripted_leg(&mut sim, leg_a, Some(Direction::EAST), 1, 8);
        sim.restore(&snap);
        scripted_leg(&mut sim, leg_b, None, 0, 8);
        let mut fresh = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
        fresh.restore(&snap);
        scripted_leg(&mut fresh, leg_b, None, 0, 8);
        assert_eq!(
            sim.snapshot(),
            fresh.snapshot(),
            "memo leaked across restore"
        );
        let b = sim.packets().last().expect("leg B packet");
        assert!(b.hops > 0, "leg B's header must have been routed");
    }

    #[test]
    fn scripted_step_with_empty_scripts_matches_port_order_lowest_dim() {
        // Digit 0 everywhere = serve heads in slot order, take the first
        // candidate the routing function offers. Under a deterministic
        // single-dir routing function (xy) every policy collapses to that,
        // so scripted and plain runs must agree exactly.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.0)
            .deadlock_threshold(500)
            .input_policy(InputPolicy::PortOrder)
            .build();
        let mut plain = Sim::new(&mesh, &routing, &pattern, cfg.clone());
        let mut scripted = Sim::new(&mesh, &routing, &pattern, cfg);
        for (src, dst) in [(0u32, 15u32), (5, 3), (12, 2), (9, 6)] {
            plain.inject_packet(NodeId(src), NodeId(dst), 4);
            scripted.inject_packet(NodeId(src), NodeId(dst), 4);
        }
        for _ in 0..120 {
            plain.step();
            let mut script = ChoiceScript::default();
            scripted.step_with_choices(&mut script);
        }
        assert_eq!(scripted.snapshot(), plain.snapshot());
        assert!(plain.is_idle() && scripted.is_idle());
    }

    #[test]
    fn scripted_choices_cover_both_contending_heads() {
        // Two heads meet at router (1,0) the same cycle, both needing its
        // +y output under xy routing; the script's digit decides which is
        // served first, and both winners are reachable.
        let mesh = Mesh::new_2d(4, 4);
        let routing = mesh2d::xy();
        let pattern = Uniform::new();
        let mut winners = Vec::new();
        for digit in [0u32, 1] {
            let mut sim = Sim::new(&mesh, &routing, &pattern, quiet_cfg());
            let dst = mesh.node_at_coords(&[1, 2]);
            let a = sim.inject_packet(mesh.node_at_coords(&[0, 0]), dst, 3);
            let b = sim.inject_packet(mesh.node_at_coords(&[2, 0]), dst, 3);
            // Two choice-free steps march both heads to the meeting
            // router's input buffers.
            for _ in 0..2 {
                let mut s = ChoiceScript::default();
                sim.step_with_choices(&mut s);
                assert!(s.arities().is_empty(), "premature choice point");
            }
            let mut script = ChoiceScript::new(vec![digit]);
            sim.step_with_choices(&mut script);
            assert_eq!(script.arities(), &[2], "expected one 2-way contention");
            let pa = sim.packets()[a.index()];
            let pb = sim.packets()[b.index()];
            assert_ne!(pa.hops, pb.hops, "exactly one head won the channel");
            winners.push(pa.hops > pb.hops);
        }
        assert_ne!(winners[0], winners[1], "digit did not change the winner");
    }
}
