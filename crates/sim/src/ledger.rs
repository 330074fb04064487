//! The packet ledger shared by both wormhole engines.

use crate::obs::{PacketBlame, SimObserver, StreamingHistogram};
use crate::{BlameTotals, LengthDist, Packet, PacketId, RunTermination, SimConfig, SimReport};
use std::collections::VecDeque;
use turnroute_rng::rngs::StdRng;
use turnroute_rng::Rng;
use turnroute_topology::{NodeId, Topology};
use turnroute_traffic::TrafficPattern;

/// One flit in a channel buffer. A buffer only ever holds flits of the
/// packet owning its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: u32,
    /// Whether this is the header flit.
    pub is_head: bool,
    /// Whether this is the tail flit.
    pub is_tail: bool,
}

/// Per-source stream state: the packet currently being pushed into the
/// injection channel and how many of its flits have been emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Emitting {
    packet: u32,
    sent: u32,
}

crate::reusing_clone! {
    /// Packets, sources, lifetimes, blame and measurement counters of one
    /// wormhole simulation.
    ///
    /// Everything the Section 6 simulator knows about packets, apart from
    /// where their flits sit in the network, is the same in [`Sim`](crate::Sim)
    /// and the virtual-channel engine: the packet table, source queues and the
    /// packet each source is streaming, exponential arrivals, packet lifetimes
    /// with retries and drops, per-packet latency blame, and the measurement
    /// window's counters. The ledger holds that state and the code that
    /// changes it. Each engine keeps its own channel model (buffers and
    /// bindings) and its own arbitration, and calls into the ledger at fixed
    /// points of its cycle.
    ///
    /// The ledger draws from the engine's RNG, which the engine passes in, so
    /// arrival sampling and the engine's own random arbitration share one
    /// stream in one order.
    #[derive(Debug, Default, PartialEq)]
    pub struct Ledger {
        packets: Vec<Packet>,
        queues: Vec<VecDeque<u32>>,
        emitting: Vec<Option<Emitting>>,
        next_arrival: Vec<f64>,

        // --- graceful degradation ---
        /// Packet-lifetime deadlines, nondecreasing (every push uses
        /// `now + packet_timeout` and `now` is monotone), so expiry is an
        /// amortized O(1) front-pop scan.
        deadlines: VecDeque<(u64, u32)>,
        /// Retries consumed per packet.
        retry_counts: Vec<u32>,
        dropped_packets: u64,
        unroutable_packets: u64,
        total_retries: u64,

        // --- latency blame attribution (turnscope) ---
        /// Per-packet count of in-network cycles with at least one flit
        /// movement, current injection attempt only (reset on retry).
        progress_cycles: Vec<u64>,
        /// Cycle stamp deduplicating `progress_cycles` increments when
        /// several flits of one packet move in the same cycle
        /// (`u64::MAX` = no movement yet).
        last_progress: Vec<u64>,
        /// Per-packet count of progress cycles spent on non-productive
        /// (misrouted) header moves, current injection attempt only.
        misroute_progress: Vec<u64>,
        /// Blame totals accumulated over delivered window packets.
        blame: BlameTotals,

        // --- measurement ---
        window: (u64, u64),
        generated_packets: u64,
        generated_flits: u64,
        delivered_flits_in_window: u64,
        max_queue_len: usize,
        /// Occupied-channel cycles that advanced nothing, measurement window
        /// only.
        total_stall_cycles: u64,
        /// Last cycle a flit moved or a packet was purged.
        last_move: u64,
        deadlocked: bool,
    }
}

impl Ledger {
    /// An empty ledger for `num_nodes` sources. With a positive injection
    /// rate, each source's first arrival is drawn from `rng` so the nodes
    /// do not all fire at cycle 0.
    pub fn new(num_nodes: usize, cfg: &SimConfig, rng: &mut StdRng) -> Ledger {
        let mut next_arrival = vec![0.0; num_nodes];
        if cfg.injection_rate > 0.0 {
            let mean = mean_interarrival(cfg);
            for t in &mut next_arrival {
                *t = sample_exp(rng, mean);
            }
        }
        Ledger {
            queues: vec![VecDeque::new(); num_nodes],
            emitting: vec![None; num_nodes],
            next_arrival,
            window: (0, u64::MAX),
            ..Ledger::default()
        }
    }

    /// All packets created so far.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Packets queued at `node`'s source, front first.
    pub fn source_queue(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        self.queues[node].iter().copied()
    }

    /// The packet currently streaming into `node`'s injection channel and
    /// how many of its flits have been emitted.
    pub fn source_emitting(&self, node: usize) -> Option<(u32, u32)> {
        self.emitting[node].map(|e| (e.packet, e.sent))
    }

    /// Whether no packet is queued or streaming at any source.
    pub fn sources_idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty) && self.emitting.iter().all(Option::is_none)
    }

    /// Whether deadlock was detected.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// Set the measurement window `[start, end)`.
    pub fn set_window(&mut self, start: u64, end: u64) {
        self.window = (start, end);
    }

    /// Start the warmup → measure → drain protocol at cycle `now`: set the
    /// measurement window from `cfg` and return the cycle the run ends.
    pub fn begin_run(&mut self, cfg: &SimConfig, now: u64) -> u64 {
        let start = now + cfg.warmup_cycles;
        let end = start + cfg.measure_cycles;
        self.window = (start, end);
        end + cfg.drain_cycles
    }

    /// Whether cycle `now` lies in the measurement window.
    pub fn in_window(&self, now: u64) -> bool {
        now >= self.window.0 && now < self.window.1
    }

    fn created_in_window(&self, p: &Packet) -> bool {
        p.created >= self.window.0 && p.created < self.window.1
    }

    /// Queue a new packet at its source and return its index.
    pub fn create_packet(
        &mut self,
        cfg: &SimConfig,
        now: u64,
        src: NodeId,
        dst: NodeId,
        len: u32,
    ) -> u32 {
        let id = self.packets.len() as u32;
        self.packets.push(Packet {
            id: PacketId(id),
            src,
            dst,
            len,
            created: now,
            injected: None,
            delivered: None,
            dropped: None,
            hops: 0,
            misroutes: 0,
        });
        if cfg.packet_timeout > 0 {
            self.deadlines.push_back((now + cfg.packet_timeout, id));
            self.retry_counts.push(0);
        }
        self.progress_cycles.push(0);
        self.last_progress.push(u64::MAX);
        self.misroute_progress.push(0);
        self.queues[src.index()].push_back(id);
        if self.in_window(now) {
            self.generated_packets += 1;
            self.generated_flits += u64::from(len);
        }
        id
    }

    /// Generate every message whose arrival time has come, at every
    /// source, and track the longest source queue in the window.
    pub fn generate(
        &mut self,
        cfg: &SimConfig,
        now: u64,
        topo: &dyn Topology,
        pattern: &dyn TrafficPattern,
        rng: &mut StdRng,
    ) {
        if cfg.injection_rate <= 0.0 {
            return;
        }
        let mean = mean_interarrival(cfg);
        for v in 0..self.queues.len() {
            while self.next_arrival[v] <= now as f64 {
                self.next_arrival[v] += sample_exp(rng, mean);
                let src = NodeId(v as u32);
                if let Some(dst) = pattern.dest(topo, src, rng) {
                    let len = sample_len(cfg, rng);
                    self.create_packet(cfg, now, src, dst, len);
                }
                // Self-directed messages are consumed locally: no network
                // traffic, no queueing.
            }
            if self.in_window(now) {
                self.max_queue_len = self.max_queue_len.max(self.queues[v].len());
            }
        }
    }

    /// Purge packets whose lifetime expired: retry (re-queue at the
    /// source) while retries remain and delivery is still possible,
    /// otherwise drop and account. `node_down` is the engine's per-node
    /// failure refcount; `purge_channels` removes the packet's flits and
    /// reservations from the engine's channels. With `packet_timeout == 0`
    /// this is a single always-false branch.
    pub fn expire<O: SimObserver>(
        &mut self,
        cfg: &SimConfig,
        now: u64,
        node_down: &[u16],
        obs: &mut O,
        mut purge_channels: impl FnMut(u32),
    ) {
        if cfg.packet_timeout == 0 {
            return;
        }
        while let Some(&(deadline, pid)) = self.deadlines.front() {
            if deadline > now {
                break;
            }
            self.deadlines.pop_front();
            let p = self.packets[pid as usize];
            if p.delivered.is_some() || p.dropped.is_some() {
                continue; // resolved before its deadline; stale entry
            }
            let src = p.src.index();
            self.queues[src].retain(|&q| q != pid);
            if matches!(self.emitting[src], Some(e) if e.packet == pid) {
                self.emitting[src] = None;
            }
            purge_channels(pid);
            if O::ENABLED {
                obs.on_purge(now, PacketId(pid));
            }
            let unroutable = node_down[src] > 0 || node_down[p.dst.index()] > 0;
            let counted = self.created_in_window(&p);
            let pi = pid as usize;
            if !unroutable && self.retry_counts[pi] < cfg.max_retries {
                self.retry_counts[pi] += 1;
                if counted {
                    self.total_retries += 1;
                }
                let p = &mut self.packets[pi];
                p.injected = None;
                p.hops = 0;
                p.misroutes = 0;
                // Blame restarts with the attempt: queue wait absorbs the
                // failed attempt's time (queue = injected − created uses
                // the *final* injection cycle).
                self.progress_cycles[pi] = 0;
                self.last_progress[pi] = u64::MAX;
                self.misroute_progress[pi] = 0;
                self.queues[src].push_back(pid);
                self.deadlines.push_back((now + cfg.packet_timeout, pid));
            } else {
                self.packets[pi].dropped = Some(now);
                if counted {
                    if unroutable {
                        self.unroutable_packets += 1;
                    } else {
                        self.dropped_packets += 1;
                    }
                }
                if O::ENABLED {
                    obs.on_drop(now, PacketId(pid), unroutable);
                }
            }
            // A purge is progress: freed channels change the network's
            // state, so deadlock detection must not trip while timeouts
            // are draining a blocked network. This is the documented
            // precedence — `packet_timeout < deadlock_threshold` degrades
            // gracefully, the reverse declares deadlock first.
            self.last_move = now;
        }
    }

    /// The next flit source `v` pushes into its injection channel `slot`,
    /// which the engine has found free: the next flit of the packet
    /// streaming there, or the header of the next queued packet. `None`
    /// when the source has nothing to send.
    #[inline]
    pub fn next_flit<O: SimObserver>(
        &mut self,
        v: usize,
        slot: usize,
        now: u64,
        obs: &mut O,
    ) -> Option<Flit> {
        if self.emitting[v].is_none() {
            let pid = self.queues[v].pop_front()?;
            self.packets[pid as usize].injected = Some(now);
            self.emitting[v] = Some(Emitting {
                packet: pid,
                sent: 0,
            });
            if O::ENABLED {
                let p = self.packets[pid as usize];
                obs.on_inject(now, p.id, p.src, p.dst, p.len);
            }
        }
        let Emitting { packet, sent } = self.emitting[v].expect("set above");
        let len = self.packets[packet as usize].len;
        let flit = Flit {
            packet,
            is_head: sent == 0,
            is_tail: sent + 1 == len,
        };
        if O::ENABLED {
            obs.on_flit_source(now, slot, PacketId(packet), flit.is_tail);
        }
        let rest = Emitting {
            packet,
            sent: sent + 1,
        };
        self.emitting[v] = (!flit.is_tail).then_some(rest);
        Some(flit)
    }

    /// Account one granted network channel to `packet`'s header.
    pub fn count_hop(&mut self, packet: u32, productive: bool) {
        let p = &mut self.packets[packet as usize];
        p.hops += 1;
        if !productive {
            p.misroutes += 1;
        }
    }

    /// A flit of `packet` moved this cycle. The stamp deduplicates
    /// several flits of one worm moving in the same cycle.
    #[inline]
    pub fn note_move(&mut self, packet: u32, now: u64) {
        self.last_move = now;
        let pi = packet as usize;
        if self.last_progress[pi] != now {
            self.last_progress[pi] = now;
            self.progress_cycles[pi] += 1;
        }
    }

    /// The header of `packet` crossed a channel granted non-productively:
    /// this progress cycle is misroute penalty. The head moves at most
    /// once per cycle, so misroute progress never exceeds total progress.
    pub fn note_misroute(&mut self, packet: u32) {
        self.misroute_progress[packet as usize] += 1;
    }

    /// The processor at ejection channel `slot` consumed `flit` this
    /// cycle. A tail completes delivery and settles the packet's latency
    /// blame.
    pub fn consume<O: SimObserver>(&mut self, flit: Flit, slot: usize, now: u64, obs: &mut O) {
        if self.in_window(now) {
            self.delivered_flits_in_window += 1;
        }
        if O::ENABLED {
            obs.on_flit_advance(now, slot, None, PacketId(flit.packet), flit.is_tail);
        }
        if !flit.is_tail {
            return;
        }
        let pi = flit.packet as usize;
        let p = &mut self.packets[pi];
        p.delivered = Some(now);
        let (id, created, hops) = (p.id, p.created, p.hops);
        let injected = p.injected.expect("delivered packet was injected");
        let latency = now - created;
        let progress = self.progress_cycles[pi];
        let misroute = self.misroute_progress[pi];
        let blame = PacketBlame {
            queue_cycles: injected - created,
            blocked_cycles: (now - injected) - progress,
            service_cycles: progress - misroute,
            misroute_cycles: misroute,
        };
        debug_assert_eq!(blame.total(), latency);
        if self.created_in_window(&self.packets[pi]) {
            self.blame.queue_cycles += blame.queue_cycles;
            self.blame.blocked_cycles += blame.blocked_cycles;
            self.blame.service_cycles += blame.service_cycles;
            self.blame.misroute_cycles += blame.misroute_cycles;
        }
        if O::ENABLED {
            obs.on_deliver(now, id, latency, hops);
            obs.on_blame(now, id, blame);
        }
    }

    /// Count `stalls` occupied channels that advanced nothing this cycle.
    pub fn count_stalls(&mut self, now: u64, stalls: usize) {
        if self.in_window(now) {
            self.total_stall_cycles += stalls as u64;
        }
    }

    /// Declare deadlock when nothing has moved for `threshold` cycles and
    /// `occupied()` reports flits still in the network. Returns whether
    /// this call declared it.
    pub fn detect_deadlock(
        &mut self,
        now: u64,
        threshold: u64,
        occupied: impl FnOnce() -> bool,
    ) -> bool {
        let stuck = now.saturating_sub(self.last_move) >= threshold && occupied();
        self.deadlocked |= stuck;
        stuck
    }

    /// Streaming histogram of total latencies (creation to tail
    /// consumption) of delivered packets created in the measurement
    /// window — the distribution the report's quantiles come from.
    pub fn latency_histogram(&self) -> StreamingHistogram {
        let mut hist = StreamingHistogram::new();
        for p in self.window_packets() {
            if let Some(lat) = p.latency() {
                hist.record(lat);
            }
        }
        hist
    }

    fn window_packets(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(|p| self.created_in_window(p))
    }

    /// Summarize the packets created in the measurement window, as of
    /// cycle `now`.
    pub fn report(&self, now: u64) -> SimReport {
        let (ms, me) = self.window;
        let hist = self.latency_histogram();
        let mut network_sum = 0u64;
        let mut hops_sum = 0u64;
        let mut misroute_sum = 0u64;
        for p in self.window_packets() {
            if let Some(lat) = p.latency() {
                network_sum += p.network_latency().unwrap_or(lat);
                hops_sum += u64::from(p.hops);
                misroute_sum += u64::from(p.misroutes);
            }
        }
        let delivered = hist.count();
        let avg = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        SimReport {
            generated_packets: self.generated_packets,
            generated_flits: self.generated_flits,
            delivered_packets: delivered,
            delivered_flits_in_window: self.delivered_flits_in_window,
            measure_cycles: me.saturating_sub(ms),
            avg_latency_cycles: hist.mean(),
            p50_latency_cycles: hist.p50() as f64,
            p90_latency_cycles: hist.p90() as f64,
            p99_latency_cycles: hist.p99() as f64,
            max_latency_cycles: hist.max(),
            avg_network_latency_cycles: avg(network_sum, delivered),
            avg_hops: avg(hops_sum, delivered),
            avg_misroutes: avg(misroute_sum, delivered),
            blame: self.blame,
            total_stall_cycles: self.total_stall_cycles,
            queued_at_end: self.queues.iter().map(|q| q.len() as u64).sum(),
            max_queue_len: self.max_queue_len,
            dropped_packets: self.dropped_packets,
            unroutable_packets: self.unroutable_packets,
            retries: self.total_retries,
            deadlocked: self.deadlocked,
            termination: if self.deadlocked {
                RunTermination::Deadlock
            } else if self.generated_packets
                > delivered + self.dropped_packets + self.unroutable_packets
            {
                // Part of the measured cohort was still queued or in
                // flight at the horizon: the network never drained the
                // measured load (saturation collapse), which is what the
                // turnscope detectors are meant to call ahead of time.
                // (Packets generated *after* the window — the drain phase
                // keeps injecting — do not count against completion.)
                RunTermination::Timeout
            } else {
                RunTermination::Completed
            },
            end_cycle: now,
        }
    }
}

fn mean_interarrival(cfg: &SimConfig) -> f64 {
    cfg.lengths.mean() / cfg.injection_rate
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

fn sample_len(cfg: &SimConfig, rng: &mut StdRng) -> u32 {
    match cfg.lengths {
        LengthDist::Fixed(n) => n,
        LengthDist::Bimodal { short, long } => {
            if rng.gen_bool(0.5) {
                short
            } else {
                long
            }
        }
    }
}
