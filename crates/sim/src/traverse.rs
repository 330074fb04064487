//! The readiness search behind both wormhole engines' flit advance.

/// Sentinel for an input channel with no output binding.
const UNBOUND: u32 = u32::MAX;

const UNKNOWN: u8 = 0;
const IN_PROGRESS: u8 = 1;
const YES: u8 = 2;
const NO: u8 = 3;

/// The readiness search of one cycle's flit advance, with its scratch
/// state reused across cycles.
///
/// All flits move in lockstep. A flit at the front of an input buffer can
/// move when the output channel its worm is bound to has room, or is full
/// but itself vacating this cycle; flits in ejection channels are always
/// consumed. Chains of such dependencies are resolved by one depth-first
/// search over the bindings, and a dependency cycle (a wormhole deadlock
/// in the making) advances nothing. The engines differ only in what
/// "has room" means — [`Sim`](crate::Sim) buffers hold `buffer_depth`
/// flits, virtual-channel buffers one — so that test is a parameter.
#[derive(Debug, Clone, Default)]
pub struct Traversal {
    state: Vec<u8>,
    order: Vec<u32>,
    stack: Vec<u32>,
    occupied: usize,
    cancelled: usize,
}

impl Traversal {
    /// Scratch space for `num_channels` channels.
    pub fn new(num_channels: usize) -> Traversal {
        Traversal {
            state: vec![UNKNOWN; num_channels],
            ..Traversal::default()
        }
    }

    /// Find every channel whose front flit can move this cycle and return
    /// how many there are; [`Traversal::scheduled`] lists them targets
    /// first, so applying the moves in that order never overwrites a flit
    /// that has not left yet.
    ///
    /// Channels at or past `ej_base` are ejection channels. `bound[c]` is
    /// the output channel the worm crossing input channel `c` is bound to
    /// (`u32::MAX` if none), `occupied(c)` whether `c` buffers a flit, and
    /// `has_room(o)` whether output `o` can take one more flit.
    pub fn schedule(
        &mut self,
        ej_base: usize,
        bound: &[u32],
        occupied: impl Fn(usize) -> bool,
        has_room: impl Fn(usize) -> bool,
    ) -> usize {
        let Traversal {
            state,
            order,
            stack,
            ..
        } = self;
        state.fill(UNKNOWN);
        order.clear();
        let mut occupied_count = 0;
        for start in 0..state.len() {
            if !occupied(start) {
                continue;
            }
            occupied_count += 1;
            if state[start] != UNKNOWN {
                continue;
            }
            stack.clear();
            stack.push(start as u32);
            while let Some(&c) = stack.last() {
                let c = c as usize;
                let verdict = match state[c] {
                    UNKNOWN if !occupied(c) => NO,
                    UNKNOWN if c >= ej_base => YES,
                    UNKNOWN => match bound[c] {
                        UNBOUND => NO,
                        o if has_room(o as usize) => YES,
                        o => match state[o as usize] {
                            UNKNOWN => {
                                state[c] = IN_PROGRESS;
                                stack.push(o);
                                continue;
                            }
                            // Dependency cycle: blocked (this is a
                            // wormhole deadlock in the making).
                            IN_PROGRESS => NO,
                            resolved => resolved,
                        },
                    },
                    // Resolved after the output it waits on.
                    IN_PROGRESS if state[bound[c] as usize] == YES => YES,
                    IN_PROGRESS => NO,
                    _ => unreachable!("only unresolved channels are on the stack"),
                };
                state[c] = verdict;
                if verdict == YES {
                    order.push(c as u32);
                }
                stack.pop();
            }
        }
        self.occupied = occupied_count;
        self.cancelled = 0;
        self.order.len()
    }

    /// The `i`-th scheduled move's input channel, targets first.
    #[inline]
    pub fn scheduled(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    /// Record that the scheduled move out of `c` did not happen after all
    /// (an engine constraint beyond buffer room, such as link bandwidth).
    pub fn cancel(&mut self, c: usize) {
        debug_assert_eq!(self.state[c], YES, "only scheduled moves cancel");
        self.state[c] = NO;
        self.cancelled += 1;
    }

    /// Whether `c` was occupied this cycle and its front flit does not
    /// move.
    #[inline]
    pub fn stalled(&self, c: usize) -> bool {
        self.state[c] == NO
    }

    /// Occupied channels whose front flit does not move this cycle.
    pub fn stalls(&self) -> usize {
        self.occupied - (self.order.len() - self.cancelled)
    }
}
