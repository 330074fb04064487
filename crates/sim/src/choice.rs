//! Decision oracle for choice-scripted stepping.
//!
//! The engines are deterministic: given a seed, every arbitration is
//! resolved by the configured input/output policies. Model checking
//! (`turncheck`) needs the opposite — to drive the *same* mechanics
//! through *every* resolution a policy could pick. [`ChoiceScript`] is
//! the seam between the two: a scripted step consults the oracle at each
//! genuine decision point (which waiting head a router serves next, which
//! candidate output channel a head takes), and the oracle both replays a
//! fixed digit string and records the arity of every decision it was
//! asked, so an external explorer can enumerate sibling schedules without
//! re-modeling the engine.
//!
//! The contract mirrors stateless search: run a step with an empty
//! script (every decision defaults to digit 0), read back
//! [`ChoiceScript::arities`] to learn the shape of that execution's
//! decision tree, and use [`ChoiceScript::next_script`] to advance an
//! odometer over it. Decisions with a single option consume no digit, so
//! scripts stay short and the enumeration covers only real branching.

/// A replayable sequence of arbitration decisions for one engine step.
///
/// The enumeration protocol: run a step with an empty script (every
/// decision defaults to digit 0), read back [`ChoiceScript::arities`] to
/// learn the shape of that execution's decision tree, and use
/// [`ChoiceScript::next_script`] to advance an odometer over it.
/// Decisions with a single option consume no digit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceScript {
    digits: Vec<u32>,
    cursor: usize,
    arities: Vec<u32>,
}

impl ChoiceScript {
    /// A script replaying `digits`; decisions past the end take digit 0.
    pub fn new(digits: Vec<u32>) -> ChoiceScript {
        ChoiceScript {
            digits,
            cursor: 0,
            arities: Vec::new(),
        }
    }

    /// Resolve one `arity`-way decision: records the arity, consumes the
    /// next digit, and returns it clamped into `0..arity`. Decisions with
    /// fewer than two options return 0 without consuming or recording
    /// anything — they are not branch points.
    pub fn decide(&mut self, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        self.arities.push(arity as u32);
        let digit = self.digits.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        (digit as usize).min(arity - 1)
    }

    /// The arity of every decision point encountered, in order. Valid
    /// after the scripted step ran.
    pub fn arities(&self) -> &[u32] {
        &self.arities
    }

    /// The digits this script replays.
    pub fn digits(&self) -> &[u32] {
        &self.digits
    }

    /// Serve the routable `heads` of one cycle router by router, in
    /// router-index order, each router's heads in a script-chosen order:
    /// `serve(engine, c, script)` arbitrates the head waiting at input
    /// channel `c`, and `router_of(engine, c)` names the router `c` feeds.
    ///
    /// Same-cycle arbitrations at *distinct* routers commute — a router
    /// only reads and grants ownership of its own output channels and only
    /// writes the bindings of its own input channels — so exploring
    /// service orders within each router while fixing the router order is
    /// a sound partial-order reduction, not a loss of coverage.
    pub fn serve_per_router<E: ?Sized>(
        &mut self,
        engine: &mut E,
        heads: &mut [u32],
        router_of: impl Fn(&E, usize) -> u32,
        mut serve: impl FnMut(&mut E, usize, &mut ChoiceScript),
    ) {
        heads.sort_unstable_by_key(|&c| (router_of(engine, c as usize), c));
        let mut i = 0;
        while i < heads.len() {
            let router = router_of(engine, heads[i] as usize);
            let mut j = i;
            while j < heads.len() && router_of(engine, heads[j] as usize) == router {
                j += 1;
            }
            // Serve the router's heads in script order. Rotating the pick
            // to the front keeps the unserved rest of `heads[i..j]` in its
            // original relative order.
            while i < j {
                let k = self.decide(j - i);
                heads[i..=i + k].rotate_right(1);
                serve(engine, heads[i] as usize, self);
                i += 1;
            }
        }
    }

    /// The next digit string in odometer order over the decision tree
    /// just observed, or `None` when this execution was the last.
    ///
    /// Digits beyond the replayed prefix are implicitly 0, so the
    /// odometer increments the last incrementable position of the
    /// *observed* arity vector and truncates everything after it (those
    /// positions may have different arities on the new path — they
    /// restart at 0).
    pub fn next_script(&self) -> Option<ChoiceScript> {
        let mut digits = self.digits.clone();
        digits.resize(self.arities.len(), 0);
        digits.truncate(self.arities.len());
        for i in (0..self.arities.len()).rev() {
            if digits[i] + 1 < self.arities[i] {
                digits[i] += 1;
                digits.truncate(i + 1);
                return Some(ChoiceScript::new(digits));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_decisions_are_free() {
        let mut s = ChoiceScript::new(vec![]);
        assert_eq!(s.decide(1), 0);
        assert_eq!(s.decide(0), 0);
        assert!(s.arities().is_empty());
        assert!(s.next_script().is_none(), "no branch points, no siblings");
    }

    #[test]
    fn digits_replay_and_clamp() {
        let mut s = ChoiceScript::new(vec![2, 9]);
        assert_eq!(s.decide(3), 2);
        assert_eq!(s.decide(2), 1, "out-of-range digits clamp");
        assert_eq!(s.decide(4), 0, "exhausted digits default to 0");
        assert_eq!(s.arities(), &[3, 2, 4]);
    }

    #[test]
    fn odometer_enumerates_a_fixed_tree_completely() {
        // A tree whose arity vector is constant [2, 3]: the odometer must
        // visit all 6 leaves exactly once.
        let mut seen = Vec::new();
        let mut script = ChoiceScript::new(vec![]);
        loop {
            let d0 = script.decide(2);
            let d1 = script.decide(3);
            seen.push((d0, d1));
            match script.next_script() {
                Some(next) => script = next,
                None => break,
            }
        }
        assert_eq!(seen.len(), 6);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6, "all leaves distinct");
    }

    #[test]
    fn odometer_handles_shape_changes() {
        // The second decision exists only when the first took branch 0 —
        // the canonical "sibling subtrees differ" case.
        let mut leaves = 0;
        let mut script = ChoiceScript::new(vec![]);
        loop {
            let d0 = script.decide(2);
            if d0 == 0 {
                script.decide(2);
            }
            leaves += 1;
            match script.next_script() {
                Some(next) => script = next,
                None => break,
            }
        }
        assert_eq!(leaves, 3, "two leaves under branch 0, one under 1");
    }
}
