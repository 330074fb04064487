//! Per-input-channel memo of a waiting header's routing result.
//!
//! In the turn model a header's legal outputs depend only on its current
//! router, its destination and the direction it arrived from, so a header
//! blocked at one input channel is offered the same outputs on every
//! cycle it waits. Both wormhole engines ([`Sim`](crate::Sim) and the
//! virtual-channel engine) therefore route a header once, when arbitration
//! first sees it at a channel, and on later cycles only test whether the
//! memoized outputs are free.
//!
//! An entry is keyed on `(packet, arrival cycle, epoch)`. The packet and
//! the cycle its header arrived identify one header visit to the channel;
//! the engine-wide epoch is bumped whenever anything else the routing
//! result depends on may have changed (fault transitions, quarantines,
//! restoring a snapshot), which invalidates every entry in O(1).

/// Marks the end of a row shorter than the stride.
const END: u32 = u32::MAX;

/// Which header visit an entry was computed for. Epoch 0 is never
/// current, so a zeroed key is an empty entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Key {
    since: u64,
    packet: u32,
    epoch: u32,
}

/// Fixed-stride rows of opaque `u32` routing entries, one row per input
/// channel, each tagged with the header visit it belongs to.
///
/// The entry encoding is the engine's: the wormhole engine stores output
/// slots with a productive bit folded in, the virtual-channel engine the
/// offered slots in routing order. `u32::MAX` is reserved.
///
/// The tables are allocated by the first insert, so an engine that is
/// constructed but never arbitrates pays nothing for them.
#[derive(Debug, Clone)]
pub struct RouteMemo {
    /// Current epoch; never 0.
    epoch: u32,
    channels: usize,
    stride: usize,
    /// Empty until the first insert, then one key per channel.
    keys: Vec<Key>,
    /// `channels * stride` entries once allocated; a row shorter than the
    /// stride is terminated by `END`.
    entries: Vec<u32>,
}

impl RouteMemo {
    /// An empty memo for `channels` input channels of at most `stride`
    /// entries each.
    pub fn new(channels: usize, stride: usize) -> RouteMemo {
        RouteMemo {
            epoch: 1,
            channels,
            stride,
            keys: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Invalidate every entry. Call whenever an input of the memoized
    /// routing result other than the header visit itself may have
    /// changed.
    pub fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: old keys could alias the new epochs.
            self.keys.fill(Key::default());
            self.epoch = 1;
        }
    }

    /// The entries memoized at `channel` for the header of `packet` that
    /// arrived at cycle `since`, if they are current.
    #[inline]
    pub fn get(&self, channel: usize, packet: u32, since: u64) -> Option<&[u32]> {
        let key = Key {
            since,
            packet,
            epoch: self.epoch,
        };
        (self.keys.get(channel) == Some(&key)).then(|| self.row(channel))
    }

    /// Memoize `items` at `channel` for the header of `packet` that
    /// arrived at cycle `since`, replacing whatever the row held.
    ///
    /// # Panics
    ///
    /// Panics if `items` yields more than `stride` entries or the
    /// reserved value `u32::MAX`.
    pub fn insert(
        &mut self,
        channel: usize,
        packet: u32,
        since: u64,
        items: impl IntoIterator<Item = u32>,
    ) {
        if self.keys.is_empty() {
            self.keys = vec![Key::default(); self.channels];
            self.entries = vec![0; self.channels * self.stride];
        }
        let row = &mut self.entries[channel * self.stride..(channel + 1) * self.stride];
        let mut len = 0;
        for item in items {
            assert!(len < row.len(), "more routing entries than the memo stride");
            assert_ne!(item, END, "reserved memo entry");
            row[len] = item;
            len += 1;
        }
        if len < row.len() {
            row[len] = END;
        }
        self.keys[channel] = Key {
            since,
            packet,
            epoch: self.epoch,
        };
    }

    fn row(&self, channel: usize) -> &[u32] {
        let row = &self.entries[channel * self.stride..(channel + 1) * self.stride];
        let len = row.iter().position(|&e| e == END).unwrap_or(row.len());
        &row[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_needs_the_same_header_visit_and_epoch() {
        let mut memo = RouteMemo::new(3, 4);
        assert_eq!(memo.get(1, 7, 10), None, "fresh memo is empty");
        memo.insert(1, 7, 10, [5, 6]);
        assert_eq!(memo.get(1, 7, 10), Some(&[5, 6][..]));
        assert_eq!(memo.get(1, 8, 10), None, "other packet");
        assert_eq!(memo.get(1, 7, 11), None, "later visit");
        assert_eq!(memo.get(0, 7, 10), None, "other channel");
        memo.invalidate();
        assert_eq!(memo.get(1, 7, 10), None, "epoch bump invalidates");
    }

    #[test]
    fn rows_may_be_empty_or_full() {
        let mut memo = RouteMemo::new(2, 2);
        memo.insert(0, 1, 0, []);
        assert_eq!(memo.get(0, 1, 0), Some(&[][..]), "an empty row is a hit");
        memo.insert(1, 1, 0, [3, 4]);
        assert_eq!(memo.get(1, 1, 0), Some(&[3, 4][..]), "a full row");
        memo.insert(1, 2, 0, [9]);
        assert_eq!(
            memo.get(1, 2, 0),
            Some(&[9][..]),
            "a shorter row replaces it"
        );
    }

    #[test]
    fn epoch_wraparound_clears_old_entries() {
        let mut memo = RouteMemo::new(1, 1);
        memo.insert(0, 0, 0, [1]);
        memo.epoch = u32::MAX;
        memo.keys[0].epoch = 1;
        memo.invalidate();
        assert_eq!(memo.epoch, 1);
        assert_eq!(memo.get(0, 0, 0), None, "stale epoch-1 key survived a wrap");
    }

    #[test]
    #[should_panic(expected = "memo stride")]
    fn overlong_rows_are_rejected() {
        RouteMemo::new(1, 2).insert(0, 0, 0, [1, 2, 3]);
    }
}
