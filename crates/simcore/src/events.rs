//! Deterministic future-event queue.
//!
//! [`EventQueue`] is a calendar queue (Brown, CACM 1988): a power-of-two
//! ring of time buckets, each `width` microseconds wide, with a cursor that
//! sweeps the ring one bucket per "day" and wraps once per "year"
//! (`nbuckets × width`). An event at time `t` lives in bucket
//! `(t / width) mod nbuckets`; buckets keep their entries sorted by
//! `(time, seq)`, so the front of the cursor's bucket is the global minimum
//! whenever it falls inside the cursor's current year-slice. Push and pop
//! are O(1) amortized at steady occupancy — the queue resizes itself to
//! keep roughly one pending event per bucket — versus O(log n) for a
//! binary heap, and the sweep touches memory in time order, which is what
//! the fleet-scale traces (millions of pending arrivals) care about.
//!
//! Ordering is identical to a heap keyed by `(time, seq)`: events pop by
//! timestamp, ties broken by insertion sequence number. The tie-break
//! matters: two events scheduled for the same microsecond must always pop
//! in the same order, or otherwise-identical runs with the same seed could
//! diverge. The property suite checks this against a `BinaryHeap`
//! reference, driving both with the same push/pop stream and asserting
//! bit-equal output.

use std::collections::VecDeque;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// Smallest ring size; also the initial size of an empty queue.
const MIN_BUCKETS: usize = 4;
/// Largest ring size: bounds the ring's own memory at fleet scale.
const MAX_BUCKETS: usize = 1 << 21;
/// Bucket width before the first resize calibrates it (1 ms).
const INITIAL_WIDTH: u64 = 1_000;

/// A future-event list keyed by [`SimTime`] with FIFO tie-breaking.
///
/// ```
/// use simcore::events::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Ring of buckets, each sorted ascending by `(at, seq)`. Ascending
    /// order makes the two hot patterns O(1): popping the bucket minimum
    /// (`pop_front`) and appending an event later than everything already
    /// in its bucket (`push_back`), which is how monotone schedules land.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// `buckets.len() - 1`; the ring size is always a power of two.
    mask: u64,
    /// Bucket width in microseconds (≥ 1).
    width: u64,
    /// The cursor: index of the bucket owning the current year-slice.
    cur: usize,
    /// Exclusive upper time edge of the cursor's current year-slice.
    bucket_top: u64,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            width: INITIAL_WIDTH,
            cur: 0,
            bucket_top: INITIAL_WIDTH,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { at, seq, event });
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.rebuild();
        }
        let nbuckets = self.buckets.len();
        let mut scanned = 0;
        loop {
            if let Some(front) = self.buckets[self.cur].front() {
                if front.at.as_micros() < self.bucket_top {
                    let e = self.buckets[self.cur].pop_front().expect("front exists");
                    self.len -= 1;
                    return Some((e.at, e.event));
                }
            }
            scanned += 1;
            if scanned >= nbuckets {
                // A full year of empty slices: the minimum is more than a
                // year ahead (or pinned at the saturated far-future edge).
                // Jump the cursor straight to it instead of sweeping.
                return Some(self.direct_pop());
            }
            self.cur = (self.cur + 1) & self.mask as usize;
            self.bucket_top = self.bucket_top.saturating_add(self.width);
        }
    }

    /// Timestamp of the earliest pending event, if any.
    ///
    /// O(nbuckets): scans every bucket front. Fine for diagnostics; the
    /// simulation loop itself only pushes and pops.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<(SimTime, u64)> = None;
        for b in &self.buckets {
            if let Some(front) = b.front() {
                if best.is_none_or(|(at, seq)| (front.at, front.seq) < (at, seq)) {
                    best = Some((front.at, front.seq));
                }
            }
        }
        best.map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event (sequence numbering continues).
    pub fn clear(&mut self) {
        self.buckets = (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect();
        self.mask = MIN_BUCKETS as u64 - 1;
        self.width = INITIAL_WIDTH;
        self.cur = 0;
        self.bucket_top = INITIAL_WIDTH;
        self.len = 0;
    }

    /// Files an entry in its bucket, keeping the bucket sorted.
    ///
    /// Invariant on entry and exit: no pending event is earlier than the
    /// start of the cursor's year-slice (`bucket_top - width`), so the
    /// cursor never has to look behind itself.
    fn insert(&mut self, e: Entry<E>) {
        let at_us = e.at.as_micros();
        let window_start = self.bucket_top.saturating_sub(self.width);
        if at_us < window_start {
            // A push behind the cursor would otherwise hide until the next
            // full wrap; rewind the window to cover it.
            self.anchor(at_us);
        }
        let idx = ((at_us / self.width) & self.mask) as usize;
        let bucket = &mut self.buckets[idx];
        let key = (e.at, e.seq);
        let pos = bucket.partition_point(|x| (x.at, x.seq) < key);
        if pos == bucket.len() {
            bucket.push_back(e);
        } else {
            bucket.insert(pos, e);
        }
    }

    /// Points the cursor at the year-slice containing `at_us`.
    fn anchor(&mut self, at_us: u64) {
        let slot = at_us / self.width;
        self.cur = (slot & self.mask) as usize;
        self.bucket_top = (slot * self.width).saturating_add(self.width);
    }

    /// Pops the global minimum by scanning all bucket fronts, re-anchoring
    /// the cursor at its time. Only reached after a full empty year.
    fn direct_pop(&mut self) -> (SimTime, E) {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(front) = b.front() {
                if best.is_none_or(|(_, at, seq)| (front.at, front.seq) < (at, seq)) {
                    best = Some((i, front.at, front.seq));
                }
            }
        }
        let (idx, at, _) = best.expect("direct_pop called with len > 0");
        self.anchor(at.as_micros());
        let e = self.buckets[idx].pop_front().expect("front exists");
        self.len -= 1;
        (e.at, e.event)
    }

    /// Resizes the ring to ~one pending event per bucket and recalibrates
    /// the bucket width to the typical gap between pending events.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.extend(b.drain(..));
        }
        entries.sort_unstable_by_key(|e| (e.at, e.seq));
        let n = entries.len();
        let nbuckets = n.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let width = if n >= 2 {
            // Calibrate on the span of the earliest three quarters of the
            // pending events: a handful of far-future outliers (keep-alive
            // horizons, saturated sentinels) would otherwise stretch the
            // year so far that every near-term event lands in one bucket.
            let bulk = 3 * (n - 1) / 4;
            let lo = entries[0].at.as_micros();
            let hi = entries[bulk].at.as_micros();
            ((hi - lo) / (bulk as u64).max(1)).max(1)
        } else {
            INITIAL_WIDTH
        };
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = nbuckets as u64 - 1;
        self.width = width;
        match entries.first() {
            Some(first) => self.anchor(first.at.as_micros()),
            None => {
                self.cur = 0;
                self.bucket_top = width;
            }
        }
        // Entries arrive in ascending (at, seq) order, so plain appends
        // leave every bucket sorted.
        for e in entries {
            let idx = ((e.at.as_micros() / self.width) & self.mask) as usize;
            self.buckets[idx].push_back(e);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next", &self.peek_time())
            .field("buckets", &self.buckets.len())
            .field("width_us", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let base = SimTime::ZERO;
        q.push(base + SimDuration::from_secs(5), "late");
        q.push(base + SimDuration::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(base + SimDuration::from_secs(2), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        q.clear();
        assert!(q.is_empty());
    }

    /// Enough pushes to force several ring growths, then a full drain that
    /// forces shrinks: order must survive every rebuild.
    #[test]
    fn resize_preserves_order() {
        let mut q = EventQueue::new();
        // A deterministic scatter of times with duplicates.
        let times: Vec<u64> = (0u64..5_000)
            .map(|i| (i * 2_654_435_761) % 100_000)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // (time, insertion index) — the FIFO tie-break
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(popped, expected);
    }

    /// Pushing behind the cursor (after it advanced past that slice) must
    /// rewind the window, not hide the event until the ring wraps.
    #[test]
    fn push_behind_cursor_is_found() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), "far");
        q.push(SimTime::from_secs(200), "farther");
        assert_eq!(q.pop().unwrap().1, "far"); // cursor now at t=100s
        q.push(SimTime::from_secs(1), "behind");
        assert_eq!(q.pop().unwrap().1, "behind");
        assert_eq!(q.pop().unwrap().1, "farther");
    }

    /// Saturated far-future sentinels must coexist with near-term events
    /// without degrading ordering (they exercise the direct-search jump).
    #[test]
    fn far_future_sentinels_pop_last() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, u64::MAX - 1);
        for i in 0..50u64 {
            q.push(SimTime::from_secs(i), i);
        }
        q.push(SimTime::MAX, u64::MAX);
        for i in 0..50u64 {
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(i));
        }
        assert_eq!(q.pop().unwrap(), (SimTime::MAX, u64::MAX - 1));
        assert_eq!(q.pop().unwrap(), (SimTime::MAX, u64::MAX));
        assert!(q.pop().is_none());
    }

    /// The gap to a lone far-future event is crossed by the direct-search
    /// jump, not a bucket-by-bucket sweep.
    #[test]
    fn sparse_far_jump() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime::from_micros(i), i);
        }
        q.push(SimTime::from_secs(86_400 * 365), u64::MAX); // a year out
        for i in 0..64u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap().1, u64::MAX);
    }
}
