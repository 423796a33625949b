//! Discrete-event machinery.
//!
//! A minimal but real event queue: events carry a timestamp in
//! picoseconds and a payload; ties break by insertion sequence so
//! simulation is fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from seconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "bad time");
        SimTime((s * 1e12).round() as u64)
    }

    /// Converts to seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Saturating addition of a duration in seconds.
    pub fn advance(self, s: f64) -> Self {
        SimTime(self.0.saturating_add((s * 1e12).round() as u64))
    }
}

/// An event scheduled at a time, carrying payload `T`.
#[derive(Debug, Clone)]
struct Event<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; ties broken by insertion order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    seq: u64,
    now: SimTime,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enqueues `payload` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics when scheduling in the past.
    pub fn schedule_at(&mut self, t: SimTime, payload: T) {
        assert!(t >= self.now, "cannot schedule in the past");
        self.heap.push(Event {
            time: t,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Enqueues `payload` after `delay_s` seconds of simulated time.
    pub fn schedule_in(&mut self, delay_s: f64, payload: T) {
        self.schedule_at(self.now.advance(delay_s), payload);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// Whether any events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 1);
        q.schedule_at(SimTime(5), 2);
        q.schedule_at(SimTime(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(1e-9, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(1000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), ());
        q.pop();
        q.schedule_at(SimTime(50), ());
    }

    #[test]
    fn simtime_conversions() {
        let t = SimTime::from_secs(2.5e-9);
        assert_eq!(t, SimTime(2500));
        assert!((t.as_secs() - 2.5e-9).abs() < 1e-15);
    }
}
