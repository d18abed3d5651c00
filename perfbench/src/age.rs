//! Observation age at a query: the time from the `offer_batch` of the
//! newest observation a view includes to the return of that view.
//!
//! This is how old an observation is when a query can first see it if
//! queries ran back to back, so the query cadence drops out: what is left
//! is the time the observation waits in the ring behind the backlog plus
//! the query's own latency, both the program's.
//!
//! One shard drains its ring in FIFO order, so a view whose snapshot
//! covers `processed_at` observations includes exactly the first
//! `processed_at` offered. Each burst is remembered as the range of offer
//! sequence numbers it occupies plus its offer time; a view finds the
//! burst holding observation `processed_at - 1`.

use std::collections::VecDeque;

/// Attributes view ages from offers and views.
#[derive(Debug, Default)]
pub struct AgeTracker {
    /// Offered bursts that may still hold a view's newest observation:
    /// `[start, end)` and offer time.
    pending: VecDeque<(u64, u64, u64)>,
    /// Offered so far (the next burst's first sequence number).
    offered: u64,
    /// Offer time of the newest observation any view has included.
    newest: Option<u64>,
    /// Age in ns of the newest observation of every view.
    samples: Vec<u64>,
}

impl AgeTracker {
    /// A tracker with room for `capacity` views, touched now so that
    /// recording never allocates (or grows the resident set) mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut samples = Vec::with_capacity(capacity);
        samples.resize(capacity, 0);
        samples.clear();
        Self {
            pending: VecDeque::with_capacity(1 << 12),
            samples,
            ..Self::default()
        }
    }

    /// `n` observations were offered at `t_ns`.
    pub fn offered(&mut self, n: u64, t_ns: u64) {
        if n == 0 {
            return;
        }
        self.pending
            .push_back((self.offered, self.offered + n, t_ns));
        self.offered += n;
    }

    /// A view covering the first `processed_at` observations returned at
    /// `t_ns`: its age is `t_ns` minus the offer time of observation
    /// `processed_at - 1`. A view that moved nothing forward is as old as
    /// the newest observation an earlier view included; a view that
    /// includes nothing has no age.
    pub fn view(&mut self, processed_at: u64, t_ns: u64) {
        while let Some(&(start, end, offered_at)) = self.pending.front() {
            if start >= processed_at {
                break;
            }
            self.newest = Some(offered_at);
            if end > processed_at {
                break;
            }
            self.pending.pop_front();
        }
        if let Some(offered_at) = self.newest {
            self.samples.push(t_ns.saturating_sub(offered_at));
        }
    }

    /// Views with an age.
    pub fn views(&self) -> usize {
        self.samples.len()
    }

    /// The view ages in ms, in view order.
    pub fn samples_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_view_is_as_old_as_the_last_burst() {
        let mut a = AgeTracker::with_capacity(8);
        a.offered(100, 0);
        a.offered(100, 1_000);
        a.view(200, 5_000);
        assert_eq!(a.samples, vec![4_000]);
        assert!(a.pending.is_empty());
    }

    #[test]
    fn view_with_ring_backlog_is_as_old_as_its_newest_processed_burst() {
        let mut a = AgeTracker::with_capacity(8);
        a.offered(100, 0);
        a.offered(100, 1_000);
        a.offered(100, 2_000);
        // 150 processed, 150 still queued in the ring: the newest
        // observation in the view (number 149) came with the second burst.
        a.view(150, 3_000);
        assert_eq!(a.samples, vec![2_000]);
        // A view that moved nothing forward has aged with the clock.
        a.view(150, 3_500);
        assert_eq!(a.samples, vec![2_000, 2_500]);
        // The next view sees the rest.
        a.view(300, 10_000);
        assert_eq!(a.samples, vec![2_000, 2_500, 8_000]);
        assert!(a.pending.is_empty());
        assert_eq!(a.views(), 3);
        assert_eq!(a.samples_ms(), vec![0.002, 0.0025, 0.008]);
    }

    #[test]
    fn view_ending_on_a_burst_boundary_dates_from_that_burst() {
        let mut a = AgeTracker::with_capacity(8);
        a.offered(10, 0);
        a.offered(10, 200);
        a.view(10, 300);
        assert_eq!(a.samples, vec![300]);
        assert_eq!(a.pending.len(), 1);
        a.view(11, 400);
        assert_eq!(a.samples, vec![300, 200]);
    }

    #[test]
    fn view_before_any_processing_has_no_age() {
        let mut a = AgeTracker::with_capacity(8);
        a.offered(10, 0);
        a.view(0, 100);
        assert_eq!(a.views(), 0);
        a.view(5, 300);
        assert_eq!(a.samples, vec![300]);
    }
}
