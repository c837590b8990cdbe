//! Incremental feature refinement (paper §3.3).
//!
//! With the α-sampling optimization, the offline phase computes only "rough"
//! utility features from an α% sample. "During the second phase, ViewSeeker
//! will incrementally refine the utility score of each view with the entire
//! set of data whenever there is spare computing power available between
//! user labeling prompts ... ViewSeeker uses the current view utility
//! estimator to rank the views, and the views ranked highly would have
//! higher priority in computing the accurate utility features. Effectively,
//! these optimizations allow ViewSeeker to reduce the unnecessary
//! computation by pruning out the calculations for views that are less
//! promising."
//!
//! [`IncrementalRefiner`] tracks which views still hold rough features and
//! hands the caller *batches* of them, each to be recomputed in one fused
//! pass. The batch unit is the fused executor's bucket, a `(dimension, bins)`
//! pair: the views of one bucket share a bin assignment and a row stream
//! across all their measures and aggregates, so refining a whole bucket costs
//! about as much as refining one of its views. Within one interactive turn
//! the batches follow the per-iteration budget:
//!
//! * [`RefineBudget::Views`]`(n)` — one batch: the first `n` pending views in
//!   priority order (deterministic; tests and reproducible experiments).
//! * [`RefineBudget::Time`]`(tl)` — the paper's wall-clock allowance. The
//!   first batch is the bucket of the highest-priority pending view. Each
//!   later batch takes as many further buckets, in the order of their
//!   best-ranked pending view, as the budget left covers at the per-bucket
//!   wall time the previous batch measured; the turn ends when that number
//!   is zero. So every turn refines at least one bucket, and `tl` is
//!   overshot by at most one batch that was predicted to fit. Nothing
//!   carries over between turns.

use crate::trace::Stopwatch;

use crate::config::RefineBudget;
use crate::CoreError;

/// Tracks refinement progress across the view space.
#[derive(Debug, Clone)]
pub struct IncrementalRefiner {
    /// Fused-scan bucket of every view.
    buckets: Vec<usize>,
    refined: Vec<bool>,
    remaining: usize,
}

impl IncrementalRefiner {
    /// A refiner over the views whose buckets are `view_buckets` (in view
    /// order), all initially holding rough features.
    #[must_use]
    pub fn new(view_buckets: Vec<usize>) -> Self {
        let n = view_buckets.len();
        Self {
            buckets: view_buckets,
            refined: vec![false; n],
            remaining: n,
        }
    }

    /// Number of views still holding rough (α-sampled) features.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.remaining
    }

    /// Whether every view has been refined with full data.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// Whether view `i` has been refined (`false` for an out-of-range `i`).
    #[must_use]
    pub fn is_refined(&self, i: usize) -> bool {
        self.refined.get(i).copied().unwrap_or(false)
    }

    fn is_pending(&self, i: usize) -> bool {
        self.refined.get(i) == Some(&false)
    }

    /// Runs one turn of refinement: plans batches of still-rough views from
    /// `priority` under `budget` (see the module docs) and calls
    /// `pass(batch)` once per batch, which must recompute every view of the
    /// batch or none of them. Returns how many views were refined this turn.
    ///
    /// Views early in `priority` are the ones the current utility estimator
    /// ranks highest; low-priority views may never be reached — that is the
    /// pruning. Out-of-range and already-refined ids in `priority` are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Propagates the first `pass` error; every view of the failed batch is
    /// still pending, and earlier batches of the turn stay refined.
    pub fn refine<F>(
        &mut self,
        priority: &[usize],
        budget: RefineBudget,
        mut pass: F,
    ) -> Result<usize, CoreError>
    where
        F: FnMut(&[usize]) -> Result<(), CoreError>,
    {
        let started = Stopwatch::start();
        let mut done = 0usize;
        // Buckets wanted in the next batch of a `Time` budget.
        let mut wanted = 1usize;
        while self.remaining > 0 {
            let (batch, buckets) = match budget {
                RefineBudget::Views(n) => (self.leading_views(priority, n), 0),
                RefineBudget::Time(_) => self.leading_buckets(priority, wanted),
            };
            if batch.is_empty() {
                break;
            }
            let batch_started = Stopwatch::start();
            pass(&batch)?;
            let batch_ns = batch_started.elapsed().as_nanos();
            for &i in &batch {
                if let Some(slot) = self.refined.get_mut(i) {
                    *slot = true;
                }
            }
            self.remaining -= batch.len();
            done += batch.len();
            let RefineBudget::Time(limit) = budget else {
                break;
            };
            let per_bucket_ns = (batch_ns / buckets.max(1) as u128).max(1);
            let left_ns = limit.saturating_sub(started.elapsed()).as_nanos();
            wanted = usize::try_from(left_ns / per_bucket_ns).unwrap_or(usize::MAX);
            if wanted == 0 {
                break;
            }
        }
        Ok(done)
    }

    /// The first `n` pending views in `priority` order.
    fn leading_views(&self, priority: &[usize], n: usize) -> Vec<usize> {
        let mut taken = vec![false; self.refined.len()];
        let mut batch = Vec::new();
        for &i in priority {
            if batch.len() >= n {
                break;
            }
            if self.is_pending(i) {
                if let Some(t) = taken.get_mut(i) {
                    if !*t {
                        *t = true;
                        batch.push(i);
                    }
                }
            }
        }
        batch
    }

    /// Every pending view of the first `k` buckets, buckets ordered by their
    /// best-ranked pending view in `priority`; views in ascending id order.
    /// Also returns how many buckets that is (fewer than `k` when fewer
    /// remain).
    fn leading_buckets(&self, priority: &[usize], k: usize) -> (Vec<usize>, usize) {
        let mut chosen: Vec<usize> = Vec::new();
        for &i in priority {
            if chosen.len() >= k {
                break;
            }
            if !self.is_pending(i) {
                continue;
            }
            if let Some(&b) = self.buckets.get(i) {
                if !chosen.contains(&b) {
                    chosen.push(b);
                }
            }
        }
        let batch = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(i, b)| self.is_pending(i) && chosen.contains(b))
            .map(|(i, _)| i)
            .collect();
        (batch, chosen.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Six views in three buckets of two: views `2b` and `2b + 1` share
    /// bucket `b`.
    fn paired() -> IncrementalRefiner {
        IncrementalRefiner::new(vec![0, 0, 1, 1, 2, 2])
    }

    /// Runs one turn, recording every batch the refiner hands out.
    fn turn(
        r: &mut IncrementalRefiner,
        priority: &[usize],
        budget: RefineBudget,
    ) -> (usize, Vec<Vec<usize>>) {
        let mut batches = Vec::new();
        let done = r
            .refine(priority, budget, |batch| {
                batches.push(batch.to_vec());
                Ok(())
            })
            .unwrap();
        (done, batches)
    }

    #[test]
    fn refines_in_priority_order_within_view_budget() {
        let mut r = IncrementalRefiner::new(vec![0, 1, 2, 3, 4]);
        let (done, batches) = turn(&mut r, &[3, 1, 4, 0, 2], RefineBudget::Views(2));
        assert_eq!(done, 2);
        assert_eq!(batches, vec![vec![3, 1]], "one pass over the first two");
        assert_eq!(r.pending(), 3);
        assert!(r.is_refined(3) && r.is_refined(1));
        assert!(!r.is_refined(0));
    }

    #[test]
    fn view_budget_takes_exactly_the_first_pending_views() {
        // `Views(n)` ignores buckets: exactly `priority.filter(pending)
        // .take(n)`, whatever buckets those views fall in.
        let mut r = paired();
        turn(&mut r, &[4], RefineBudget::Views(1));
        let (done, batches) = turn(&mut r, &[5, 4, 0, 3, 1], RefineBudget::Views(3));
        assert_eq!(done, 3);
        assert_eq!(batches, vec![vec![5, 0, 3]]);
        assert_eq!(r.pending(), 2);
    }

    #[test]
    fn zero_view_budget_refines_nothing() {
        // The no-refinement ablation arm.
        let mut r = paired();
        let (done, batches) = turn(&mut r, &[0, 1, 2, 3, 4, 5], RefineBudget::Views(0));
        assert_eq!(done, 0);
        assert!(batches.is_empty(), "no pass at all");
        assert_eq!(r.pending(), 6);
    }

    #[test]
    fn skips_already_refined_views() {
        let mut r = IncrementalRefiner::new(vec![0, 1, 2]);
        turn(&mut r, &[0], RefineBudget::Views(1));
        let (_, batches) = turn(&mut r, &[0, 1, 2], RefineBudget::Views(10));
        assert_eq!(batches, vec![vec![1, 2]]);
        assert!(r.is_complete());
    }

    #[test]
    fn complete_refiner_is_a_noop() {
        let mut r = IncrementalRefiner::new(vec![0]);
        turn(&mut r, &[0], RefineBudget::Views(5));
        let done = r
            .refine(&[0], RefineBudget::Views(5), |_| {
                panic!("should not recompute")
            })
            .unwrap();
        assert_eq!(done, 0);
    }

    #[test]
    fn time_budget_always_refines_at_least_one() {
        // A zero time budget must still make progress — otherwise refinement
        // could starve forever on a slow machine.
        let mut r = IncrementalRefiner::new(vec![0, 1, 2, 3]);
        let (done, batches) = turn(&mut r, &[0, 1, 2, 3], RefineBudget::Time(Duration::ZERO));
        assert_eq!(done, 1);
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn zero_time_budget_refines_exactly_one_bucket() {
        // The bucket of the highest-priority pending view, whole.
        let mut r = paired();
        let (done, batches) = turn(&mut r, &[3, 0, 5], RefineBudget::Time(Duration::ZERO));
        assert_eq!(done, 2);
        assert_eq!(batches, vec![vec![2, 3]]);
        // Only the bucket's pending views: view 0 is refined already next turn.
        turn(&mut r, &[0], RefineBudget::Views(1));
        let (_, batches) = turn(&mut r, &[1, 5], RefineBudget::Time(Duration::ZERO));
        assert_eq!(batches, vec![vec![1]]);
    }

    #[test]
    fn time_budget_sizes_later_batches_from_the_measured_bucket_time() {
        // Passes that take no measurable time leave the whole budget: the
        // second batch takes every remaining bucket, ordered by their
        // best-ranked pending view (ascending view ids within the batch).
        let mut r = paired();
        let (done, batches) = turn(
            &mut r,
            &[4, 1, 2, 0, 3, 5],
            RefineBudget::Time(Duration::from_secs(3_600)),
        );
        assert_eq!(done, 6);
        assert_eq!(batches, vec![vec![4, 5], vec![0, 1, 2, 3]]);
        assert!(r.is_complete());
    }

    #[test]
    fn error_keeps_view_pending() {
        // A failed pass leaves every view of its batch pending; the turn's
        // earlier batches stay refined, and a later turn retries.
        let mut r = paired();
        let mut calls = 0;
        let result = r.refine(
            &[0, 2, 4],
            RefineBudget::Time(Duration::from_secs(3_600)),
            |_| {
                calls += 1;
                if calls == 2 {
                    Err(CoreError::Invalid("boom".into()))
                } else {
                    Ok(())
                }
            },
        );
        assert!(result.is_err());
        assert!(r.is_refined(0) && r.is_refined(1));
        assert!((2..6).all(|i| !r.is_refined(i)));
        assert_eq!(r.pending(), 4);

        let result = r.refine(&[2, 3], RefineBudget::Views(2), |_| {
            Err(CoreError::Invalid("boom".into()))
        });
        assert!(result.is_err());
        assert_eq!(r.pending(), 4);
        let (done, _) = turn(&mut r, &[2, 3, 4, 5], RefineBudget::Views(4));
        assert_eq!(done, 4);
        assert!(r.is_complete());
    }

    #[test]
    fn out_of_range_priorities_are_ignored() {
        let mut r = IncrementalRefiner::new(vec![0, 1]);
        let (done, batches) = turn(&mut r, &[99, 1], RefineBudget::Views(5));
        assert_eq!(done, 1);
        assert_eq!(batches, vec![vec![1]]);
        assert!(r.is_refined(1));
        let (done, batches) = turn(&mut r, &[99, 0], RefineBudget::Time(Duration::ZERO));
        assert_eq!(done, 1);
        assert_eq!(batches, vec![vec![0]]);
        assert!(!r.is_refined(99));
    }
}
