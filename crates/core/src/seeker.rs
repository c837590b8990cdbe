//! The ViewSeeker session (Algorithm 1).
//!
//! ```text
//! Require: the raw data set DR and a subset DQ specified by a query
//! Ensure:  the view utility estimator VE
//!  1: U  ← generateViews(DQ, DR)
//!  2: L  ← obtain initial set of view labels          (cold start)
//!  3: VE ← initialize view utility estimator using L
//!  4: UE ← initialize uncertainty estimator using L
//!  5: loop
//!  6:   choose one x from U using UE                  (uncertainty sampling)
//!  7:   solicit user's label on x
//!  8:   L ← L ∪ {x};  U ← U − {x}
//!  9:   VE ← refine VE using L;  UE ← refine UE using L
//! 10:   T ← recommend top views using VE
//! 11:   if the user is satisfied with T then break
//! 12: end loop
//! 13: return the most recent VE
//! ```
//!
//! [`ViewSeeker`] binds the loop to bar-chart views over a table: it runs
//! the offline initialization (view materialization + feature computation,
//! on an α-sample when the §3.3 optimization is enabled), then delegates the
//! interactive loop to a [`FeedbackSession`] while interleaving incremental
//! feature refinement between labeling prompts. The caller (a UI or the
//! simulated-user harness) alternates [`ViewSeeker::next_views`] and
//! [`ViewSeeker::submit_feedback`], reading [`ViewSeeker::recommend`]
//! whenever it wants the current top-k; the session never terminates itself
//! (stopping is the user's decision, line 11).

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;

use viewseeker_dataset::executor::FusedScanStats;
use viewseeker_dataset::sample::bernoulli_sample;
use viewseeker_dataset::{RowSet, SelectQuery, Table, ZoneMaps};

use crate::config::{RefineBudget, ViewSeekerConfig};
use crate::estimator::Label;
use crate::features::{compute_features, FeatureMatrix};
use crate::optimize::IncrementalRefiner;
use crate::session::FeedbackSession;
use crate::trace::{
    duration_us, noop_tracer, IterationTrace, RefinementBudgetReport, Stopwatch, TracePhase, Tracer,
};
use crate::view::{ViewId, ViewSpace};
use crate::viewgen::{materialize_all_fused_pruned, FusedRetained, GroupPlan, ViewData};
use crate::CoreError;

/// Which stage of the interactive phase the session is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekerPhase {
    /// Collecting the first positive and negative labels by probing each
    /// utility feature's top view (then random fallback).
    ColdStart,
    /// Uncertainty-sampling-driven refinement of both estimators.
    Active,
}

/// An interactive view-recommendation session over one table and query.
///
/// Generic over *how* the table is held: `H` is anything that borrows a
/// [`Table`]. Library and test code typically borrows
/// ([`ViewSeeker`], i.e. `Seeker<&Table>`); long-lived services that must own
/// their sessions use [`OwnedSeeker`] (`Seeker<Arc<Table>>`), which has no
/// borrow lifetime and can live in a registry across requests.
#[derive(Debug)]
pub struct Seeker<H: Borrow<Table>> {
    table: H,
    query: SelectQuery,
    dq: RowSet,
    dr: RowSet,
    config: ViewSeekerConfig,
    space: ViewSpace,
    /// Zone maps of the current table, when the caller supplied them (or
    /// the exact pass built them); `None` for sessions that never needed
    /// pruning.
    zones: Option<Arc<ZoneMaps>>,
    /// The fused scan's mergeable raw aggregates, retained when the session
    /// was materialized exactly (no α-sampling) so dataset appends fold in
    /// with a tail-only scan.
    retained: Option<FusedRetained>,
    /// Working copy of the matrix that refinement mutates; the session holds
    /// its own copy and is refreshed through `update_matrix`.
    matrix: FeatureMatrix,
    session: FeedbackSession,
    /// α-refinement state; `None` when the features were computed exactly
    /// (α = 1, or the exact rebuild after an append).
    refinement: Option<Refinement>,
    refinement_time: Duration,
    tracer: Arc<dyn Tracer>,
    iterations: u64,
    materialization: MaterializationReport,
}

/// What the offline materialization scan cost, for observability: how many
/// scans and rows it spent, and how long it took. Read it back with
/// [`Seeker::materialization`]; services feed it into their metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaterializationReport {
    /// Worker threads the scan was allowed to use.
    pub threads: usize,
    /// Sequential row-range passes over the whole view space: 1, plus 1
    /// when an α-sampled `DQ` is not a subset of the sampled `DR`.
    pub scans: u64,
    /// Total rows visited across those passes.
    pub rows_scanned: u64,
    /// Row groups visited while evaluating the DQ predicate (exact pass
    /// only; 0 when no zone maps were consulted).
    pub rowgroups_scanned: u64,
    /// Row groups the zone maps excluded from the DQ evaluation without
    /// reading a value.
    pub rowgroups_pruned: u64,
    /// Wall-clock of the materialization call, microseconds.
    pub duration_us: u64,
}

/// What one [`Seeker::absorb_append`] call did: whether the appended tail
/// was folded into the retained fused aggregates (a tail-only scan) or the
/// whole view space was re-materialized, and what the scan cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// `true` when only the appended rows were scanned and merged into the
    /// retained aggregates; `false` when the session fell back to a full
    /// rebuild (α-sampled session, or a categorical dimension grew a new
    /// distinct value).
    pub merged: bool,
    /// Rows the table grew by.
    pub appended_rows: u64,
    /// Rows visited by this absorption's scan.
    pub rows_scanned: u64,
    /// Row groups visited while re-evaluating the DQ predicate (full
    /// zone-pruned rebuilds only; 0 on the merged tail path).
    pub rowgroups_scanned: u64,
    /// Row groups the zone maps excluded during that re-evaluation.
    pub rowgroups_pruned: u64,
}

/// The per-phase timing of one [`Seeker::run_refinement`] pass, fed into the
/// iteration trace by [`Seeker::next_views`].
#[derive(Debug, Default)]
struct RefinementReport {
    pruning_us: u64,
    refinement_us: u64,
    fit_us: u64,
    refined: usize,
    pending_after: usize,
    budget: Option<RefinementBudgetReport>,
}

/// An α-sampled session's refinement state: which views still hold rough
/// features, and the plan of the sampled pass, whose bin specs every
/// refinement pass reuses.
#[derive(Debug)]
struct Refinement {
    refiner: IncrementalRefiner,
    plan: GroupPlan,
}

/// What the offline phase produced.
struct Materialized {
    views: Vec<ViewData>,
    /// The full `DQ`, also when the views were computed from a sample of it.
    dq: RowSet,
    stats: FusedScanStats,
    /// The zone maps the caller supplied or the exact pass built.
    zones: Option<Arc<ZoneMaps>>,
    /// Mergeable aggregates; the exact pass only.
    retained: Option<FusedRetained>,
    /// The sampled pass's plan, kept for refinement; the sampled pass only.
    plan: Option<GroupPlan>,
}

/// The offline materialization behind both session construction and the
/// rebuild after an append. Which pass runs follows from the input alone:
/// exact features (`alpha >= 1`) take the zone-pruned pass and retain its
/// aggregates — they describe the full data, so later appends can merge
/// into them — while α-sampled features take the fused pass over Bernoulli
/// samples of `DQ` and `DR`, to be refined under the interaction budget
/// (§3.3).
fn materialize(
    table: &Table,
    query: &SelectQuery,
    space: &ViewSpace,
    config: &ViewSeekerConfig,
    zones: Option<Arc<ZoneMaps>>,
) -> Result<Materialized, CoreError> {
    let threads = config.effective_threads();
    if config.alpha >= 1.0 {
        let zones = match zones {
            Some(z) => z,
            None => Arc::new(ZoneMaps::build(table, 0)),
        };
        let (views, dq, stats, retained) =
            materialize_all_fused_pruned(table, &zones, query.predicate(), space, threads)?;
        return Ok(Materialized {
            views,
            dq,
            stats,
            zones: Some(zones),
            retained: Some(retained),
            plan: None,
        });
    }
    let dq = query.execute(table)?;
    let sampled_dq = bernoulli_sample(&dq, config.alpha, config.seed);
    let sampled_dr = bernoulli_sample(&table.all_rows(), config.alpha, config.seed.wrapping_add(1));
    let plan = GroupPlan::build(table, space)?;
    let all: Vec<usize> = (0..space.len()).collect();
    let (views, stats) = plan.materialize_views(table, &sampled_dq, &sampled_dr, &all, threads)?;
    Ok(Materialized {
        views,
        dq,
        stats,
        zones,
        retained: None,
        plan: Some(plan),
    })
}

/// A session borrowing its table — the original `ViewSeeker` shape; call
/// sites like `ViewSeeker::new(&table, &query, config)` are unchanged.
pub type ViewSeeker<'a> = Seeker<&'a Table>;

/// A session owning its table behind an [`std::sync::Arc`], for registries
/// and services that outlive any one stack frame.
pub type OwnedSeeker = Seeker<std::sync::Arc<Table>>;

impl<H: Borrow<Table>> Seeker<H> {
    /// Runs the offline initialization phase: executes the query to obtain
    /// `DQ`, enumerates the view space, materializes every view with the
    /// fused single-scan executor, and computes the feature matrix — on an
    /// α% sample when the optimization is enabled (`config.alpha < 1`).
    ///
    /// # Errors
    ///
    /// Configuration validation errors, query errors, and materialization
    /// errors.
    pub fn new(table: H, query: &SelectQuery, config: ViewSeekerConfig) -> Result<Self, CoreError> {
        Self::new_traced_with_zones(table, query, config, None, noop_tracer())
    }

    /// [`Seeker::new`] with an explicit [`Tracer`] and the table's zone maps
    /// supplied by the caller (a catalog that loaded them from a VSC2
    /// manifest). The offline phases (view-space generation +
    /// materialization, feature extraction) are timed into the tracer, and
    /// every later interactive turn reports there too; pass a shared
    /// [`crate::trace::Recorder`] handle to observe the session.
    ///
    /// Without α-sampling the `DQ` predicate is evaluated through the zones
    /// — row groups the zones provably exclude are skipped without reading
    /// a value, and the counts appear in
    /// [`MaterializationReport::rowgroups_scanned`] /
    /// [`MaterializationReport::rowgroups_pruned`]. Passing `None` builds
    /// zone maps in-memory when that pass needs them.
    ///
    /// # Errors
    ///
    /// Same contract as [`Seeker::new`].
    pub fn new_traced_with_zones(
        table: H,
        query: &SelectQuery,
        config: ViewSeekerConfig,
        zones: Option<Arc<ZoneMaps>>,
        tracer: Arc<dyn Tracer>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let table_ref: &Table = table.borrow();

        let gen_started = Stopwatch::start();
        let space = ViewSpace::enumerate_excluding(
            table_ref,
            &config.bin_configs,
            &config.excluded_dimensions,
        )?;

        let mat_started = Stopwatch::start();
        let Materialized {
            views,
            dq,
            stats,
            zones,
            retained,
            plan,
        } = materialize(table_ref, query, &space, &config, zones)?;
        let mat_elapsed = mat_started.elapsed();
        let materialization = MaterializationReport {
            threads: config.effective_threads(),
            scans: stats.scans,
            rows_scanned: stats.rows_scanned,
            rowgroups_scanned: stats.rowgroups_scanned,
            rowgroups_pruned: stats.rowgroups_pruned,
            duration_us: duration_us(mat_elapsed),
        };
        tracer.record_span(TracePhase::Materialization, mat_elapsed);
        tracer.record_span(TracePhase::ViewSpaceGen, gen_started.elapsed());

        let feat_started = Stopwatch::start();
        let matrix = FeatureMatrix::from_views(&views, config.usability_optimal_bins)?;
        tracer.record_span(TracePhase::FeatureExtraction, feat_started.elapsed());

        let refinement = match plan {
            Some(plan) => Some(Refinement {
                refiner: IncrementalRefiner::new(plan.view_buckets()?),
                plan,
            }),
            None => None,
        };
        let session = FeedbackSession::new(matrix.clone(), config.clone())?;
        let dr = table_ref.all_rows();

        Ok(Self {
            table,
            query: query.clone(),
            dq,
            dr,
            config,
            space,
            zones,
            retained,
            matrix,
            session,
            refinement,
            refinement_time: Duration::ZERO,
            tracer,
            iterations: 0,
            materialization,
        })
    }

    /// The offline materialization's scan counts and timing.
    #[must_use]
    pub fn materialization(&self) -> &MaterializationReport {
        &self.materialization
    }

    /// Whether the session holds mergeable fused aggregates, so the next
    /// [`Seeker::absorb_append`] can fold appended rows in with a tail-only
    /// scan instead of re-materializing the view space.
    #[must_use]
    pub fn can_merge_appends(&self) -> bool {
        self.retained.is_some()
    }

    /// Rebinds the session to a grown version of its table — `table` must be
    /// the same dataset with `appended` rows added at the end (same schema,
    /// existing rows unchanged, categorical dictionaries extended
    /// append-only) — and brings every view, feature, and estimator up to
    /// date with the new rows without touching the collected labels.
    ///
    /// Sessions holding retained fused aggregates
    /// ([`Seeker::can_merge_appends`]) scan only the appended tail and merge
    /// its raw aggregates in; everything else (α-sampled sessions, or a
    /// categorical dimension that grew a new distinct value and so changed
    /// the view space's bin shapes) falls back to a full re-materialization.
    /// Either way the rebuilt features are exact, so any outstanding
    /// α-refinement debt is cleared.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] when `table`'s schema differs from the
    /// session's or it has fewer rows; materialization and estimator-refit
    /// errors.
    pub fn absorb_append(
        &mut self,
        table: H,
        zones: Option<Arc<ZoneMaps>>,
    ) -> Result<AppendReport, CoreError> {
        let new_ref: &Table = table.borrow();
        if new_ref.schema() != self.table.borrow().schema() {
            return Err(CoreError::Invalid(
                "absorb_append: the grown table's schema differs from the session's".into(),
            ));
        }
        let old_rows = self.dr.len();
        let new_rows = new_ref.row_count();
        if new_rows < old_rows {
            return Err(CoreError::Invalid(format!(
                "absorb_append: table shrank from {old_rows} to {new_rows} rows"
            )));
        }
        let appended_rows = (new_rows - old_rows) as u64;

        // Fast path: fold the tail into the retained fused aggregates.
        if let Some(retained) = &mut self.retained {
            if let Some((views, tail_dq, stats)) = retained.absorb_append(
                new_ref,
                old_rows,
                self.query.predicate(),
                self.config.effective_threads(),
            )? {
                let matrix = FeatureMatrix::from_views(&views, self.config.usability_optimal_bins)?;
                self.session.update_matrix(matrix.clone())?;
                self.matrix = matrix;
                self.dq = self.dq.union(&tail_dq);
                self.dr = new_ref.all_rows();
                self.zones = zones;
                self.table = table;
                return Ok(AppendReport {
                    merged: true,
                    appended_rows,
                    rows_scanned: stats.rows_scanned,
                    rowgroups_scanned: 0,
                    rowgroups_pruned: 0,
                });
            }
        }

        // Full rebuild — always exact, whatever α the session started with:
        // that clears any outstanding refinement debt and arms the retained
        // aggregates for the next append. The view space is re-enumerated so
        // categorical bin specs pick up dictionary values the appended rows
        // introduced; enumeration is deterministic over the (unchanged)
        // schema, so views keep their ids and count — which `update_matrix`
        // requires to preserve the session's labels.
        let space = ViewSpace::enumerate_excluding(
            new_ref,
            &self.config.bin_configs,
            &self.config.excluded_dimensions,
        )?;
        if space.len() != self.space.len() {
            return Err(CoreError::Invalid(format!(
                "absorb_append: view space changed size ({} -> {})",
                self.space.len(),
                space.len()
            )));
        }
        let exact = ViewSeekerConfig {
            alpha: 1.0,
            ..self.config.clone()
        };
        let built = materialize(new_ref, &self.query, &space, &exact, zones)?;
        let matrix = FeatureMatrix::from_views(&built.views, self.config.usability_optimal_bins)?;
        self.session.update_matrix(matrix.clone())?;
        self.matrix = matrix;
        self.space = space;
        self.dq = built.dq;
        self.zones = built.zones;
        self.retained = built.retained;
        self.refinement = None;
        self.dr = new_ref.all_rows();
        self.table = table;
        Ok(AppendReport {
            merged: false,
            appended_rows,
            rows_scanned: built.stats.rows_scanned,
            rowgroups_scanned: built.stats.rowgroups_scanned,
            rowgroups_pruned: built.stats.rowgroups_pruned,
        })
    }

    /// Replaces the session's tracer (the default is the no-op one). Spans
    /// already recorded stay with the previous tracer.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Interactive iterations completed so far (one per
    /// [`Seeker::next_views`] call).
    #[must_use]
    pub fn iteration_count(&self) -> u64 {
        self.iterations
    }

    /// The current phase of the session.
    #[must_use]
    pub fn phase(&self) -> SeekerPhase {
        self.session.phase()
    }

    /// The enumerated view space.
    #[must_use]
    pub fn view_space(&self) -> &ViewSpace {
        &self.space
    }

    /// The table handle the seeker was built over. For `OwnedSeeker` this is
    /// the `Arc<Table>`, so callers can check that sessions share one
    /// allocation (`Arc::ptr_eq`) rather than each owning a copy.
    #[must_use]
    pub fn table_handle(&self) -> &H {
        &self.table
    }

    /// The current feature matrix (rough values may still be present while
    /// refinement is incomplete).
    #[must_use]
    pub fn feature_matrix(&self) -> &FeatureMatrix {
        self.session.feature_matrix()
    }

    /// All labels collected so far, in submission order.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        self.session.labels()
    }

    /// Number of views labeled so far (the "user effort" measure of
    /// Experiment 1).
    #[must_use]
    pub fn label_count(&self) -> usize {
        self.session.label_count()
    }

    /// Number of views still holding rough (α-sampled) features; 0 when the
    /// optimization is disabled or refinement has finished.
    #[must_use]
    pub fn pending_refinements(&self) -> usize {
        self.refinement.as_ref().map_or(0, |r| r.refiner.pending())
    }

    /// The rows selected by the session's query (`DQ`).
    #[must_use]
    pub fn dq(&self) -> &RowSet {
        &self.dq
    }

    /// Total wall-clock spent in incremental refinement so far.
    ///
    /// Refinement runs between labeling prompts — work the paper hides
    /// inside user think-time ("makes the delays transparent to the user",
    /// §3.3). Harnesses measuring user-perceived system latency subtract
    /// this from the session's total wall-clock.
    #[must_use]
    pub fn refinement_time(&self) -> Duration {
        self.refinement_time
    }

    /// Selects the next `m` views to present to the user for labeling
    /// (Algorithm 1, line 6). Runs the incremental-refinement budget first —
    /// the work the paper hides inside user think-time.
    ///
    /// Returns an empty vector once every view has been labeled.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn next_views(&mut self, m: usize) -> Result<Vec<ViewId>, CoreError> {
        let started = Stopwatch::start();
        let report = self.run_refinement()?;
        let sampling_started = Stopwatch::start();
        let picks = self.session.next_items(m)?;
        let sampling_us = duration_us(sampling_started.elapsed());

        self.iterations += 1;
        self.tracer.record_iteration(IterationTrace {
            iteration: self.iterations,
            pruning_us: report.pruning_us,
            refinement_us: report.refinement_us,
            estimator_fit_us: report.fit_us,
            sampling_us,
            total_us: duration_us(started.elapsed()),
            views_refined: report.refined,
            pending_after: report.pending_after,
            budget: report.budget,
        });
        Ok(picks)
    }

    /// Records the user's feedback on a view and refines both estimators
    /// (Algorithm 1, lines 7–11).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidLabel`] for a score outside `[0, 1]`;
    /// * [`CoreError::UnknownView`] / [`CoreError::AlreadyLabeled`];
    /// * estimator-fitting errors.
    pub fn submit_feedback(&mut self, view: ViewId, score: f64) -> Result<(), CoreError> {
        let started = Stopwatch::start();
        let result = self.session.submit_feedback(view, score);
        self.tracer
            .record_span(TracePhase::EstimatorFit, started.elapsed());
        result
    }

    /// The current top-`k` recommendation by the view utility estimator
    /// (Algorithm 1, line 12 / the set `T`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label has been submitted.
    pub fn recommend(&self, k: usize) -> Result<Vec<ViewId>, CoreError> {
        let started = Stopwatch::start();
        let result = self.session.recommend(k);
        self.tracer
            .record_span(TracePhase::Recommend, started.elapsed());
        result
    }

    /// The view utility estimator's predicted score for every view.
    ///
    /// Scoring is parallelized across views on `config.init_threads` worker
    /// threads — this is the hot path of every interactive turn (refinement
    /// prioritization, recommendation, and diverse re-ranking all consume
    /// it), and it is embarrassingly parallel.
    ///
    /// # Errors
    ///
    /// [`CoreError::Learn`] until at least one label has been submitted.
    pub fn predicted_scores(&self) -> Result<Vec<f64>, CoreError> {
        self.session
            .predicted_scores_parallel(self.config.effective_threads())
    }

    /// A diversified top-`k` recommendation (DiVE-style MMR, see
    /// [`crate::diversity`]): avoids returning five aggregate variants of
    /// the same underlying deviation.
    ///
    /// # Errors
    ///
    /// Same contract as [`FeedbackSession::recommend_diverse`].
    pub fn recommend_diverse(&self, k: usize, lambda: f64) -> Result<Vec<ViewId>, CoreError> {
        let started = Stopwatch::start();
        let result = self.session.recommend_diverse(k, lambda);
        self.tracer
            .record_span(TracePhase::Recommend, started.elapsed());
        result
    }

    /// The learned feature weights (the discovered β of Eq. 4), once fitted.
    #[must_use]
    pub fn learned_weights(&self) -> Option<&[f64]> {
        self.session.learned_weights()
    }

    /// Runs one incremental-refinement budget (paper §3.3): recomputes the
    /// full-data features of the highest-priority still-rough views, in
    /// batches of one fused pass each (see [`crate::optimize`]), then
    /// renormalizes the matrix and pushes it into the session (which refits
    /// the estimators). Returns the phase timings of the pass for the
    /// iteration trace.
    fn run_refinement(&mut self) -> Result<RefinementReport, CoreError> {
        let Some(Refinement { refiner, plan }) = &mut self.refinement else {
            return Ok(RefinementReport::default());
        };
        if refiner.is_complete() {
            return Ok(RefinementReport::default());
        }
        let started = Stopwatch::start();
        // Priority: the current utility estimator's ranking, else view order
        // before any labels exist. This ranking *is* the §3.3 pruning:
        // low-priority views sit at the back of the queue and may never be
        // refined before the user stops.
        let priority: Vec<usize> = if self.session.label_count() > 0 {
            let scores = self.session.predicted_scores()?;
            viewseeker_stats::rank_descending(&scores)
        } else {
            (0..self.space.len()).collect()
        };
        let pruning_us = duration_us(started.elapsed());

        let batch_started = Stopwatch::start();
        let table = self.table.borrow();
        let dq = &self.dq;
        let dr = &self.dr;
        let matrix = &mut self.matrix;
        let opt_bins = self.config.usability_optimal_bins;
        let threads = self.config.effective_threads();
        let refined = refiner.refine(&priority, self.config.refine_budget, |batch| {
            // Every feature of the batch is computed before the matrix is
            // touched, so a failed pass leaves it unchanged.
            let (views, _) = plan.materialize_views(table, dq, dr, batch, threads)?;
            let features = views
                .iter()
                .map(|data| compute_features(data, opt_bins))
                .collect::<Result<Vec<_>, _>>()?;
            for (&i, row) in batch.iter().zip(features) {
                matrix.update_raw(i, row)?;
            }
            Ok(())
        })?;
        let batch_elapsed = batch_started.elapsed();
        self.tracer
            .record_span(TracePhase::Pruning, Duration::from_micros(pruning_us));
        self.tracer
            .record_span(TracePhase::Refinement, batch_elapsed);
        let refinement_us = duration_us(batch_elapsed);

        let fit_started = Stopwatch::start();
        if refined > 0 {
            self.matrix.renormalize();
            self.session.update_matrix(self.matrix.clone())?;
        }
        let fit_us = duration_us(fit_started.elapsed());

        self.refinement_time += started.elapsed();
        let budget = Some(match self.config.refine_budget {
            RefineBudget::Views(budget) => RefinementBudgetReport::Views { budget, refined },
            RefineBudget::Time(budget) => RefinementBudgetReport::Time {
                budget_us: duration_us(budget),
                actual_us: refinement_us,
            },
        });
        Ok(RefinementReport {
            pruning_us,
            refinement_us,
            fit_us,
            refined,
            pending_after: refiner.pending(),
            budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::CompositeUtility;
    use crate::config::RefineBudget;
    use crate::features::UtilityFeature;
    use crate::metrics::precision_at_k;
    use std::collections::HashSet;
    use viewseeker_dataset::generate::{generate_diab, DiabConfig};
    use viewseeker_dataset::Predicate;

    fn testbed() -> (viewseeker_dataset::Table, SelectQuery) {
        let table = generate_diab(&DiabConfig::small(3_000, 11)).unwrap();
        let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
        (table, query)
    }

    /// Drives a session against a simulated user until 100% precision at
    /// `k` is reached or `max_labels` are spent; returns labels used.
    fn drive(
        seeker: &mut ViewSeeker<'_>,
        ideal: &CompositeUtility,
        k: usize,
        max_labels: usize,
    ) -> usize {
        let ideal_scores = ideal.normalized_scores(seeker.feature_matrix()).unwrap();
        let ideal_top = ideal.top_k(seeker.feature_matrix(), k).unwrap();
        drive_toward(seeker, &ideal_scores, &ideal_top, k, max_labels)
    }

    fn drive_toward(
        seeker: &mut ViewSeeker<'_>,
        ideal_scores: &[f64],
        ideal_top: &[ViewId],
        k: usize,
        max_labels: usize,
    ) -> usize {
        for used in 1..=max_labels {
            let picks = seeker.next_views(1).unwrap();
            let Some(v) = picks.first().copied() else {
                return used - 1;
            };
            seeker.submit_feedback(v, ideal_scores[v.index()]).unwrap();
            let rec = seeker.recommend(k).unwrap();
            if precision_at_k(&rec, ideal_top) >= 1.0 {
                return used;
            }
        }
        max_labels
    }

    #[test]
    fn session_starts_in_cold_start_and_transitions() {
        let (table, query) = testbed();
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        assert_eq!(s.phase(), SeekerPhase::ColdStart);
        assert_eq!(s.label_count(), 0);

        // Label one clearly-positive and one clearly-negative view.
        let v1 = s.next_views(1).unwrap()[0];
        s.submit_feedback(v1, 0.9).unwrap();
        assert_eq!(s.phase(), SeekerPhase::ColdStart);
        let v2 = s.next_views(1).unwrap()[0];
        s.submit_feedback(v2, 0.1).unwrap();
        assert_eq!(s.phase(), SeekerPhase::Active);
        assert_eq!(s.label_count(), 2);
    }

    #[test]
    fn learns_a_single_component_ideal_quickly() {
        let (table, query) = testbed();
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let ideal = CompositeUtility::single(UtilityFeature::Emd);
        let used = drive(&mut s, &ideal, 5, 60);
        assert!(used < 60, "did not converge within 60 labels");
        let ideal_top = ideal.top_k(s.feature_matrix(), 5).unwrap();
        assert_eq!(precision_at_k(&s.recommend(5).unwrap(), &ideal_top), 1.0);
    }

    #[test]
    fn learns_a_composite_ideal() {
        let (table, query) = testbed();
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let ideal = CompositeUtility::new(&[(UtilityFeature::Emd, 0.5), (UtilityFeature::Kl, 0.5)])
            .unwrap();
        let used = drive(&mut s, &ideal, 10, 120);
        assert!(used < 120, "composite ideal did not converge");
    }

    #[test]
    fn feedback_validation() {
        let (table, query) = testbed();
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let v = s.next_views(1).unwrap()[0];
        assert!(matches!(
            s.submit_feedback(v, 1.5),
            Err(CoreError::InvalidLabel(_))
        ));
        assert!(matches!(
            s.submit_feedback(v, f64::NAN),
            Err(CoreError::InvalidLabel(_))
        ));
        s.submit_feedback(v, 0.5).unwrap();
        assert!(matches!(
            s.submit_feedback(v, 0.5),
            Err(CoreError::AlreadyLabeled(_))
        ));
        let bogus = ViewId::new_unchecked(999_999);
        assert!(matches!(
            s.submit_feedback(bogus, 0.5),
            Err(CoreError::UnknownView(_))
        ));
    }

    #[test]
    fn recommend_before_any_label_errors() {
        let (table, query) = testbed();
        let s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        assert!(matches!(s.recommend(5), Err(CoreError::Learn(_))));
        assert!(s.learned_weights().is_none());
    }

    #[test]
    fn exhausting_the_view_space_returns_empty() {
        let table = generate_diab(&DiabConfig {
            rows: 300,
            dimension_cardinalities: vec![2],
            measures: 1,
            ..DiabConfig::default()
        })
        .unwrap();
        let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        assert_eq!(s.view_space().len(), 5); // 1 dim × 1 measure × 5 aggs
        for i in 0..5 {
            let v = s.next_views(1).unwrap()[0];
            s.submit_feedback(v, if i % 2 == 0 { 0.9 } else { 0.1 })
                .unwrap();
        }
        assert!(s.next_views(1).unwrap().is_empty());
    }

    #[test]
    fn alpha_sampling_initializes_rough_then_refines() {
        let (table, query) = testbed();
        let cfg = ViewSeekerConfig {
            alpha: 0.2,
            refine_budget: RefineBudget::Views(50),
            ..ViewSeekerConfig::default()
        };
        let mut s = ViewSeeker::new(&table, &query, cfg).unwrap();
        let total = s.view_space().len();
        assert_eq!(s.pending_refinements(), total);
        // Each next_views() call consumes one refinement budget.
        let _ = s.next_views(1).unwrap();
        assert_eq!(s.pending_refinements(), total - 50);
        for _ in 0..(total / 50) + 1 {
            let _ = s.next_views(1).unwrap();
        }
        assert_eq!(s.pending_refinements(), 0);
        assert!(s.refinement_time() > Duration::ZERO);
    }

    #[test]
    fn refinement_converges_to_the_exact_features_bit_for_bit() {
        // A refined view is computed with the exact pass's bin specs,
        // partition grid and per-slot accumulation order, so once nothing
        // is pending the α-sampled session's matrix *is* the exact one.
        // 45 views in 3 buckets; 9 000 rows span three scan partitions.
        let table = generate_diab(&DiabConfig {
            rows: 9_000,
            dimension_cardinalities: vec![2, 5, 3],
            measures: 3,
            seed: 11,
            ..DiabConfig::default()
        })
        .unwrap();
        let query = SelectQuery::new(Predicate::eq("a0", "a0_v0"));
        for threads in [1, 8] {
            let exact_cfg = ViewSeekerConfig {
                init_threads: threads,
                ..ViewSeekerConfig::default()
            };
            let exact = ViewSeeker::new(&table, &query, exact_cfg.clone()).unwrap();
            for alpha in [0.2, 0.4] {
                for budget in [
                    RefineBudget::Views(1),
                    RefineBudget::Views(37),
                    RefineBudget::Time(Duration::ZERO),
                    RefineBudget::Time(Duration::from_millis(200)),
                ] {
                    let cfg = ViewSeekerConfig {
                        alpha,
                        refine_budget: budget,
                        ..exact_cfg.clone()
                    };
                    let mut s = ViewSeeker::new(&table, &query, cfg).unwrap();
                    assert_ne!(s.feature_matrix(), exact.feature_matrix());
                    let mut turn = 0;
                    while s.pending_refinements() > 0 {
                        if let Some(&v) = s.next_views(1).unwrap().first() {
                            s.submit_feedback(v, if turn % 2 == 0 { 0.9 } else { 0.1 })
                                .unwrap();
                        }
                        turn += 1;
                        assert!(turn <= s.view_space().len(), "refinement stalled");
                    }
                    assert!(
                        s.feature_matrix() == exact.feature_matrix(),
                        "threads={threads} alpha={alpha} {budget:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_refinement_pass_leaves_matrix_and_backlog_unchanged() {
        let (full, query) = testbed();
        let cfg = ViewSeekerConfig {
            alpha: 0.2,
            refine_budget: RefineBudget::Views(40),
            ..ViewSeekerConfig::default()
        };
        let mut s = ViewSeeker::new(&full, &query, cfg).unwrap();
        let _ = s.next_views(1).unwrap();
        let pending = s.pending_refinements();
        let matrix = s.feature_matrix().clone();
        // A shorter table makes the pass fail: DQ holds row ids past its end.
        let short = split(&full, 2_000);
        s.table = &short;
        assert!(matches!(
            s.next_views(1),
            Err(CoreError::Dataset(
                viewseeker_dataset::DatasetError::IndexOutOfRange { .. }
            ))
        ));
        assert_eq!(s.pending_refinements(), pending);
        assert!(s.feature_matrix() == &matrix);
        assert!(s.matrix == matrix);
        s.table = &full;
        let _ = s.next_views(1).unwrap();
        assert_eq!(s.pending_refinements(), pending - 40);
    }

    #[test]
    fn optimized_session_still_converges() {
        let (table, query) = testbed();
        let cfg = ViewSeekerConfig {
            alpha: 0.3,
            refine_budget: RefineBudget::Views(30),
            ..ViewSeekerConfig::default()
        };
        let mut s = ViewSeeker::new(&table, &query, cfg).unwrap();
        let ideal = CompositeUtility::single(UtilityFeature::L2);
        // The simulated user scores views on the *exact* features (a real
        // user reacts to the true rendered charts, not the seeker's rough
        // approximation), so convergence requires refinement to pull the
        // session's features toward the exact ones. Computing the ideal on
        // `s.feature_matrix()` here would target the alpha-sampled rough
        // ranking, which refinement then moves away from.
        let exact = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let ideal_scores = ideal.normalized_scores(exact.feature_matrix()).unwrap();
        let ideal_top = ideal.top_k(exact.feature_matrix(), 5).unwrap();
        let used = drive_toward(&mut s, &ideal_scores, &ideal_top, 5, 150);
        assert!(used < 150, "optimized session did not converge");
    }

    #[test]
    fn deterministic_given_seed() {
        let (table, query) = testbed();
        let run = || {
            let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
            let ideal = CompositeUtility::single(UtilityFeature::Kl);
            let scores = ideal.normalized_scores(s.feature_matrix()).unwrap();
            let mut trace = Vec::new();
            for _ in 0..10 {
                let v = s.next_views(1).unwrap()[0];
                trace.push(v.index());
                s.submit_feedback(v, scores[v.index()]).unwrap();
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fused_sessions_are_identical_across_thread_counts() {
        // The determinism regression guard for the fused executor: a full
        // simulated-user session — labels chosen by the seeker, scores from
        // an ideal utility, recommendations read every turn — must produce
        // the identical sequence at threads=1 and threads=8. α-sampling is
        // on so the DQ ⊄ DR tail path is exercised too.
        let (table, query) = testbed();
        let run = |threads: usize| {
            let cfg = ViewSeekerConfig {
                alpha: 0.4,
                refine_budget: RefineBudget::Views(25),
                init_threads: threads,
                ..ViewSeekerConfig::default()
            };
            let mut s = ViewSeeker::new(&table, &query, cfg).unwrap();
            let ideal = CompositeUtility::single(UtilityFeature::Emd);
            let scores = ideal.normalized_scores(s.feature_matrix()).unwrap();
            let mut trace = Vec::new();
            for _ in 0..12 {
                let v = s.next_views(1).unwrap()[0];
                trace.push(v.index());
                s.submit_feedback(v, scores[v.index()]).unwrap();
                let rec: Vec<usize> = s.recommend(3).unwrap().iter().map(|v| v.index()).collect();
                trace.extend(rec);
            }
            trace
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn materialization_report_counts_the_passes_of_each_arm() {
        let (table, query) = testbed();
        let exact = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let report = *exact.materialization();
        assert_eq!(report.scans, 1, "DQ ⊆ DR without sampling: one pass");
        assert_eq!(report.rows_scanned, 3_000);
        assert_eq!(report.rowgroups_scanned + report.rowgroups_pruned, 1);

        let cfg = ViewSeekerConfig {
            alpha: 0.4,
            ..ViewSeekerConfig::default()
        };
        let sampled = ViewSeeker::new(&table, &query, cfg).unwrap();
        let report = *sampled.materialization();
        assert_eq!(report.scans, 2, "sampled DQ ⊄ sampled DR: a tail pass");
        assert!(report.rows_scanned < 3_000);
        assert_eq!(report.rowgroups_scanned + report.rowgroups_pruned, 0);
    }

    #[test]
    fn iteration_traces_account_for_next_views_wall_time() {
        use crate::trace::Recorder;

        let (table, query) = testbed();
        let cfg = ViewSeekerConfig {
            alpha: 0.2,
            refine_budget: RefineBudget::Views(40),
            ..ViewSeekerConfig::default()
        };
        let recorder = Recorder::shared();
        let mut s = ViewSeeker::new_traced_with_zones(
            &table,
            &query,
            cfg,
            None,
            Arc::clone(&recorder) as Arc<dyn Tracer>,
        )
        .unwrap();

        // Offline phases were timed during construction.
        assert_eq!(recorder.phase_total(TracePhase::ViewSpaceGen).count, 1);
        assert_eq!(recorder.phase_total(TracePhase::FeatureExtraction).count, 1);

        let mut wall = Vec::new();
        for i in 0..4 {
            let started = Stopwatch::start();
            let v = s.next_views(1).unwrap()[0];
            wall.push(started.elapsed());
            s.submit_feedback(v, if i % 2 == 0 { 0.9 } else { 0.1 })
                .unwrap();
        }
        let _ = s.recommend(5).unwrap();

        assert_eq!(s.iteration_count(), 4);
        assert_eq!(recorder.iteration_count(), 4);
        let traces = recorder.iterations();
        assert_eq!(traces.len(), 4);
        for (trace, wall) in traces.iter().zip(&wall) {
            // The per-phase durations sum to within 10% of the measured
            // wall time of next_views (acceptance criterion). The phases
            // cover everything but a handful of Instant::now calls, so
            // with a 40-view refinement batch dominating each iteration
            // the slack is generous.
            let wall_us = wall.as_micros() as u64;
            assert!(
                trace.phase_sum_us() * 10 >= trace.total_us * 9,
                "phase sum {} vs traced total {}",
                trace.phase_sum_us(),
                trace.total_us
            );
            assert!(
                trace.total_us <= wall_us,
                "traced total {} exceeds measured wall {}",
                trace.total_us,
                wall_us
            );
            assert!(
                trace.phase_sum_us() * 10 >= wall_us * 9,
                "phase sum {} vs wall {}",
                trace.phase_sum_us(),
                wall_us
            );
            // Refinement reported against its configured budget.
            assert_eq!(
                trace.budget,
                Some(crate::trace::RefinementBudgetReport::Views {
                    budget: 40,
                    refined: trace.views_refined,
                })
            );
            assert_eq!(trace.views_refined, 40);
        }
        assert!(recorder.phase_total(TracePhase::Refinement).total_us > 0);
        assert!(recorder.phase_total(TracePhase::EstimatorFit).count >= 4);
        assert_eq!(recorder.phase_total(TracePhase::Recommend).count, 1);
    }

    #[test]
    fn time_budget_is_reported_against_actual() {
        let (table, query) = testbed();
        let cfg = ViewSeekerConfig {
            alpha: 0.2,
            refine_budget: RefineBudget::Time(Duration::from_millis(5)),
            ..ViewSeekerConfig::default()
        };
        let recorder = crate::trace::Recorder::shared();
        let mut s = ViewSeeker::new_traced_with_zones(
            &table,
            &query,
            cfg,
            None,
            Arc::clone(&recorder) as Arc<dyn Tracer>,
        )
        .unwrap();
        let _ = s.next_views(1).unwrap();
        let trace = recorder.last_iteration().unwrap();
        match trace.budget {
            Some(crate::trace::RefinementBudgetReport::Time {
                budget_us,
                actual_us,
            }) => {
                assert_eq!(budget_us, 5_000);
                assert!(actual_us > 0);
            }
            other => panic!("expected a time budget report, got {other:?}"),
        }
    }

    #[test]
    fn full_init_sessions_trace_without_refinement_phases() {
        let (table, query) = testbed();
        let recorder = crate::trace::Recorder::shared();
        let mut s = ViewSeeker::new_traced_with_zones(
            &table,
            &query,
            ViewSeekerConfig::default(),
            None,
            Arc::clone(&recorder) as Arc<dyn Tracer>,
        )
        .unwrap();
        let _ = s.next_views(1).unwrap();
        let trace = recorder.last_iteration().unwrap();
        assert_eq!(trace.budget, None);
        assert_eq!(trace.views_refined, 0);
        assert_eq!(trace.refinement_us, 0);
        assert_eq!(trace.pending_after, 0);
    }

    #[test]
    fn m_views_per_iteration() {
        let (table, query) = testbed();
        let mut s = ViewSeeker::new(&table, &query, ViewSeekerConfig::default()).unwrap();
        let picks = s.next_views(3).unwrap();
        assert_eq!(picks.len(), 3);
        // Distinct views.
        let set: HashSet<usize> = picks.iter().map(|v| v.index()).collect();
        assert_eq!(set.len(), 3);
    }

    /// Splits a diab table into a prefix (dictionary preserved by `gather`)
    /// and the full table, for append-absorption tests.
    fn split(table: &Table, prefix_rows: usize) -> Table {
        let ids = (0..prefix_rows as u32).collect::<Vec<_>>();
        table
            .gather(&RowSet::from_sorted_ids(ids).unwrap())
            .unwrap()
    }

    #[test]
    fn absorb_append_merges_tail_into_retained_aggregates() {
        let (full, query) = testbed();
        let prefix = split(&full, 2_000);

        let mut grown = ViewSeeker::new(&prefix, &query, ViewSeekerConfig::default()).unwrap();
        assert!(grown.can_merge_appends(), "default fused path retains");
        // Collect labels before the append so estimator state must survive.
        let v1 = grown.next_views(1).unwrap()[0];
        grown.submit_feedback(v1, 0.9).unwrap();
        let v2 = grown.next_views(1).unwrap()[0];
        grown.submit_feedback(v2, 0.1).unwrap();

        let report = grown.absorb_append(&full, None).unwrap();
        assert!(report.merged, "tail should fold into retained aggregates");
        assert_eq!(report.appended_rows, 1_000);
        assert!(
            report.rows_scanned <= 2 * 1_000,
            "merged path scans only the tail, not the {} prefix rows (scanned {})",
            2_000,
            report.rows_scanned
        );
        assert!(grown.can_merge_appends(), "still mergeable for next append");

        // The merged session's features match a session materialized from
        // scratch over the full table. (Not bit-for-bit: the merge adds the
        // tail's bucket sums to the prefix's in one step, while the fresh
        // scan accumulates row by row — same values, different float
        // association.)
        let fresh = ViewSeeker::new(&full, &query, ViewSeekerConfig::default()).unwrap();
        assert_eq!(grown.feature_matrix().len(), fresh.feature_matrix().len());
        for (i, (a, b)) in grown
            .feature_matrix()
            .rows()
            .iter()
            .zip(fresh.feature_matrix().rows())
            .enumerate()
        {
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() < 1e-9,
                    "view {i}: merged feature {x} vs fresh {y}"
                );
            }
        }
        assert_eq!(grown.dq().ids(), fresh.dq().ids());
        // Labels survived and the session keeps recommending.
        assert_eq!(grown.label_count(), 2);
        assert!(grown.recommend(3).unwrap().len() <= 3);
    }

    #[test]
    fn absorb_append_rebuilds_on_new_categorical_value() {
        let schema = || {
            viewseeker_dataset::Schema::builder()
                .categorical_dimension("city")
                .measure("sales")
                .build()
                .unwrap()
        };
        let rows = |values: &[(&str, f64)]| {
            let mut b = viewseeker_dataset::builder::TableBuilder::new(schema());
            for (city, sales) in values {
                b.push_row(viewseeker_dataset::row![*city, *sales]).unwrap();
            }
            b.finish().unwrap()
        };
        let mut base: Vec<(&str, f64)> = (0..200)
            .map(|i| (if i % 2 == 0 { "x" } else { "y" }, f64::from(i)))
            .collect();
        let prefix = rows(&base);
        // The appended rows introduce dictionary value "z": the retained
        // categorical bin specs can't describe it, so the session must
        // re-enumerate and re-materialize instead of merging.
        base.extend((0..50).map(|i| ("z", f64::from(1_000 + i))));
        let full = rows(&base);

        let query = SelectQuery::new(Predicate::eq("city", "x"));
        let mut s = ViewSeeker::new(&prefix, &query, ViewSeekerConfig::default()).unwrap();
        assert!(s.can_merge_appends());
        let report = s.absorb_append(&full, None).unwrap();
        assert!(!report.merged, "new dictionary value forces a rebuild");
        assert_eq!(report.appended_rows, 50);
        assert!(s.can_merge_appends(), "rebuild re-arms the fused retention");

        let fresh = ViewSeeker::new(&full, &query, ViewSeekerConfig::default()).unwrap();
        assert_eq!(s.feature_matrix(), fresh.feature_matrix());
        assert_eq!(s.dq().ids(), fresh.dq().ids());
    }

    #[test]
    fn absorb_append_rebuilds_sampled_sessions_exactly() {
        let (full, query) = testbed();
        let prefix = split(&full, 2_000);
        let cfg = ViewSeekerConfig {
            alpha: 0.4,
            ..ViewSeekerConfig::default()
        };
        let mut s = ViewSeeker::new(&prefix, &query, cfg).unwrap();
        assert!(!s.can_merge_appends());
        let report = s.absorb_append(&full, None).unwrap();
        assert!(!report.merged);
        assert_eq!(report.appended_rows, 1_000);
        // The rebuild is exact, so refinement debt is gone and the next
        // append merges.
        assert_eq!(s.pending_refinements(), 0);
        assert!(s.can_merge_appends());
        assert_eq!(s.dq().ids(), query.execute(&full).unwrap().ids());
        let fresh = ViewSeeker::new(&full, &query, ViewSeekerConfig::default()).unwrap();
        assert_eq!(s.feature_matrix(), fresh.feature_matrix());
    }

    #[test]
    fn absorb_append_rejects_schema_changes_and_shrinks() {
        let (full, query) = testbed();
        let prefix = split(&full, 2_000);
        let mut s = ViewSeeker::new(&full, &query, ViewSeekerConfig::default()).unwrap();
        assert!(matches!(
            s.absorb_append(&prefix, None),
            Err(CoreError::Invalid(_))
        ));
        let schema = viewseeker_dataset::Schema::builder()
            .categorical_dimension("city")
            .measure("sales")
            .build()
            .unwrap();
        let mut b = viewseeker_dataset::builder::TableBuilder::new(schema);
        b.push_row(viewseeker_dataset::row!["a", 1.0]).unwrap();
        let other = b.finish().unwrap();
        assert!(matches!(
            s.absorb_append(&other, None),
            Err(CoreError::Invalid(_))
        ));
    }
}
