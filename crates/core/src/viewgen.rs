//! Offline phase, stage 1: view materialization.
//!
//! For each view `vᵢ` ViewSeeker generates two aggregate results — the
//! *target view* `vᵢᵀ` over the query subset `DQ` and the *reference view*
//! `vᵢᴿ` over the whole database `DR` — and normalizes both into probability
//! distributions (Eq. 5). The two share one [`BinSpec`] derived from the
//! full table, so bin `j` means the same thing in both distributions.
//!
//! The within-bin dispersion of the target view (the MuVE-style accuracy
//! quantity) is computed in the same pass.

use std::collections::{HashMap, HashSet};

use viewseeker_dataset::aggregate::{group_by_aggregate, within_bin_dispersion};
use viewseeker_dataset::executor::{
    fused_group_by_all, fused_group_by_all_pruned, fused_group_by_all_raw, FusedGroupResult,
    FusedScanStats, GroupRequest, RawAggregates,
};
use viewseeker_dataset::{AggregateFunction, BinSpec, Predicate, RowSet, Table, ZoneMaps};
use viewseeker_stats::Distribution;

use crate::view::{ViewDef, ViewSpace};
use crate::CoreError;

/// The materialized numeric content of one view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewData {
    /// Normalized distribution of the target view (over `DQ`).
    pub target: Distribution,
    /// Normalized distribution of the reference view (over `DR`).
    pub reference: Distribution,
    /// Rows of `DQ` that contributed to the target view.
    pub target_rows: u64,
    /// Within-bin dispersion of the measure in the target view
    /// (accuracy component; smaller = the bars summarize their bins better).
    pub dispersion: f64,
    /// Number of bins shared by both distributions.
    pub bins: usize,
}

/// Derives the shared bin spec of a view from the *full* table, so `DQ` and
/// `DR` bin identically.
///
/// # Errors
///
/// Propagates dataset errors (unknown columns, type mismatches).
pub fn bin_spec_for(table: &Table, def: &ViewDef) -> Result<BinSpec, CoreError> {
    bin_spec_for_dimension(table, &def.dimension, def.bins)
}

/// [`bin_spec_for`] without the full [`ViewDef`]: the spec depends only on
/// the dimension and the bin count.
fn bin_spec_for_dimension(
    table: &Table,
    dimension: &str,
    bins: Option<usize>,
) -> Result<BinSpec, CoreError> {
    let col = table.column_by_name(dimension)?;
    let spec = match bins {
        None => BinSpec::categorical_of(col)?,
        Some(b) => BinSpec::equal_width_of(col, b)?,
    };
    Ok(spec)
}

/// A `(dimension, bins, measure)` scan-sharing group.
type GroupKey = (String, Option<usize>, String);

/// The fused execution plan of a view space: its unique scan groups
/// in first-seen order, each view's group and aggregate, and one
/// [`BinSpec`] per distinct `(dimension, bins)` pair — the executor's
/// *bucket*. Specs do not depend on the measure, so each is derived exactly
/// once, from the full table.
///
/// An α-sampled session keeps its plan, so every refinement pass
/// ([`GroupPlan::materialize_views`]) bins with the specs the sampled pass
/// used instead of re-deriving them.
#[derive(Debug)]
pub struct GroupPlan {
    /// Unique `(dimension, bins, measure)` groups, first-seen order.
    keys: Vec<GroupKey>,
    /// Group index and aggregate of every view in the space, in view order.
    views: Vec<(usize, AggregateFunction)>,
    /// Deduplicated bin specs, one per bucket.
    specs: Vec<BinSpec>,
    /// Spec (bucket) index of every group in `keys`.
    group_specs: Vec<usize>,
}

impl GroupPlan {
    /// Plans the fused materialization of every view of `space`, deriving
    /// each bucket's bin spec from `table`.
    ///
    /// # Errors
    ///
    /// Propagates bin-spec derivation errors (unknown columns, type
    /// mismatches).
    pub fn build(table: &Table, space: &ViewSpace) -> Result<GroupPlan, CoreError> {
        let mut keys: Vec<GroupKey> = Vec::new();
        let mut key_index: HashMap<GroupKey, usize> = HashMap::new();
        let mut views = Vec::with_capacity(space.len());
        for def in space.defs() {
            let key = (def.dimension.clone(), def.bins, def.measure.clone());
            let idx = *key_index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            });
            views.push((idx, def.aggregate));
        }

        let mut spec_keys: Vec<(String, Option<usize>)> = Vec::new();
        let mut spec_index: HashMap<(String, Option<usize>), usize> = HashMap::new();
        let mut group_specs = Vec::with_capacity(keys.len());
        for (dimension, bins, _measure) in &keys {
            let sk = (dimension.clone(), *bins);
            let idx = *spec_index.entry(sk.clone()).or_insert_with(|| {
                spec_keys.push(sk);
                spec_keys.len() - 1
            });
            group_specs.push(idx);
        }
        let specs = spec_keys
            .iter()
            .map(|(dimension, bins)| bin_spec_for_dimension(table, dimension, *bins))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(GroupPlan {
            keys,
            views,
            specs,
            group_specs,
        })
    }

    /// The bucket — the `(dimension, bins)` pair, which fixes one bin
    /// assignment and one row stream in the fused scan — of every view, in
    /// view order.
    ///
    /// # Errors
    ///
    /// [`CoreError::Invalid`] if a group lost its spec (an internal
    /// invariant violation).
    pub(crate) fn view_buckets(&self) -> Result<Vec<usize>, CoreError> {
        self.views
            .iter()
            .map(|&(g, _)| {
                self.group_specs
                    .get(g)
                    .copied()
                    .ok_or_else(|| CoreError::Invalid(format!("scan group {g} has no bin spec")))
            })
            .collect()
    }

    /// Group `g` as an executor request.
    fn request(&self, g: usize) -> Result<GroupRequest, CoreError> {
        let (dimension, _bins, measure) = self
            .keys
            .get(g)
            .ok_or_else(|| CoreError::Invalid(format!("scan group {g} out of range")))?;
        let spec = self
            .group_specs
            .get(g)
            .and_then(|&s| self.specs.get(s))
            .ok_or_else(|| CoreError::Invalid(format!("scan group {g} has no bin spec")))?;
        Ok(GroupRequest {
            dimension: dimension.clone(),
            spec: spec.clone(),
            measure: measure.clone(),
        })
    }

    /// Every group of the plan as executor requests, in group order.
    fn requests(&self) -> Result<Vec<GroupRequest>, CoreError> {
        (0..self.keys.len()).map(|g| self.request(g)).collect()
    }

    /// Materializes the views `ids` (indices into the planned space) with
    /// **one** [`fused_group_by_all`] pass over exactly the scan groups they
    /// need, and returns their data in `ids` order plus the scan's stats.
    ///
    /// A view's slots are accumulated over the same rows in the same order
    /// whichever other groups share the pass, and the partition grid depends
    /// only on `dr`, so each view's data is bit-identical to what a pass over
    /// the whole space returns for it.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownView`] for an id outside the planned space;
    /// everything [`fused_group_by_all`] reports.
    pub fn materialize_views(
        &self,
        table: &Table,
        dq: &RowSet,
        dr: &RowSet,
        ids: &[usize],
        threads: usize,
    ) -> Result<(Vec<ViewData>, FusedScanStats), CoreError> {
        let planned = ids
            .iter()
            .map(|&id| {
                self.views
                    .get(id)
                    .copied()
                    .ok_or(CoreError::UnknownView(id))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // The groups the views need, in group order.
        let mut needed: Vec<usize> = planned.iter().map(|&(g, _)| g).collect();
        needed.sort_unstable();
        needed.dedup();
        let requests = needed
            .iter()
            .map(|&g| self.request(g))
            .collect::<Result<Vec<_>, _>>()?;
        let (groups, stats) = fused_group_by_all(table, dq, dr, &requests, threads)?;
        let views = planned
            .iter()
            .map(|&(g, aggregate)| {
                let l = needed.binary_search(&g).ok();
                view_data(
                    l.and_then(|l| groups.get(l)),
                    l.and_then(|l| requests.get(l)),
                    aggregate,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((views, stats))
    }
}

/// Materializes one view over the given target (`dq`) and reference (`dr`)
/// row sets.
///
/// # Errors
///
/// Propagates dataset errors and distribution-construction errors.
pub fn materialize_view(
    table: &Table,
    dq: &RowSet,
    dr: &RowSet,
    def: &ViewDef,
) -> Result<ViewData, CoreError> {
    let spec = bin_spec_for(table, def)?;
    let target_agg = group_by_aggregate(
        table,
        dq,
        &def.dimension,
        &spec,
        &def.measure,
        def.aggregate,
    )?;
    let reference_agg = group_by_aggregate(
        table,
        dr,
        &def.dimension,
        &spec,
        &def.measure,
        def.aggregate,
    )?;
    let dispersion = within_bin_dispersion(table, dq, &def.dimension, &spec, &def.measure)?;
    Ok(ViewData {
        target: Distribution::from_aggregates(&target_agg.aggregates)?,
        reference: Distribution::from_aggregates(&reference_agg.aggregates)?,
        target_rows: target_agg.total_rows(),
        dispersion,
        bins: spec.bin_count(),
    })
}

/// Materializes every view of `space` one view at a time — three scans per
/// view, no sharing. This is the reference the fused executor's
/// differential tests compare against, not a path sessions run.
///
/// # Errors
///
/// Propagates the first materialization error encountered.
pub fn materialize_all(
    table: &Table,
    dq: &RowSet,
    dr: &RowSet,
    space: &ViewSpace,
) -> Result<Vec<ViewData>, CoreError> {
    space
        .defs()
        .iter()
        .map(|def| materialize_view(table, dq, dr, def))
        .collect()
}

/// Materializes every view of `space` with the fused executor: every scan
/// group of the space is answered by **one** partition-parallel pass over
/// the reference rows (see [`viewseeker_dataset::executor`]), instead of
/// two scans per group. Bin specs and bin assignments are derived once per
/// distinct `(dimension, bins)` pair.
///
/// The result is bit-identical for any `threads` value. Against
/// [`materialize_all`] it is exact on exactly-representable measure values
/// and agrees to ULP-level rounding otherwise (the partition merge
/// reassociates floating-point sums).
///
/// # Errors
///
/// Propagates the first materialization error encountered.
pub fn materialize_all_fused(
    table: &Table,
    dq: &RowSet,
    dr: &RowSet,
    space: &ViewSpace,
    threads: usize,
) -> Result<Vec<ViewData>, CoreError> {
    Ok(materialize_all_fused_with_stats(table, dq, dr, space, threads)?.0)
}

/// [`materialize_all_fused`] plus the executor's scan statistics, for
/// tracing and metrics.
///
/// # Errors
///
/// Propagates the first materialization error encountered.
pub fn materialize_all_fused_with_stats(
    table: &Table,
    dq: &RowSet,
    dr: &RowSet,
    space: &ViewSpace,
    threads: usize,
) -> Result<(Vec<ViewData>, FusedScanStats), CoreError> {
    let ids: Vec<usize> = (0..space.len()).collect();
    GroupPlan::build(table, space)?.materialize_views(table, dq, dr, &ids, threads)
}

/// One view's [`ViewData`] from its group's finalized result.
fn view_data(
    group: Option<&FusedGroupResult>,
    request: Option<&GroupRequest>,
    aggregate: AggregateFunction,
) -> Result<ViewData, CoreError> {
    let (Some(group), Some(request)) = (group, request) else {
        return Err(CoreError::Invalid(
            "view maps to a missing scan group".into(),
        ));
    };
    Ok(ViewData {
        target: Distribution::from_aggregates(group.target.aggregates(aggregate))?,
        reference: Distribution::from_aggregates(group.reference.aggregates(aggregate))?,
        target_rows: group.target.total_rows(),
        dispersion: group.target.dispersion,
        bins: request.spec.bin_count(),
    })
}

/// Reassembles every view's [`ViewData`] from the finalized results of a
/// pass over all of `views`' groups, in group order.
fn views_from_groups(
    views: &[(usize, AggregateFunction)],
    requests: &[GroupRequest],
    groups: &[FusedGroupResult],
) -> Result<Vec<ViewData>, CoreError> {
    views
        .iter()
        .map(|&(g, aggregate)| view_data(groups.get(g), requests.get(g), aggregate))
        .collect()
}

/// The fused scan's mergeable state, retained by sessions built through
/// [`materialize_all_fused_pruned`]: the request list and raw per-bin
/// accumulators of the full materialization pass. When the underlying
/// dataset grows, [`FusedRetained::absorb_append`] folds the appended rows
/// in by scanning **only the tail**, instead of rescanning the whole table.
#[derive(Debug)]
pub struct FusedRetained {
    requests: Vec<GroupRequest>,
    views: Vec<(usize, AggregateFunction)>,
    raw: RawAggregates,
}

/// Materializes every view of `space` with the fused executor, evaluating
/// the `DQ` predicate through the table's zone maps first: row groups the
/// zones provably exclude are skipped without reading a value (the counts
/// land in the returned stats' `rowgroups_scanned` / `rowgroups_pruned`).
/// The resulting views are identical to [`materialize_all_fused`] over
/// `predicate.evaluate(table)`.
///
/// Also returns the evaluated `DQ` row set and a [`FusedRetained`] handle
/// holding the scan's mergeable raw aggregates for later appends.
///
/// # Errors
///
/// Predicate-evaluation errors plus everything [`materialize_all_fused`]
/// reports.
pub fn materialize_all_fused_pruned(
    table: &Table,
    zones: &ZoneMaps,
    predicate: &Predicate,
    space: &ViewSpace,
    threads: usize,
) -> Result<(Vec<ViewData>, RowSet, FusedScanStats, FusedRetained), CoreError> {
    let plan = GroupPlan::build(table, space)?;
    let requests = plan.requests()?;
    let (raw, dq, stats) = fused_group_by_all_pruned(table, zones, predicate, &requests, threads)?;
    let views = views_from_groups(&plan.views, &requests, &raw.finalize())?;
    Ok((
        views,
        dq,
        stats,
        FusedRetained {
            requests,
            views: plan.views,
            raw,
        },
    ))
}

impl FusedRetained {
    /// Folds the rows `table[old_rows..]` — appended since the retained scan
    /// ran — into the aggregates, scanning only that tail, and returns the
    /// refreshed views, the tail's `DQ` rows (in `table` coordinates), and
    /// the tail scan's stats.
    ///
    /// The original bin layout is kept: equal-width bins were derived from
    /// the pre-append value range, so appended values outside it clamp into
    /// the edge bins (the distributions stay comparable across the append).
    /// An appended categorical value that is **not** in a dimension's
    /// original dictionary would need a new bin, which no merge can
    /// retrofit — that case returns `Ok(None)` and the caller must rebuild
    /// from scratch.
    ///
    /// # Errors
    ///
    /// Predicate/scan errors, and [`CoreError::Dataset`] when `table` no
    /// longer matches the retained request layout.
    pub fn absorb_append(
        &mut self,
        table: &Table,
        old_rows: usize,
        predicate: &Predicate,
        threads: usize,
    ) -> Result<Option<(Vec<ViewData>, RowSet, FusedScanStats)>, CoreError> {
        let new_rows = table.row_count();
        let tail_ids: Vec<u32> = (old_rows as u32..new_rows as u32).collect();
        let tail_rows = RowSet::from_sorted_ids(tail_ids)?;
        let tail = table.gather(&tail_rows)?;

        // A tail code beyond a categorical spec's label list is a brand-new
        // dictionary value: its bin does not exist in the retained layout.
        let mut checked: HashSet<&str> = HashSet::new();
        for req in &self.requests {
            if let BinSpec::Categorical { labels } = &req.spec {
                if checked.insert(req.dimension.as_str()) {
                    let col = tail.column_by_name(&req.dimension)?;
                    let has_new = col
                        .codes()
                        .is_some_and(|codes| codes.iter().any(|&c| c as usize >= labels.len()));
                    if has_new {
                        return Ok(None);
                    }
                }
            }
        }

        let tail_dq_local = predicate.evaluate(&tail)?;
        let tail_dr = tail.all_rows();
        let (tail_raw, stats) =
            fused_group_by_all_raw(&tail, &tail_dq_local, &tail_dr, &self.requests, threads)?;
        self.raw.merge(&tail_raw)?;
        let views = views_from_groups(&self.views, &self.requests, &self.raw.finalize())?;
        let global: Vec<u32> = tail_dq_local
            .ids()
            .iter()
            .map(|&r| r + old_rows as u32)
            .collect();
        let tail_dq = RowSet::from_sorted_ids(global)?;
        Ok(Some((views, tail_dq, stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewseeker_dataset::generate::{generate_diab, generate_syn, DiabConfig, SynConfig};
    use viewseeker_dataset::{Predicate, SelectQuery};

    #[test]
    fn target_and_reference_share_bins() {
        let t = generate_diab(&DiabConfig::small(2_000, 1)).unwrap();
        let dq = SelectQuery::new(Predicate::eq("a0", "a0_v0"))
            .execute(&t)
            .unwrap();
        let space = ViewSpace::enumerate(&t, &[3, 4]).unwrap();
        for id in space.ids().take(25) {
            let vd = materialize_view(&t, &dq, &t.all_rows(), space.def(id).unwrap()).unwrap();
            assert_eq!(vd.target.len(), vd.reference.len());
            assert_eq!(vd.target.len(), vd.bins);
        }
    }

    #[test]
    fn numeric_bins_use_full_table_range() {
        // DQ restricted to small d0 values must still produce a target
        // distribution over the full-range bins — with its mass on the low
        // bins rather than renormalized to its own range.
        let t = generate_syn(&SynConfig::small(5_000, 2)).unwrap();
        let dq = SelectQuery::new(Predicate::range("d0", 0.0, 20.0))
            .execute(&t)
            .unwrap();
        let def = ViewDef {
            dimension: "d0".into(),
            measure: "m0".into(),
            aggregate: viewseeker_dataset::AggregateFunction::Count,
            bins: Some(4),
        };
        let vd = materialize_view(&t, &dq, &t.all_rows(), &def).unwrap();
        // 4 bins over [0, 100): DQ (d0 < 20) lives entirely in bin 0.
        assert!(vd.target.mass(0) > 0.99);
        // The reference is roughly uniform.
        assert!((vd.reference.mass(0) - 0.25).abs() < 0.05);
    }

    #[test]
    fn empty_dq_degrades_to_uniform_target() {
        let t = generate_diab(&DiabConfig::small(500, 3)).unwrap();
        let def = ViewDef {
            dimension: "a1".into(),
            measure: "m0".into(),
            aggregate: viewseeker_dataset::AggregateFunction::Sum,
            bins: None,
        };
        let vd = materialize_view(&t, &RowSet::empty(), &t.all_rows(), &def).unwrap();
        assert_eq!(vd.target_rows, 0);
        let n = vd.target.len() as f64;
        assert!(vd
            .target
            .masses()
            .iter()
            .all(|m| (m - 1.0 / n).abs() < 1e-12));
    }

    /// `a` equals `b` up to the fused executor's float contract: counts and
    /// shapes exactly, sum-derived floats within ULP-level relative error
    /// (the hits + complement derivation of the reference aggregates
    /// reassociates float addition; see `dataset::executor`).
    fn assert_views_close(a: &[ViewData], b: &[ViewData], what: &str) {
        fn close(x: f64, y: f64) -> bool {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        assert_eq!(a.len(), b.len(), "{what}: view count");
        for (i, (va, vb)) in a.iter().zip(b).enumerate() {
            assert_eq!(va.target_rows, vb.target_rows, "{what}: view {i} rows");
            assert_eq!(va.bins, vb.bins, "{what}: view {i} bins");
            assert!(
                close(va.dispersion, vb.dispersion),
                "{what}: view {i} dispersion {} vs {}",
                va.dispersion,
                vb.dispersion
            );
            for (d, e) in [(&va.target, &vb.target), (&va.reference, &vb.reference)] {
                for (x, y) in d.masses().iter().zip(e.masses()) {
                    assert!(close(*x, *y), "{what}: view {i} mass {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fused_materialization_matches_naive() {
        let t = generate_diab(&DiabConfig::small(1_000, 8)).unwrap();
        let dq = SelectQuery::new(Predicate::eq("a1", "a1_v1"))
            .execute(&t)
            .unwrap();
        let space = ViewSpace::enumerate(&t, &[3, 4]).unwrap();
        let naive = materialize_all(&t, &dq, &t.all_rows(), &space).unwrap();
        for threads in [1, 4] {
            let fused = materialize_all_fused(&t, &dq, &t.all_rows(), &space, threads).unwrap();
            assert_views_close(&naive, &fused, &format!("threads={threads}"));
        }
    }

    #[test]
    fn fused_is_thread_invariant_on_large_float_data() {
        let t = generate_syn(&SynConfig::small(6_000, 21)).unwrap();
        let dq = SelectQuery::new(Predicate::range("d0", 0.0, 50.0))
            .execute(&t)
            .unwrap();
        let space = ViewSpace::enumerate(&t, &[3, 4]).unwrap();
        let one = materialize_all_fused(&t, &dq, &t.all_rows(), &space, 1).unwrap();
        for threads in [2, 8] {
            let many = materialize_all_fused(&t, &dq, &t.all_rows(), &space, threads).unwrap();
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn fused_stats_count_one_scan_for_the_whole_space() {
        let t = generate_diab(&DiabConfig::small(2_000, 5)).unwrap();
        let dq = SelectQuery::new(Predicate::eq("a0", "a0_v0"))
            .execute(&t)
            .unwrap();
        let space = ViewSpace::enumerate(&t, &[3, 4]).unwrap();
        let (views, stats) =
            materialize_all_fused_with_stats(&t, &dq, &t.all_rows(), &space, 2).unwrap();
        assert_eq!(views.len(), space.len());
        assert_eq!(stats.scans, 1, "DQ ⊆ DR: single fused pass");
        assert_eq!(stats.rows_scanned, 2_000);
        assert!(stats.groups < space.len(), "5 aggregates share one group");
        assert!(
            stats.bin_assignments < stats.groups,
            "measures share one assignment per (dimension, bins)"
        );
    }

    #[test]
    fn dispersion_is_nonnegative() {
        let t = generate_syn(&SynConfig::small(2_000, 5)).unwrap();
        let space = ViewSpace::enumerate(&t, &[3, 4]).unwrap();
        let dq = t.all_rows();
        for id in space.ids().take(20) {
            let vd = materialize_view(&t, &dq, &t.all_rows(), space.def(id).unwrap()).unwrap();
            assert!(vd.dispersion >= 0.0);
        }
    }

    #[test]
    fn unknown_column_propagates() {
        let t = generate_diab(&DiabConfig::small(100, 6)).unwrap();
        let def = ViewDef {
            dimension: "nope".into(),
            measure: "m0".into(),
            aggregate: viewseeker_dataset::AggregateFunction::Count,
            bins: None,
        };
        assert!(matches!(
            materialize_view(&t, &t.all_rows(), &t.all_rows(), &def),
            Err(CoreError::Dataset(_))
        ));
    }
}
