//! The simulated ideal utility functions of Table 2.
//!
//! "We evaluated the effectiveness and efficiency using 11 diverse ideal
//! utility functions u*() that included 3 single component utility functions
//! and 8 multi-component, composite utility functions. We chose the
//! components in multi-component u*() carefully such that they represent
//! different characteristics of the view."

use viewseeker_core::{CompositeUtility, UtilityFeature};

/// The experiment grouping of Table 2 / Figures 3–4: how many utility
/// components an ideal function combines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdealGroup {
    /// Functions 1–3: a single component.
    Single,
    /// Functions 4–6: two components.
    Two,
    /// Functions 7–11: three components.
    Three,
}

impl IdealGroup {
    /// All groups in figure order (subfigures a, b, c).
    #[must_use]
    pub fn all() -> [IdealGroup; 3] {
        [IdealGroup::Single, IdealGroup::Two, IdealGroup::Three]
    }
}

impl std::fmt::Display for IdealGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IdealGroup::Single => "single-component",
            IdealGroup::Two => "two-component",
            IdealGroup::Three => "three-component",
        };
        f.write_str(s)
    }
}

/// One numbered ideal utility function from Table 2.
#[derive(Debug, Clone)]
pub struct IdealFunction {
    /// 1-based row number in Table 2.
    pub number: usize,
    /// The experiment group it belongs to.
    pub group: IdealGroup,
    /// The utility function itself.
    pub utility: CompositeUtility,
}

/// All 11 ideal utility functions, exactly as listed in Table 2.
///
/// # Panics
///
/// Never — the weight lists are statically valid.
#[must_use]
pub fn ideal_functions() -> Vec<IdealFunction> {
    use UtilityFeature::{Accuracy, Emd, Kl, MaxDiff, PValue, Usability, L2};
    let defs: [(IdealGroup, Vec<(UtilityFeature, f64)>); 11] = [
        (IdealGroup::Single, vec![(Kl, 1.0)]),
        (IdealGroup::Single, vec![(Emd, 1.0)]),
        (IdealGroup::Single, vec![(MaxDiff, 1.0)]),
        (IdealGroup::Two, vec![(Emd, 0.5), (Kl, 0.5)]),
        (IdealGroup::Two, vec![(Emd, 0.5), (L2, 0.5)]),
        (IdealGroup::Two, vec![(Emd, 0.5), (PValue, 0.5)]),
        (
            IdealGroup::Three,
            vec![(Emd, 0.3), (Kl, 0.3), (MaxDiff, 0.4)],
        ),
        (
            IdealGroup::Three,
            vec![(Emd, 0.3), (L2, 0.3), (MaxDiff, 0.4)],
        ),
        (
            IdealGroup::Three,
            vec![(Emd, 0.3), (PValue, 0.3), (MaxDiff, 0.4)],
        ),
        (
            IdealGroup::Three,
            vec![(Emd, 0.3), (Kl, 0.3), (Usability, 0.4)],
        ),
        (
            IdealGroup::Three,
            vec![(Emd, 0.3), (Kl, 0.3), (Accuracy, 0.4)],
        ),
    ];
    defs.into_iter()
        .enumerate()
        .map(|(i, (group, terms))| IdealFunction {
            number: i + 1,
            group,
            utility: CompositeUtility::new(&terms).expect("Table 2 entries are valid"),
        })
        .collect()
}

/// The ideal functions belonging to one group.
#[must_use]
pub fn functions_in_group(group: IdealGroup) -> Vec<IdealFunction> {
    ideal_functions()
        .into_iter()
        .filter(|f| f.group == group)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_eleven() {
        let fns = ideal_functions();
        assert_eq!(fns.len(), 11);
        for (i, f) in fns.iter().enumerate() {
            assert_eq!(f.number, i + 1);
        }
    }

    #[test]
    fn groups_match_table_2() {
        assert_eq!(functions_in_group(IdealGroup::Single).len(), 3);
        assert_eq!(functions_in_group(IdealGroup::Two).len(), 2 + 1);
        assert_eq!(functions_in_group(IdealGroup::Three).len(), 5);
        let fns = ideal_functions();
        assert_eq!(
            fns.iter()
                .map(|f| f.utility.component_count())
                .collect::<Vec<_>>(),
            vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3]
        );
    }

    #[test]
    fn function_11_is_the_experiment_2_target() {
        // u*() = 0.3·EMD + 0.3·KL + 0.4·Accuracy
        let f11 = &ideal_functions()[10];
        let w = f11.utility.weights();
        assert!((w[UtilityFeature::Emd.column()] - 0.3).abs() < 1e-12);
        assert!((w[UtilityFeature::Kl.column()] - 0.3).abs() < 1e-12);
        assert!((w[UtilityFeature::Accuracy.column()] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_to_one() {
        for f in ideal_functions() {
            let sum: f64 = f.utility.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "fn {} sums to {sum}", f.number);
        }
    }

    #[test]
    fn every_composite_includes_emd() {
        // Table 2 builds every multi-component function around EMD.
        for f in ideal_functions().iter().skip(3) {
            assert!(f.utility.weights()[UtilityFeature::Emd.column()] > 0.0);
        }
    }
}
