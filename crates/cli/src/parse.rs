//! Utility expressions for the CLI: weighted sums over the 8 features.
//!
//! ```text
//! EMD
//! 0.5*EMD + 0.5*KL
//! 0.3*EMD + 0.3*KL + 0.4*Accuracy
//! ```

use viewseeker_core::{CompositeUtility, UtilityFeature};

/// Parses a feature name, case-insensitively, accepting the paper's spellings.
///
/// # Errors
///
/// Returns a message listing valid names for unknown input.
pub fn parse_feature(name: &str) -> Result<UtilityFeature, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "kl" | "kl-divergence" | "kld" => Ok(UtilityFeature::Kl),
        "emd" => Ok(UtilityFeature::Emd),
        "l1" => Ok(UtilityFeature::L1),
        "l2" => Ok(UtilityFeature::L2),
        "max_diff" | "maxdiff" | "max-diff" | "linf" => Ok(UtilityFeature::MaxDiff),
        "usability" => Ok(UtilityFeature::Usability),
        "accuracy" => Ok(UtilityFeature::Accuracy),
        "p-value" | "pvalue" | "p_value" => Ok(UtilityFeature::PValue),
        other => Err(format!(
            "unknown utility feature {other:?} (expected one of: KL, EMD, L1, L2, MAX_DIFF, Usability, Accuracy, p-value)"
        )),
    }
}

/// Parses a utility expression like `0.5*EMD + 0.5*KL` into a
/// [`CompositeUtility`]. A bare feature name means weight 1.
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse_utility(input: &str) -> Result<CompositeUtility, String> {
    let mut terms = Vec::new();
    for raw in input.split('+') {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err("empty term in utility expression".into());
        }
        let (weight, feature) = match raw.split_once('*') {
            Some((w, f)) => (
                w.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad weight in term {raw:?}"))?,
                f,
            ),
            None => (1.0, raw),
        };
        terms.push((parse_feature(feature)?, weight));
    }
    CompositeUtility::new(&terms).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_feature_names() {
        assert_eq!(parse_feature("EMD").unwrap(), UtilityFeature::Emd);
        assert_eq!(parse_feature("kl").unwrap(), UtilityFeature::Kl);
        assert_eq!(parse_feature("MAX_DIFF").unwrap(), UtilityFeature::MaxDiff);
        assert_eq!(parse_feature("p-value").unwrap(), UtilityFeature::PValue);
        assert!(parse_feature("bogus").is_err());
    }

    #[test]
    fn parses_utility_expressions() {
        let u = parse_utility("0.5*EMD + 0.5*KL").unwrap();
        assert_eq!(u.component_count(), 2);
        let single = parse_utility("Accuracy").unwrap();
        assert_eq!(single.component_count(), 1);
        assert!(parse_utility("0.5*EMD + ").is_err());
        assert!(parse_utility("x*EMD").is_err());
        assert!(
            parse_utility("0.5*EMD + 0.5*EMD").is_err(),
            "repeat rejected"
        );
    }
}
