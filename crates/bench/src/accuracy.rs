//! Accuracy metrics comparing analytical EPP against the Monte-Carlo
//! baseline (the `%Dif` column of Table 2).

/// Per-site pair of estimates: analytical vs Monte-Carlo `P_sensitized`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SitePair {
    /// Analytical (EPP) estimate.
    pub analytical: f64,
    /// Monte-Carlo estimate.
    pub monte_carlo: f64,
}

impl SitePair {
    /// Absolute difference between the two estimates.
    #[must_use]
    fn abs_diff(&self) -> f64 {
        (self.analytical - self.monte_carlo).abs()
    }
}

/// The `%Dif` reported by the harness: the **aggregate** relative
/// difference `100 · Σ|a_i − m_i| / Σ m_i` over the sampled sites.
///
/// This normalizes total error by total sensitization, so near-dead
/// sites (where a per-site ratio would explode on Monte-Carlo noise)
/// contribute proportionally to their magnitude — no dead-site floor
/// is needed (unlike a mean of per-site ratios, which does need one).
/// Zero total sensitization returns 0 when the analytical side agrees,
/// 100 otherwise.
#[must_use]
pub fn percent_difference(pairs: &[SitePair]) -> f64 {
    let total_diff: f64 = pairs.iter().map(SitePair::abs_diff).sum();
    let total_mc: f64 = pairs.iter().map(|p| p.monte_carlo).sum();
    if total_mc == 0.0 {
        if total_diff == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * total_diff / total_mc
    }
}

/// Mean *per-site* relative difference in percent, skipping sites both
/// methods call dead (< `floor`) and flooring the denominator — the
/// harsher, per-node companion of [`percent_difference`].
#[cfg(test)]
fn mean_relative_percent(pairs: &[SitePair], floor: f64) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for p in pairs {
        if p.analytical < floor && p.monte_carlo < floor {
            continue;
        }
        let denom = p.monte_carlo.max(floor);
        total += p.abs_diff() / denom;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        100.0 * total / counted as f64
    }
}

/// Mean absolute difference over all sampled sites (an unnormalized
/// companion to [`percent_difference`]).
#[must_use]
pub fn mean_abs_diff(pairs: &[SitePair]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().map(SitePair::abs_diff).sum::<f64>() / pairs.len() as f64
}

/// Largest absolute difference over the sampled sites.
#[must_use]
pub fn max_abs_diff(pairs: &[SitePair]) -> f64 {
    pairs.iter().map(SitePair::abs_diff).fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: f64, m: f64) -> SitePair {
        SitePair {
            analytical: a,
            monte_carlo: m,
        }
    }

    #[test]
    fn identical_estimates_zero_difference() {
        let pairs = vec![pair(0.5, 0.5), pair(0.9, 0.9)];
        assert_eq!(percent_difference(&pairs), 0.0);
        assert_eq!(mean_relative_percent(&pairs, 0.01), 0.0);
        assert_eq!(mean_abs_diff(&pairs), 0.0);
        assert_eq!(max_abs_diff(&pairs), 0.0);
    }

    #[test]
    fn aggregate_relative_difference() {
        // Σ|diff| = 0.05 + 0.05 = 0.1; Σ mc = 1.0 -> 10%.
        let pairs = vec![pair(0.55, 0.5), pair(0.45, 0.5)];
        assert!((percent_difference(&pairs) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_not_dominated_by_dead_nodes() {
        // A tiny absolute error on a near-dead node barely moves the
        // aggregate, unlike a per-site ratio.
        let pairs = vec![pair(0.011, 0.001), pair(0.5, 0.5)];
        let agg = percent_difference(&pairs);
        assert!(agg < 3.0, "aggregate {agg}");
        let harsh = mean_relative_percent(&pairs, 0.01);
        assert!(harsh > 40.0, "per-site {harsh}");
    }

    #[test]
    fn per_site_dead_sites_skipped() {
        let pairs = vec![pair(0.0, 0.0), pair(0.001, 0.002), pair(0.6, 0.5)];
        // Only the last site counts: 0.1/0.5 = 20%.
        assert!((mean_relative_percent(&pairs, 0.01) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sensitization_edge() {
        assert_eq!(percent_difference(&[pair(0.0, 0.0)]), 0.0);
        assert_eq!(percent_difference(&[pair(0.3, 0.0)]), 100.0);
    }

    #[test]
    fn empty_input() {
        assert_eq!(percent_difference(&[]), 0.0);
        assert_eq!(mean_relative_percent(&[], 0.01), 0.0);
        assert_eq!(mean_abs_diff(&[]), 0.0);
        assert_eq!(max_abs_diff(&[]), 0.0);
    }

    #[test]
    fn mean_and_max() {
        let pairs = vec![pair(0.5, 0.4), pair(0.2, 0.5)];
        assert!((mean_abs_diff(&pairs) - 0.2).abs() < 1e-12);
        assert!((max_abs_diff(&pairs) - 0.3).abs() < 1e-12);
    }
}
