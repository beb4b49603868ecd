//! Statistics the benchmark reports: nearest-rank percentiles with the
//! ten-samples-beyond rule, medians, geomeans, the accuracy figure against
//! the paper, and the failed-operation tally.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of already sorted `xs` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// True when percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it, so a tail figure is not one or two outliers.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Sorts a copy of `xs` (NaN-free by construction of every caller).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// Geometric mean (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The seven geomeans the paper prints under Fig. 7(a), with the column of
/// the fig7a grid each one is compared against (the HA columns have no
/// number in the paper, only "~1.00").
pub const PAPER_FIG7A: [(&str, usize, f64); 7] = [
    ("PMC.4u", 0, 1.025),
    ("SS.4u", 2, 1.021),
    ("SS.sw", 4, 1.079),
    ("SAN.4u", 5, 1.39),
    ("SAN.arm", 6, 2.635),
    ("SAN.x86", 7, 1.915),
    ("UaF.4u", 8, 1.42),
];

/// Mean |simulated geomean ÷ paper geomean − 1| over [`PAPER_FIG7A`];
/// `geomeans` holds one geomean per fig7a column.
pub fn paper_err(geomeans: &[f64]) -> f64 {
    PAPER_FIG7A
        .iter()
        .map(|&(_, col, paper)| (geomeans[col] / paper - 1.0).abs())
        .sum::<f64>()
        / PAPER_FIG7A.len() as f64
}

/// Operations attempted and failed. An operation fails when it returns an
/// error, is refused (BUSY), or its output does not match the oracle; a
/// failure is counted, never fatal, so one bad operation cannot hide the
/// rest of the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether its checks passed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert!(!tail_is_supported(99, 90.0));
        assert_eq!(beyond(99, 90.0), 9);
        assert!(tail_is_supported(100, 90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert!(tail_is_supported(20, 50.0));
        assert!(!tail_is_supported(0, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn paper_err_matches_a_hand_computed_example() {
        // Every column on the paper's number except SAN.4u at 1.956:
        // |1.956 / 1.39 - 1| / 7 = 0.407194244... / 7 = 0.0581706063...
        let mut geos = vec![1.0; 10];
        for &(_, col, paper) in &PAPER_FIG7A {
            geos[col] = paper;
        }
        geos[5] = 1.956;
        assert!((paper_err(&geos) - 0.058_170_606_3).abs() < 1e-9);
        geos[5] = 1.39;
        assert_eq!(paper_err(&geos), 0.0);
    }

    #[test]
    fn failed_ratio_counts_mismatches_and_refusals() {
        let mut t = Tally::default();
        t.check(true);
        t.check(true);
        t.check(false); // an injected oracle mismatch
        t.check(false); // a BUSY refusal
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_ratio(), 0.5);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
