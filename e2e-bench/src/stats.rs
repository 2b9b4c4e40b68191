//! The benchmark's own statistics and seeded randomness.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so the steadiness report
/// reads the same numbers the acceptance rule computes.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised j, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than ten
/// samples lie beyond it: a tail percentile over fewer is no tail.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// The median, over consecutive windows of `window` samples taken in time
/// order, of `stat` on each window; `None` when there is no whole window
/// or `stat` gives `None` on one. A slow spell of the host that covers a
/// few windows then moves the figure no more than any other outlier.
///
/// # Panics
/// Panics when `values.len()` is not a multiple of `window`: every sample
/// must fall in a window.
pub fn windowed(
    values: &[f64],
    window: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    assert!(
        window > 0 && values.len().is_multiple_of(window),
        "{} samples do not make whole windows of {window}",
        values.len()
    );
    let per: Vec<f64> = values.chunks(window).map(stat).collect::<Option<_>>()?;
    (!per.is_empty()).then(|| median(&per))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: every random choice of a run derives from its `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x05EE_DBE4_C0DD_BA11)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn spread_is_interquartile_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 90.0),
            None,
            "99 samples: only 9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&v, 50.0), Some(50.0));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 50.0), None);
    }

    #[test]
    fn windowed_takes_the_median_of_per_window_figures() {
        // Three windows of 100; the middle one is a slow spell.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend((1..=100).map(|x| 10.0 * f64::from(x)));
        v.extend((1..=100).map(|x| f64::from(x) + 1.0));
        let p90 = |w: &[f64]| tail_percentile(w, 90.0);
        assert_eq!(windowed(&v, 100, p90), Some(91.0));
        assert_eq!(
            tail_percentile(&v, 90.0),
            Some(700.0),
            "one spell sets the pooled p90"
        );
        assert_eq!(windowed(&v, 100, |w| Some(median(w))), Some(51.5));
        // A window too small for its tail gives no figure.
        assert_eq!(windowed(&v, 50, p90), None);
        assert_eq!(windowed(&[], 10, p90), None);
    }

    #[test]
    #[should_panic(expected = "whole windows")]
    fn windowed_refuses_a_partial_window() {
        windowed(&[1.0, 2.0, 3.0], 2, |w| Some(median(w)));
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let s = Rng::new(3).sample(48, 8);
        assert_eq!(s.len(), 8);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8, "sampled indices are distinct");
        assert!(s.iter().all(|&i| i < 48));
    }
}
