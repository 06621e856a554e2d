//! Order statistics over timing samples.

/// Sort in place and return the value at quantile `q` (nearest rank on
/// `(len-1)·q`). Panics on an empty sample: every caller sizes its run
/// so that cannot happen, and a silent 0 would read as a measurement.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// The median: the middle value, or the mean of the two middle values
/// of an even count. Sorts in place; panics on an empty sample like
/// [`quantile`].
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

/// Median of `samples`, or 0 when the layer produced none (a per-layer
/// metric whose layer is off the workload's path).
pub fn median_or_zero(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// First and third quartile by the exclusive method, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them — the driver's
/// definition of a metric's spread.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let at = |k: usize| {
        // CPython: j = k·(n+1) div 4 clamped to 1..n-1, and the rest of
        // the position, in quarters, weights the two neighbours.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn median_is_the_middle_and_p90_nearest_rank() {
        let mut v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
