//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`).
///
/// Refuses a percentile that does not leave ten samples beyond it — the
/// rule that makes `p95` need `n ≥ 200`.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; 10 are required"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n as f64 * p / 100.0).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The distance between the quartiles as a share of the median — the spread
/// the bounds are compared with.  With fewer than two values, or a zero
/// median, the spread is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_refuses_fewer_than_200_samples() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&samples, 95.0).is_err());
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Ok(190.0));
        assert_eq!(percentile(&samples, 50.0), Ok(100.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(spread(&values), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
