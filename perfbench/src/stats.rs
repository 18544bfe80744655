//! Order statistics for repeated measurements: median, quartiles (the same
//! "exclusive" method as Python's `statistics.quantiles(data, n=4)`), the
//! quartile spread, and the tail-percentile rule.

/// `values` sorted ascending (NaN-free input assumed: every value here is
/// a measured duration, count or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The distance between the quartiles as a share of the median (`0` for
/// fewer than two samples or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail figure: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
}

/// The tail-percentile rule: the highest percentile on the ladder that has
/// at least ten samples beyond it, or `None` when even the median lacks
/// them (fewer than twenty samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&percentile| {
        // Nearest rank: the value at 1-based rank ceil(p/100 * n).
        let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile,
            value: sorted[rank - 1],
        })
    })
}

/// One human-readable summary line for a metric's samples.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let Some(m) = median(values) else {
        return format!("{name}: no samples");
    };
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    let tail = match tail(values) {
        Some(t) => format!("p{} {:.6} {unit}", t.percentile, t.value),
        None => format!(
            "no tail percentile (needs >= {} samples)",
            2 * TAIL_MIN_BEYOND
        ),
    };
    format!(
        "{name}: median {m:.6} {unit}, quartiles {q1:.6}..{q3:.6} (spread {:.2}%), {tail}, n={}",
        spread(values) * 100.0,
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        let spread = spread(&values);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 19 samples: even the median has only 9 beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: the median qualifies (rank 10, 10 beyond), p75 not.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&twenty),
            Some(Tail {
                percentile: 50.0,
                value: 10.0
            })
        );
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 1000 samples: p99 has 10 beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).unwrap().percentile, 99.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut values: Vec<f64> = (1..=40).map(f64::from).collect();
        values.reverse();
        let t = tail(&values).unwrap();
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
    }
}
