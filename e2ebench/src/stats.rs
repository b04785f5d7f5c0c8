//! Order statistics for latency samples.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail: the highest percentile with at least ten samples beyond it,
/// i.e. the eleventh-largest sample, returned as `(value, percentile,
/// sample count)`. Below eleven samples no percentile has ten beyond it,
/// and the maximum stands in (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 11 {
        return (v[n - 1], 100.0, n);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(n, 40);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
