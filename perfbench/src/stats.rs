//! Order statistics over measured samples.

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank `p`-quantile of `xs` (0 for no samples); sorts `xs`.
pub fn quantile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1] as f64
}

/// Median of `xs` (0 for no samples), averaging the middle pair.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
    }
}
