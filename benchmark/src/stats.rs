//! Order statistics and checksums shared by the run, the ladder and
//! `agree`.

/// Median of `values` (mean of the two middle elements when the count is
/// even); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank `q`-percentile of unsorted nanosecond samples: the
/// `ceil(q * n)`-th smallest (the telemetry crate's definition, reused so
/// the benchmark and the program's own summaries cannot drift apart).
pub fn percentile_ns(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    neo_telemetry::stats::percentile_ns(&sorted, q)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-percentile. A tail percentile is only reported as meaningful when
/// at least [`MIN_BEYOND`] samples do.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The "at least ten samples beyond it" rule for tail percentiles.
pub const MIN_BEYOND: usize = 10;

/// `(max - min) / median` of a metric's repeats — the spread `agree`
/// holds against the bound before it calls two sets comparable.
pub fn rel_spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / med.abs()
}

/// FNV-1a over the bit patterns of a loss curve: two runs trained the
/// same model on the same data iff their checksums match.
pub fn loss_checksum(losses: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in losses {
        for byte in l.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Mean of a loss slice in f64 (0 when empty).
pub fn mean_loss(losses: &[f32]) -> f64 {
    if losses.is_empty() {
        return 0.0;
    }
    losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&v, 0.50), 50);
        assert_eq!(percentile_ns(&v, 0.95), 95);
        assert_eq!(percentile_ns(&v, 1.0), 100);
        assert_eq!(percentile_ns(&v, 0.0), 1);
        // nearest rank never interpolates: 4 samples, p50 is the 2nd
        assert_eq!(percentile_ns(&[40, 10, 30, 20], 0.5), 20);
        assert_eq!(percentile_ns(&[], 0.5), 0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p95 of 200 samples is the 190th: exactly ten lie beyond it
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(samples_beyond(200, 0.95) >= MIN_BEYOND);
        assert!(samples_beyond(199, 0.95) < MIN_BEYOND);
        // the shortest full run measures 180 steps per round, 3 rounds
        assert!(samples_beyond(3 * 179, 0.95) >= MIN_BEYOND);
        // p99 needs 1000 samples
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((rel_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(rel_spread(&[]), 0.0);
    }

    #[test]
    fn checksum_sees_one_bit() {
        let a = [0.5f32, 0.25, 0.125];
        let mut b = a;
        assert_eq!(loss_checksum(&a), loss_checksum(&b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(loss_checksum(&a), loss_checksum(&b));
        // -0.0 and 0.0 compare equal as floats but are different bits
        assert_ne!(loss_checksum(&[0.0]), loss_checksum(&[-0.0]));
    }
}
