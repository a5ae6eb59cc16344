//! Order statistics the benchmark reports, and the name rule of
//! `BENCHMARK.json`.

/// Median of the samples (mean of the two middle ones for an even
/// count). Panics on an empty slice: every caller measured at least one
/// sample or it would not be reporting.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; `q = 0.5` on an even count
/// returns the interpolated [`median`] so p50 and "the median" agree.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if q == 0.5 {
        return median(samples);
    }
    let s = sorted(samples);
    assert!(!s.is_empty(), "quantile of no samples");
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail quantile reported under the `p95` names: the highest
/// quantile in `[0.50, 0.95]` that still has at least ten samples beyond
/// it. At n ≥ 200 this is p95; below 20 samples it collapses to the
/// median, so a handful of reps never reports its own maximum as a
/// "tail".
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.95)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the repeatability criterion is written in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// bounds in `BENCHMARK.json` are compared with.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A workload or metric name: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.5), 50.5);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // n = 600: p95 leaves 30 beyond, p99 would leave 6.
        assert_eq!(tail_quantile(600), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        // n = 100: the highest quantile with ten beyond is p90.
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        // A handful of reps has no tail: report the median.
        assert_eq!(tail_quantile(9), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        for n in [21usize, 50, 137, 600, 5000] {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn names() {
        for ok in [
            "dense8",
            "chaos-recover8",
            "trace.stall.wait-ack",
            "a_b",
            "8x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "-x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
