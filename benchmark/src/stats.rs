//! Order statistics, the percentile sample rule, bound evaluation and
//! name validation: the arithmetic every reported number goes through.

use std::time::Instant;

/// The benchmark's one wall-clock read. Measuring host time is this
/// package's job; the root `clippy.toml` bans the call for the
/// simulator's sake, so the exemption lives here and nowhere else.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads printed here
/// match the ones the driver computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks; like Python, the rank is
        // clamped to the sample and the remainder extrapolates.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `values`, or an error naming
/// the shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it:
/// p99 needs 1000 samples. A tail read off a handful of samples is a
/// maximum in disguise and does not repeat.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it, {n} samples leave {}",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(values)[rank - 1])
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `first` the value `second` is worse (negative when
/// it is better).
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Whether `second` is no worse than `first` by more than the bound: a
/// share `rel` of `first`, or `abs_floor` in the metric's own unit when
/// that is larger (small set-up times move by whole milliseconds).
/// One-sided, as a change is gated against its parent; `--twice` asks
/// it both ways.
pub fn within_bound(first: f64, second: f64, better: Better, rel: f64, abs_floor: f64) -> bool {
    let worse = worse_by(first, second, better) * first.abs();
    worse <= (rel * first.abs()).max(abs_floor)
}

/// A metric or workload name the contract accepts: starts with a letter
/// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
/// The names are constants, so a test is where they are checked.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// 64-bit FNV-1a of `bytes`, cut to 53 bits so the value survives a
/// trip through a JSON double exactly.
pub fn fnv53(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & ((1 << 53) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates on tiny samples, and so do we.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Ok(990.0));
        assert!(tail_percentile(&v[..999], 99.0).is_err());
        // Fewer samples still support a lower percentile.
        assert_eq!(tail_percentile(&v[..100], 90.0), Ok(90.0));
        assert!(tail_percentile(&v[..100], 95.0).is_err());
        assert!(tail_percentile(&[], 99.0).is_err());
    }

    #[test]
    fn bound_is_relative_with_an_absolute_floor() {
        use Better::*;
        assert!(within_bound(10.0, 10.4, Lower, 0.05, 0.0));
        assert!(!within_bound(10.0, 10.6, Lower, 0.05, 0.0));
        assert!(within_bound(10.0, 12.0, Higher, 0.05, 0.0)); // improved
        assert!(!within_bound(10.0, 9.4, Higher, 0.05, 0.0));
        // set-up: 15 ms -> 30 ms is +100 % but under the 20 ms floor.
        assert!(within_bound(0.015, 0.030, Lower, 0.25, 0.020));
        assert!(!within_bound(0.015, 0.036, Lower, 0.25, 0.020));
        // Above the floor's reach the relative bound decides.
        assert!(!within_bound(0.200, 0.260, Lower, 0.25, 0.020));
        assert!((worse_by(10.0, 9.0, Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn names_follow_the_contract() {
        for good in ["fig2_packet", "net.event.ns_per_op.lan", "p99-ms", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "has space",
            "slash/name",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv53_is_stable_and_fits_a_double() {
        assert_eq!(fnv53(b""), 0xcbf2_9ce4_8422_2325 & ((1 << 53) - 1));
        assert_ne!(fnv53(b"a"), fnv53(b"b"));
        let h = fnv53(b"speak-up");
        assert_eq!(h as f64 as u64, h);
    }
}
