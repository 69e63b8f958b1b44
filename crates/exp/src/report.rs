//! Plain-text report formatting: aligned tables and the paper's ideal
//! lines, so the `speakup` driver prints rows directly comparable to the
//! published plots.

use crate::runner::RunReport;

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
    }
    out
}

/// A point estimate with an optional 95% confidence half-width (absent
/// for single-replicate runs).
#[derive(Clone, Copy, Debug)]
pub struct Est {
    /// Mean across replicates.
    pub mean: f64,
    /// 95% CI half-width (Student's t), when at least two replicates.
    pub ci95: Option<f64>,
}

/// Two-sided 97.5% Student-t quantiles for df = 1..=30; 1.96 beyond.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

impl Est {
    /// Mean ± 95% CI of a replicate sample (CI absent when n < 2).
    pub fn from_values(vs: &[f64]) -> Est {
        let n = vs.len();
        if n == 0 {
            return Est {
                mean: 0.0,
                ci95: None,
            };
        }
        let mean = vs.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Est { mean, ci95: None };
        }
        let var = vs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
        let t = T95.get(n - 2).copied().unwrap_or(1.96);
        Est {
            mean,
            ci95: Some(t * (var / n as f64).sqrt()),
        }
    }
}

/// All seed replicates of one grid point, base seed first.
#[derive(Clone, Copy)]
pub struct Reps<'a>(pub &'a [RunReport]);

impl<'a> Reps<'a> {
    /// The base-seed replicate.
    pub fn base(&self) -> &'a RunReport {
        &self.0[0]
    }

    /// Number of replicates.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Mean ± 95% CI of a per-run metric across the replicates.
    pub fn est(&self, f: impl Fn(&RunReport) -> f64) -> Est {
        let vs: Vec<f64> = self.0.iter().map(f).collect();
        Est::from_values(&vs)
    }
}

/// Format a fraction as `0.xxx`.
pub fn frac(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a fraction estimate: `0.xxx` or `0.xxx±0.yyy`.
pub fn frac_est(e: Est) -> String {
    match e.ci95 {
        None => frac(e.mean),
        Some(ci) => format!("{:.3}±{ci:.3}", e.mean),
    }
}

/// Format a seconds estimate: `x.xxxs` or `x.xxxs±y.yyy`.
pub fn secs_est(e: Est) -> String {
    match e.ci95 {
        None => secs(e.mean),
        Some(ci) => format!("{:.3}s±{ci:.3}", e.mean),
    }
}

/// Format a kilobyte estimate: `x.xKB` or `x.xKB±y.y`.
pub fn kbytes_est(e: Est) -> String {
    match e.ci95 {
        None => kbytes(e.mean),
        Some(ci) => format!("{}±{:.1}", kbytes(e.mean), ci / 1000.0),
    }
}

/// Format a count estimate: `n` or `n±m`.
pub fn count_est(e: Est) -> String {
    match e.ci95 {
        None => format!("{:.0}", e.mean),
        Some(ci) => format!("{:.0}±{ci:.0}", e.mean),
    }
}

/// Format seconds with millisecond precision.
pub fn secs(v: f64) -> String {
    format!("{v:.3}s")
}

/// Format a byte count in KB with one decimal.
pub fn kbytes(v: f64) -> String {
    format!("{:.1}KB", v / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["f", "with", "without"],
            &[
                vec!["0.1".into(), "0.093".into(), "0.011".into()],
                vec!["0.5".into(), "0.489".into(), "0.091".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("without"));
        assert!(lines[1].starts_with('-'));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(frac(0.5), "0.500");
        assert_eq!(secs(1.25), "1.250s");
        assert_eq!(kbytes(125_000.0), "125.0KB");
    }

    #[test]
    fn single_replicate_estimates_format_like_plain_values() {
        let e = Est::from_values(&[0.5]);
        assert_eq!(frac_est(e), "0.500");
        assert_eq!(secs_est(e), "0.500s");
        assert!(e.ci95.is_none());
        assert_eq!(Est::from_values(&[]).mean, 0.0);
    }

    #[test]
    fn multi_replicate_estimates_carry_a_t_interval() {
        // n=3, sd=1: half-width = t(df=2) * 1/sqrt(3).
        let e = Est::from_values(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
        let ci = e.ci95.expect("ci for n=3");
        assert!((ci - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(frac_est(e), format!("2.000±{ci:.3}"));
        assert_eq!(count_est(e), format!("2±{ci:.0}"));
    }
}
