//! CSV export of figure series: rate curves, histograms, progress
//! curves — the machine-readable counterpart of the ASCII panels.

use pio_core::hist::Histogram;
use pio_core::rates::RateCurve;
use pio_des::hist::LogHistogram;
use std::io::Write;

/// Write a rate curve as `t_s,mb_per_s` rows.
pub fn rate_curve_csv<W: Write>(curve: &RateCurve, mut w: W) -> std::io::Result<()> {
    writeln!(w, "t_s,mb_per_s")?;
    for &(t, r) in &curve.points {
        writeln!(w, "{t:.6},{r:.6}")?;
    }
    Ok(())
}

/// Write a linear histogram as `bin_center_s,count` rows.
pub fn histogram_csv<W: Write>(hist: &Histogram, mut w: W) -> std::io::Result<()> {
    writeln!(w, "bin_center_s,count")?;
    for i in 0..hist.bins() {
        writeln!(w, "{:.9},{}", hist.bin_center(i), hist.count(i))?;
    }
    Ok(())
}

/// Write a log histogram as `bin_center,count` rows (nonzero bins only,
/// matching the paper's log-log scatter).
pub fn log_histogram_csv<W: Write>(hist: &LogHistogram, mut w: W) -> std::io::Result<()> {
    writeln!(w, "bin_center,count")?;
    for (c, n) in hist.series() {
        writeln!(w, "{c:.9},{n}")?;
    }
    Ok(())
}

/// Write `(x, y)` series with a custom header.
pub fn xy_csv<W: Write>(header: &str, series: &[(f64, f64)], mut w: W) -> std::io::Result<()> {
    writeln!(w, "{header}")?;
    for &(x, y) in series {
        writeln!(w, "{x:.9},{y:.9}")?;
    }
    Ok(())
}

/// Save any of the above to a file path, creating parent directories.
/// The buffered tail is flushed before returning, so an error writing it
/// (a full disk) is reported, not lost when the writer drops.
pub fn save<F: FnOnce(&mut dyn Write) -> std::io::Result<()>>(
    path: &std::path::Path,
    writer: F,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writer(&mut f)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_curve_round_trip_shape() {
        let c = RateCurve {
            dt: 0.5,
            points: vec![(0.0, 10.0), (0.5, 20.0)],
        };
        let mut buf = Vec::new();
        rate_curve_csv(&c, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("t_s,mb_per_s"));
        assert!(text.contains("0.500000,20.000000"));
    }

    #[test]
    fn histogram_csv_has_all_bins() {
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0], 6);
        let mut buf = Vec::new();
        histogram_csv(&h, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 7);
    }

    #[test]
    fn log_histogram_csv_skips_empty_bins() {
        let h = LogHistogram::from_samples(&[0.1, 100.0], 40);
        let mut buf = Vec::new();
        log_histogram_csv(&h, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }

    #[test]
    fn xy_csv_and_save() {
        let dir = std::env::temp_dir().join("pio_viz_csv_test");
        let path = dir.join("series.csv");
        save(&path, |w| {
            xy_csv("k,rate", &[(1.0, 11610.0), (8.0, 13486.0)], w)
        })
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("k,rate"));
        assert_eq!(text.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `/dev/full` accepts the open and fails every write, so the error
    /// surfaces only when the buffered rows are flushed.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_reports_an_error_flushing_the_buffered_tail() {
        let err = save(std::path::Path::new("/dev/full"), |w| {
            xy_csv("k,rate", &[(1.0, 11610.0)], w)
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{err}");
    }
}
