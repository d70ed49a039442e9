//! Terminal line plots for the figure harnesses.
//!
//! The paper's main results are *figures*; with no plotting stack in a
//! hermetic build environment, the harness binaries render their series
//! directly to the terminal. Braille-free, plain ASCII: one glyph per
//! series, columns binned over x, rows over y.

/// One named data series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Glyph used for this series' points.
    pub glyph: char,
    /// `(x, y)` points (any order).
    pub points: Vec<(f64, f64)>,
}

/// Render series into a `width` x `height` character plot with axes and a
/// legend. Y starts at zero (latency plots); x spans the data range.
pub fn render(
    series: &[Series],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    assert!(width >= 16 && height >= 4, "plot too small");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return "(no data)\n".to_string();
    }
    let x_min = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_max = all.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = y_max.max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = ((y / y_span) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row.min(height - 1);
            let c = col.min(width - 1);
            // Later series overwrite earlier ones on collisions; the
            // legend disambiguates.
            grid[r][c] = s.glyph;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{y_label}\n"));
    for (i, row) in grid.iter().enumerate() {
        let y_tick = y_span * (height - 1 - i) as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_tick:>8.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    // Pad between the tick labels from their *rendered* widths, so the
    // max tick lands under the right edge of the plot regardless of how
    // many digits the ticks take. Clamp to one space so the labels never
    // fuse when the plot is narrower than the two ticks.
    let lo = format!("{x_min:.0}");
    let hi = format!("{x_max:.0}");
    let pad = width.saturating_sub(lo.len() + hi.len()).max(1);
    out.push_str(&format!(
        "{:>8}  {lo}{}{hi}   ({x_label})\n",
        "",
        " ".repeat(pad),
    ));
    out.push_str("legend: ");
    for s in series {
        out.push_str(&format!("[{}] {}  ", s.glyph, s.label));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Vec<Series> {
        vec![
            Series {
                label: "linear".into(),
                glyph: '*',
                points: (0..10).map(|i| (i as f64, i as f64)).collect(),
            },
            Series {
                label: "flat".into(),
                glyph: 'o',
                points: (0..10).map(|i| (i as f64, 2.0)).collect(),
            },
        ]
    }

    #[test]
    fn renders_axes_glyphs_and_legend() {
        let s = render(&demo(), 40, 10, "queue", "us");
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("[*] linear"));
        assert!(s.contains("[o] flat"));
        assert!(s.contains("us"));
        assert!(s.contains("queue"));
    }

    #[test]
    fn monotone_series_descends_down_the_grid() {
        let s = render(&demo(), 40, 10, "x", "y");
        let lines: Vec<&str> = s.lines().collect();
        // The '*' in the top data row must be to the right of the '*' in
        // the bottom data row (y grows with x).
        let top_col = lines[1].find('*');
        let bottom = lines[10].find('*');
        assert!(top_col.unwrap() > bottom.unwrap());
    }

    #[test]
    fn empty_series_is_graceful() {
        assert_eq!(render(&[], 40, 10, "x", "y"), "(no data)\n");
    }

    #[test]
    #[should_panic(expected = "plot too small")]
    fn rejects_tiny_plots() {
        render(&demo(), 4, 2, "x", "y");
    }

    /// Regression: the x-axis line used a fixed `width - 16` pad, which
    /// mispositioned the max tick (and could fuse the two ticks) whenever
    /// the tick labels weren't exactly 16 characters combined.
    #[test]
    fn x_axis_ticks_align_to_plot_edges() {
        for (points, width) in [
            ((0..10).map(|i| (i as f64, 1.0)).collect::<Vec<_>>(), 40),
            // Wide x range: many-digit ticks used to overflow the pad.
            (vec![(0.0, 1.0), (1_000_000.0, 2.0)], 40),
            // Narrow plot: pad must clamp, not underflow to zero.
            (vec![(0.0, 1.0), (123_456_789.0, 2.0)], 16),
        ] {
            let series = [Series {
                label: "s".into(),
                glyph: '*',
                points,
            }];
            let s = render(&series, width, 6, "x", "y");
            let axis = s
                .lines()
                .find(|l| l.contains("(x)"))
                .expect("x-axis label line");
            let ticks = axis.trim_start().strip_suffix("   (x)").unwrap();
            let lo = ticks.split(' ').next().unwrap();
            let hi = ticks.rsplit(' ').next().unwrap();
            assert!(!lo.is_empty() && lo.chars().all(|c| c.is_ascii_digit()));
            assert!(!hi.is_empty() && hi.chars().all(|c| c.is_ascii_digit()));
            // Ticks span exactly the plot width when they fit, and are
            // always separated by at least one space.
            let expected = lo.len() + hi.len() + width.saturating_sub(lo.len() + hi.len()).max(1);
            assert_eq!(ticks.len(), expected, "{axis:?}");
        }
    }
}
