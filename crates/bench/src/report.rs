//! CSV output and terminal plotting for experiment binaries.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Quotes a cell per RFC 4180 when (and only when) it contains a comma,
/// a double quote, or a CR/LF; internal quotes are doubled. Plain cells
/// pass through untouched, so numeric output stays byte-stable.
fn escape_cell(cell: &str) -> String {
    if cell.contains(['"', ',', '\r', '\n']) {
        let mut quoted = String::with_capacity(cell.len() + 2);
        quoted.push('"');
        for ch in cell.chars() {
            if ch == '"' {
                quoted.push('"');
            }
            quoted.push(ch);
        }
        quoted.push('"');
        quoted
    } else {
        cell.to_owned()
    }
}

/// A simple CSV writer: header once, then rows of `Display`able cells.
/// Cells that contain a delimiter, quote, or line break are quoted per
/// RFC 4180; everything else is written verbatim.
#[derive(Debug)]
pub struct Csv {
    out: BufWriter<File>,
}

impl Csv {
    /// Creates (truncates) the file and writes the header row.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn create(path: &Path, header: &[&str]) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        let rendered: Vec<String> = header.iter().map(|h| escape_cell(h)).collect();
        writeln!(out, "{}", rendered.join(","))?;
        Ok(Csv { out })
    }

    /// Writes one row.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn row<D: Display>(&mut self, cells: &[D]) -> std::io::Result<()> {
        let rendered: Vec<String> = cells.iter().map(|c| escape_cell(&c.to_string())).collect();
        writeln!(self.out, "{}", rendered.join(","))
    }

    /// Flushes buffered rows.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the flush.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Writes per-job sweep performance metadata (wall-clock, table-cache
/// traffic) to its own CSV, **separate** from the experiment's result CSV:
/// timings and cache attribution vary with worker interleaving, while the
/// result CSV must stay byte-identical across `--jobs` settings. A final
/// `TOTAL` row carries the aggregate wall-clock, cpu time, and cache
/// counters.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_sweep_stats(path: &Path, report: &crate::sweep::SweepReport) -> std::io::Result<()> {
    let mut csv = Csv::create(
        path,
        &[
            "job",
            "label",
            "protocol",
            "seed",
            "wall_ms",
            "cache_hits",
            "cache_misses",
        ],
    )?;
    for o in &report.outcomes {
        csv.row(&[
            o.index.to_string(),
            o.label.clone(),
            o.protocol.clone(),
            o.seed.to_string(),
            format!("{:.3}", o.wall.as_secs_f64() * 1e3),
            o.cache.hits.to_string(),
            o.cache.misses.to_string(),
        ])?;
    }
    let totals = report.cache_totals();
    csv.row(&[
        "TOTAL".to_owned(),
        format!("workers={}", report.workers),
        format!("cpu_ms={:.3}", report.cpu_time().as_secs_f64() * 1e3),
        String::new(),
        format!("{:.3}", report.wall_clock.as_secs_f64() * 1e3),
        totals.hits.to_string(),
        totals.misses.to_string(),
    ])?;
    csv.finish()
}

/// Like [`write_sweep_stats`] but for a generic [`crate::sweep::IndexedReport`]
/// (experiments whose jobs return something other than a `RunSummary`);
/// `labels[i]` names job `i`.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_indexed_stats<T>(
    path: &Path,
    labels: &[String],
    report: &crate::sweep::IndexedReport<T>,
) -> std::io::Result<()> {
    let mut csv = Csv::create(
        path,
        &[
            "job",
            "label",
            "seed",
            "wall_ms",
            "cache_hits",
            "cache_misses",
        ],
    )?;
    for o in &report.outcomes {
        csv.row(&[
            o.index.to_string(),
            labels.get(o.index).cloned().unwrap_or_default(),
            o.seed.to_string(),
            format!("{:.3}", o.wall.as_secs_f64() * 1e3),
            o.cache.hits.to_string(),
            o.cache.misses.to_string(),
        ])?;
    }
    let totals = report.cache_totals();
    csv.row(&[
        "TOTAL".to_owned(),
        format!("workers={}", report.workers),
        format!("cpu_ms={:.3}", report.cpu_time().as_secs_f64() * 1e3),
        format!("{:.3}", report.wall_clock.as_secs_f64() * 1e3),
        totals.hits.to_string(),
        totals.misses.to_string(),
    ])?;
    csv.finish()
}

/// One named series for [`ascii_chart`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label; its first character is the plot glyph.
    pub label: String,
    /// `(x, y)` points, assumed sorted by `x`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from anything convertible to `f64` pairs.
    pub fn new(label: &str, points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Series {
            label: label.to_owned(),
            points: points.into_iter().collect(),
        }
    }
}

/// Renders series as a fixed-size ASCII chart — enough to eyeball the
/// *shape* of a figure (concavity, crossovers, who dominates) in a
/// terminal; exact values go to CSV.
pub fn ascii_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.clone()).collect();
    if all.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let (x_min, x_max) = min_max(all.iter().map(|p| p.0));
    let (y_min, y_max) = min_max(all.iter().map(|p| p.1));
    let x_span = (x_max - x_min).max(f64::EPSILON);
    let y_span = (y_max - y_min).max(f64::EPSILON);
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        let glyph = s.label.chars().next().unwrap_or('*');
        for &(x, y) in &s.points {
            let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row;
            if grid[row][col] == ' ' || grid[row][col] == glyph {
                grid[row][col] = glyph;
            } else {
                grid[row][col] = '#'; // overlap
            }
        }
    }
    for (i, line) in grid.iter().enumerate() {
        let y_label = if i == 0 {
            format!("{y_max:>10.1} ")
        } else if i == height - 1 {
            format!("{y_min:>10.1} ")
        } else {
            " ".repeat(11)
        };
        out.push_str(&y_label);
        out.push('|');
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(11));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}x: {:.1} … {:.1}    legend: {}\n",
        " ".repeat(11),
        x_min,
        x_max,
        series
            .iter()
            .map(|s| format!("{}={}", s.label.chars().next().unwrap_or('*'), s.label))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_header_and_rows() {
        let dir = std::env::temp_dir().join("ddcr_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let mut csv = Csv::create(&path, &["k", "xi"]).unwrap();
        csv.row(&[2, 11]).unwrap();
        csv.row(&[4, 19]).unwrap();
        csv.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "k,xi\n2,11\n4,19\n");
    }

    /// Minimal RFC-4180 reader used only to check `Csv` round-trips:
    /// splits records honouring quoted cells (doubled quotes, embedded
    /// commas and newlines).
    fn parse_csv(input: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut cell = String::new();
        let mut quoted = false;
        let mut chars = input.chars().peekable();
        while let Some(ch) = chars.next() {
            if quoted {
                match ch {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        cell.push('"');
                    }
                    '"' => quoted = false,
                    other => cell.push(other),
                }
            } else {
                match ch {
                    '"' => quoted = true,
                    ',' => row.push(std::mem::take(&mut cell)),
                    '\n' => {
                        row.push(std::mem::take(&mut cell));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' => {}
                    other => cell.push(other),
                }
            }
        }
        if !cell.is_empty() || !row.is_empty() {
            row.push(cell);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn hostile_cells_round_trip_through_rfc_4180_quoting() {
        let dir = std::env::temp_dir().join("ddcr_csv_hostile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.csv");
        let hostile = [
            "plain".to_owned(),
            "comma, inside".to_owned(),
            "quote \" inside".to_owned(),
            "both \",\" kinds".to_owned(),
            "line\nbreak".to_owned(),
            "crlf\r\nbreak".to_owned(),
            "\"leading and trailing\"".to_owned(),
            String::new(),
        ];
        let mut csv = Csv::create(&path, &["label,with,commas", "plain"]).unwrap();
        csv.row(&hostile[..2]).unwrap();
        csv.row(&hostile[2..4]).unwrap();
        csv.row(&hostile[4..6]).unwrap();
        csv.row(&hostile[6..8]).unwrap();
        csv.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let rows = parse_csv(&content);
        assert_eq!(rows[0], vec!["label,with,commas", "plain"]);
        assert_eq!(rows[1], &hostile[..2]);
        assert_eq!(rows[2], &hostile[2..4]);
        assert_eq!(rows[3], &hostile[4..6]);
        assert_eq!(rows[4], &hostile[6..8]);
        // Plain cells stay unquoted: downstream byte-equality checks on
        // numeric sweep CSVs must not change.
        assert!(content.contains(",plain\n"));
        assert!(!content.contains("\"plain\""));
    }

    #[test]
    fn chart_renders_all_series() {
        let chart = ascii_chart(
            "test",
            &[
                Series::new("exact", [(0.0, 0.0), (1.0, 1.0)]),
                Series::new("bound", [(0.0, 1.0), (1.0, 2.0)]),
            ],
            20,
            8,
        );
        assert!(chart.contains('e'));
        assert!(chart.contains('b'));
        assert!(chart.contains("legend"));
    }

    #[test]
    fn chart_handles_empty_input() {
        let chart = ascii_chart("empty", &[], 10, 5);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn chart_handles_constant_series() {
        let chart = ascii_chart("flat", &[Series::new("f", [(0.0, 5.0), (1.0, 5.0)])], 10, 4);
        assert!(chart.contains('f'));
    }
}
