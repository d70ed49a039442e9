//! Result emission: CSV to stdout/files plus JSON dumps for downstream
//! plotting. JSON is emitted through the local [`JsonRow`] trait so the
//! crate has no serialization dependency.

use crate::spec::RunResult;
use std::fmt::Display;
use std::io::Write;
use std::path::Path;

/// Write rows as CSV to any writer. `header` is the comma-joined column
/// list; each row supplies its cells.
pub fn write_csv<W: Write, R: CsvRow>(mut out: W, header: &str, rows: &[R]) -> std::io::Result<()> {
    writeln!(out, "{header}")?;
    for r in rows {
        writeln!(out, "{}", r.csv())?;
    }
    Ok(())
}

/// A row that can render itself as CSV cells.
pub trait CsvRow {
    /// Comma-joined cells for this row.
    fn csv(&self) -> String;
}

/// A row that can render itself as a JSON object.
pub trait JsonRow {
    /// `(key, rendered JSON value)` pairs, in output order. Values must
    /// already be valid JSON fragments — use [`json_str`] for strings.
    fn fields(&self) -> Vec<(&'static str, String)>;
}

/// Render a string as a JSON string literal (quoted and escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number (JSON has no NaN/inf; map to null).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Serialize rows as pretty-printed JSON into `path` (creating parent
/// directories as needed).
pub fn write_json<R: JsonRow>(path: &Path, rows: &[R]) -> std::io::Result<()> {
    let rows: Vec<Vec<(String, String)>> = rows
        .iter()
        .map(|r| {
            r.fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .collect();
    write_json_dyn(path, &rows)
}

/// [`write_json`] for rows whose keys are only known at runtime — the
/// shape a [`RunResult`] row carries.
pub fn write_json_dyn(path: &Path, rows: &[Vec<(String, String)>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, fields) in rows.iter().enumerate() {
        writeln!(f, "  {{")?;
        for (j, (key, value)) in fields.iter().enumerate() {
            let comma = if j + 1 < fields.len() { "," } else { "" };
            writeln!(f, "    {}: {value}{comma}", json_str(key))?;
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "  }}{comma}")?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// Print a result the way every bin does: CSV header + rows (or the
/// preformatted text block) on stdout, notes on stderr, and the rows as
/// JSON to `out` when given. Returns `false` when the result carries
/// failures (printed to stderr) so the bin can exit non-zero.
pub fn emit(result: &RunResult, out: Option<&Path>) -> std::io::Result<bool> {
    if !result.header.is_empty() {
        println!("{}", result.header);
    }
    for row in &result.rows {
        println!("{}", row.csv);
    }
    if !result.text.is_empty() {
        print!("{}", result.text);
    }
    for note in &result.notes {
        eprintln!("{note}");
    }
    if let Some(path) = out {
        let rows: Vec<Vec<(String, String)>> =
            result.rows.iter().map(|r| r.fields.clone()).collect();
        write_json_dyn(path, &rows)?;
        eprintln!("wrote {} rows to {}", rows.len(), path.display());
    }
    for f in &result.failures {
        eprintln!("FAIL: {f}");
    }
    Ok(result.failures.is_empty())
}

/// Join any displayable cells with commas.
pub fn cells<D: Display>(items: &[D]) -> String {
    items
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(u32, f64);
    impl CsvRow for Row {
        fn csv(&self) -> String {
            format!("{},{}", self.0, self.1)
        }
    }

    #[test]
    fn csv_rendering() {
        let mut buf = Vec::new();
        write_csv(&mut buf, "a,b", &[Row(1, 2.5), Row(3, 4.0)]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a,b\n1,2.5\n3,4\n");
    }

    #[test]
    fn cells_joins() {
        assert_eq!(cells(&[1, 2, 3]), "1,2,3");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}\t"), "\"\\u0001\\t\"");
        assert_eq!(json_f64(1.5), "1.5");
    }

    /// JSON has no NaN/Infinity literals; every non-finite value must
    /// render as `null` so downstream parsers never see `inf` or `NaN`
    /// (which `format!("{v}")` would happily produce).
    #[test]
    fn json_f64_maps_every_non_finite_to_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(-f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        // Near-misses must stay numbers.
        assert_eq!(json_f64(f64::MAX), format!("{}", f64::MAX));
        assert_eq!(json_f64(-0.0), "-0");
        assert_eq!(json_f64(0.0), "0");
    }

    /// Non-finite values flowing through `write_json` land as `null`
    /// fields, keeping the whole document machine-parseable.
    #[test]
    fn write_json_with_non_finite_values_stays_valid() {
        struct R(f64);
        impl JsonRow for R {
            fn fields(&self) -> Vec<(&'static str, String)> {
                vec![("v", json_f64(self.0))]
            }
        }
        let dir = std::env::temp_dir().join("mpiq_bench_nonfinite");
        let path = dir.join("out.json");
        write_json(&path, &[R(f64::INFINITY), R(2.0), R(f64::NAN)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"v\": null"), "{text}");
        assert!(text.contains("\"v\": 2"), "{text}");
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_roundtrip() {
        struct R {
            x: u32,
            name: &'static str,
        }
        impl JsonRow for R {
            fn fields(&self) -> Vec<(&'static str, String)> {
                vec![("x", self.x.to_string()), ("name", json_str(self.name))]
            }
        }
        let dir = std::env::temp_dir().join("mpiq_bench_test");
        let path = dir.join("out.json");
        write_json(&path, &[R { x: 1, name: "a" }, R { x: 2, name: "b" }]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 1"), "{text}");
        assert!(text.contains("\"name\": \"b\""), "{text}");
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
