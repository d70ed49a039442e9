//! Validate JSON files against the in-repo RFC 8259 validator.
//!
//! ```text
//! cargo run -p mpiq-bench --bin jsonlint -- file.json [more.json ...]
//! ```
//!
//! Exits non-zero on the first invalid file; CI uses this to gate the
//! Chrome-trace and `--out` artifacts the harnesses emit.

use mpiq_bench::cli::Cli;
use mpiq_bench::jsonlint::validate;

fn main() {
    let cli = Cli::parse(
        "jsonlint",
        "validate JSON files (positionals: FILE [FILE ...])",
        &[],
    );
    let paths = cli.positionals();
    if paths.is_empty() {
        eprintln!("usage: jsonlint FILE [FILE ...]");
        std::process::exit(2);
    }
    for path in paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("jsonlint: {path}: {e}");
            std::process::exit(2);
        });
        match validate(&text) {
            Ok(()) => eprintln!("jsonlint: {path}: ok ({} bytes)", text.len()),
            Err(e) => {
                eprintln!("jsonlint: {path}: INVALID at {e}");
                std::process::exit(1);
            }
        }
    }
}
