//! One flag-parsing surface for every bench binary.
//!
//! The fourteen `src/bin/*` harnesses used to hand-roll their own
//! `std::env::args()` loops, and their usage strings drifted: flags
//! documented but unimplemented, implemented but undocumented, and the
//! same concept spelled differently across bins. This module replaces
//! all of them with a single declarative parser.
//!
//! Every bin gets the **common surface** for free:
//!
//! | flag | meaning |
//! |------|---------|
//! | `--seed N` | simulation seed (bins with multi-seed sweeps interpret it as the sole seed) |
//! | `--faults SPEC` | deterministic fault campaign, e.g. `seed=1,drop=0.01,corrupt=0.005` |
//! | `--trace-out PATH` | write a Chrome trace of one instrumented representative run |
//! | `--metrics` | dump latency histograms / counters to stderr |
//! | `--sweep-threads N` | OS threads fanning out independent sweep *points* (`0` = all cores); each simulation itself runs on one thread |
//! | `--out PATH` | write result rows as a JSON array to PATH |
//! | `--help` | uniform, generated help |
//!
//! The `--json` alias for `--out` was removed; passing it is now a hard
//! error that names the replacement.
//!
//! Bin-specific flags are declared as [`Flag`] specs, so the generated
//! `--help` can never drift from what the parser accepts: both come
//! from the same table. Defaults are pinned by unit tests below.

use mpiq_dessim::FaultConfig;
use std::collections::{BTreeMap, BTreeSet};

/// The flags shared by every bench binary, parsed and typed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Common {
    /// `--seed N`; `None` = the bin's own default seed policy.
    pub seed: Option<u64>,
    /// `--faults SPEC`.
    pub faults: Option<FaultConfig>,
    /// `--trace-out PATH`.
    pub trace_out: Option<String>,
    /// `--metrics`.
    pub metrics: bool,
    /// `--sweep-threads N` — point-level fan-out for `run_parallel`
    /// (0 = one thread per core).
    pub sweep_threads: usize,
    /// `--out PATH`.
    pub out: Option<String>,
}

/// Declaration of one bin-specific flag.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// Name without the leading `--`, e.g. `"max-queue"`.
    pub name: &'static str,
    /// Metavariable shown in help (`Some("N")`), or `None` for a
    /// boolean switch.
    pub value: Option<&'static str>,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// The common flags, declared once so help and parser share the table.
const COMMON_FLAGS: &[Flag] = &[
    Flag {
        name: "seed",
        value: Some("N"),
        help: "simulation seed",
    },
    Flag {
        name: "faults",
        value: Some("SPEC"),
        help: "deterministic fault campaign, e.g. seed=1,drop=0.01,corrupt=0.005",
    },
    Flag {
        name: "trace-out",
        value: Some("PATH"),
        help: "write a Chrome trace of one instrumented representative run",
    },
    Flag {
        name: "metrics",
        value: None,
        help: "dump latency histograms to stderr",
    },
    Flag {
        name: "sweep-threads",
        value: Some("N"),
        help: "OS threads fanning out sweep points (0 = all cores)",
    },
    Flag {
        name: "out",
        value: Some("PATH"),
        help: "write result rows as JSON to PATH",
    },
    Flag {
        name: "help",
        value: None,
        help: "show this help",
    },
];

/// A parsed command line: typed [`Common`] plus raw bin-specific values.
#[derive(Debug)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    specs: Vec<Flag>,
    /// `--flag value` occurrences, last one wins.
    opts: BTreeMap<String, String>,
    /// Boolean switches seen.
    switches: BTreeSet<String>,
    /// Non-flag arguments, in order.
    positionals: Vec<String>,
    /// The shared surface, already typed.
    pub common: Common,
}

impl Cli {
    /// Parse the process arguments. On `--help` prints the generated
    /// usage and exits 0; on any error prints the message plus a help
    /// hint and exits 2.
    pub fn parse(name: &'static str, about: &'static str, specs: &[Flag]) -> Cli {
        match Cli::try_parse_from(name, about, specs, std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(Error::Help(text)) => {
                println!("{text}");
                std::process::exit(0);
            }
            Err(Error::Bad(msg)) => {
                eprintln!("{name}: {msg}\nrun `{name} --help` for usage");
                std::process::exit(2);
            }
        }
    }

    /// Testable core of [`Cli::parse`].
    pub fn try_parse_from(
        name: &'static str,
        about: &'static str,
        specs: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, Error> {
        let mut cli = Cli {
            name,
            about,
            specs: specs.to_vec(),
            opts: BTreeMap::new(),
            switches: BTreeSet::new(),
            positionals: Vec::new(),
            common: Common::default(),
        };
        for spec in specs {
            assert!(
                !COMMON_FLAGS.iter().any(|c| c.name == spec.name) && spec.name != "json",
                "bin flag --{} shadows a common flag",
                spec.name
            );
        }
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let Some(stripped) = arg.strip_prefix("--") else {
                cli.positionals.push(arg);
                continue;
            };
            if stripped == "json" {
                return Err(Error::Bad(
                    "--json was removed; use --out PATH (same JSON rows)".to_string(),
                ));
            }
            let spec = COMMON_FLAGS
                .iter()
                .chain(cli.specs.iter())
                .find(|f| f.name == stripped)
                .ok_or_else(|| Error::Bad(format!("unknown flag --{stripped}")))?;
            if spec.value.is_some() {
                let v = it
                    .next()
                    .ok_or_else(|| Error::Bad(format!("--{stripped} needs a value")))?;
                cli.opts.insert(spec.name.to_string(), v);
            } else {
                cli.switches.insert(spec.name.to_string());
            }
        }
        if cli.switches.contains("help") {
            return Err(Error::Help(cli.render_help()));
        }
        cli.common = Common {
            seed: cli.parse_opt("seed")?,
            faults: cli.parse_opt("faults")?,
            trace_out: cli.opts.get("trace-out").cloned(),
            metrics: cli.switches.contains("metrics"),
            sweep_threads: cli.parse_opt("sweep-threads")?.unwrap_or(0),
            out: cli.opts.get("out").cloned(),
        };
        Ok(cli)
    }

    /// The raw (unparsed) text of a *common* value flag, if given.
    ///
    /// Needed where the original spelling matters — e.g. `--faults` is
    /// carried verbatim inside a serialized `RunSpec` because
    /// `FaultConfig` has `FromStr` but no canonical `Display`.
    pub fn common_raw(&self, name: &str) -> Option<&str> {
        assert!(
            COMMON_FLAGS
                .iter()
                .any(|f| f.name == name && f.value.is_some()),
            "{}: --{name} is not a common value flag",
            self.name
        );
        self.opts.get(name).map(String::as_str)
    }

    fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Error>
    where
        T::Err: std::fmt::Display,
    {
        match self.opts.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| Error::Bad(format!("--{name} {raw}: {e}"))),
        }
    }

    /// A bin-specific value flag, parsed; `default` when absent.
    ///
    /// A malformed value is a user error, not a bug: it is reported as
    /// a typed parse error naming the flag (exit 2), never a panic and
    /// never a silent fall-back to the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.try_get(name, default)
            .unwrap_or_else(|e| self.exit_bad(e))
    }

    /// Fallible core of [`Cli::get`]: `Err` names the flag and the
    /// offending value on a malformed parse.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Error>
    where
        T::Err: std::fmt::Display,
    {
        self.require_spec(name, true);
        match self.opts.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| Error::Bad(format!("invalid value for --{name}: {raw:?}: {e}"))),
        }
    }

    /// A bin-specific value flag left as a string, if given.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.require_spec(name, true);
        self.opts.get(name).map(String::as_str)
    }

    /// A comma-separated list flag; `default` when absent. Malformed
    /// elements are reported like [`Cli::get`] malformed values.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str, default: Vec<T>) -> Vec<T>
    where
        T::Err: std::fmt::Display,
    {
        self.try_get_list(name, default)
            .unwrap_or_else(|e| self.exit_bad(e))
    }

    /// Fallible core of [`Cli::get_list`].
    pub fn try_get_list<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, Error>
    where
        T::Err: std::fmt::Display,
    {
        self.require_spec(name, true);
        match self.opts.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .map(|s| {
                    s.parse().map_err(|e| {
                        Error::Bad(format!(
                            "invalid value for --{name}: {raw:?}: element {s:?}: {e}"
                        ))
                    })
                })
                .collect(),
        }
    }

    /// Report a command-line error uniformly and exit 2 (the same path
    /// [`Cli::parse`] takes for errors found during parsing).
    fn exit_bad(&self, e: Error) -> ! {
        match e {
            Error::Bad(msg) => {
                eprintln!("{}: {msg}\nrun `{} --help` for usage", self.name, self.name)
            }
            Error::Help(text) => println!("{text}"),
        }
        std::process::exit(2);
    }

    /// Was a bin-specific boolean switch given?
    pub fn has(&self, name: &str) -> bool {
        self.require_spec(name, false);
        self.switches.contains(name)
    }

    /// Non-flag arguments, in order (e.g. `jsonlint`'s file paths).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Catch typos at the access site: a bin asking for a flag it never
    /// declared is a bug in the bin, not the command line.
    fn require_spec(&self, name: &str, wants_value: bool) {
        let spec = self
            .specs
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{}: flag --{name} was never declared", self.name));
        assert_eq!(
            spec.value.is_some(),
            wants_value,
            "{}: --{name} declared {} a value but accessed {} one",
            self.name,
            if spec.value.is_some() {
                "with"
            } else {
                "without"
            },
            if wants_value { "with" } else { "without" },
        );
    }

    /// The generated help text (what `--help` prints).
    pub fn render_help(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nUSAGE:\n  {} [OPTIONS]\n",
            self.name, self.about, self.name
        );
        let render = |out: &mut String, flags: &[Flag]| {
            for f in flags {
                let left = match f.value {
                    Some(metavar) => format!("--{} {}", f.name, metavar),
                    None => format!("--{}", f.name),
                };
                out.push_str(&format!("  {left:<22} {}\n", f.help));
            }
        };
        if !self.specs.is_empty() {
            out.push_str("\nOPTIONS:\n");
            render(&mut out, &self.specs);
        }
        out.push_str("\nCOMMON OPTIONS:\n");
        render(&mut out, COMMON_FLAGS);
        out
    }
}

/// Why parsing stopped.
#[derive(Debug)]
pub enum Error {
    /// `--help` was requested; payload is the rendered help text.
    Help(String),
    /// Bad command line; payload is the message.
    Bad(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], specs: &[Flag]) -> Result<Cli, Error> {
        Cli::try_parse_from(
            "testbin",
            "a test bin",
            specs,
            args.iter().map(|s| s.to_string()),
        )
    }

    /// The defaults every bin inherits; a change here changes every
    /// harness's behavior, so it is pinned exactly.
    #[test]
    fn common_defaults_are_pinned() {
        let cli = parse(&[], &[]).unwrap();
        assert_eq!(
            cli.common,
            Common {
                seed: None,
                faults: None,
                trace_out: None,
                metrics: false,
                sweep_threads: 0,
                out: None,
            }
        );
        assert!(cli.positionals().is_empty());
    }

    #[test]
    fn common_flags_parse_typed() {
        let cli = parse(
            &[
                "--seed",
                "7",
                "--metrics",
                "--sweep-threads",
                "2",
                "--trace-out",
                "t.json",
                "--out",
                "rows.json",
                "--faults",
                "seed=1,drop=0.5",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(cli.common.seed, Some(7));
        assert!(cli.common.metrics);
        assert_eq!(cli.common.sweep_threads, 2);
        assert_eq!(cli.common.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.common.out.as_deref(), Some("rows.json"));
        assert!(cli.common.faults.is_some());
    }

    /// The `--json` alias is gone; the error must say what replaced it.
    #[test]
    fn json_alias_is_rejected_with_pointer_to_out() {
        match parse(&["--json", "legacy.json"], &[]) {
            Err(Error::Bad(msg)) => {
                assert!(msg.contains("--json was removed"), "{msg}");
                assert!(msg.contains("--out"), "{msg}");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    /// Removed common flags fail like any undeclared flag: the
    /// experiment server's address and the engine thread count (every
    /// simulation runs on one thread). (Assembled so the removed flags'
    /// literal spellings appear nowhere in the tree.)
    #[test]
    fn server_flag_is_unknown() {
        for (name, value) in [("server", "127.0.0.1:7171"), ("threads", "2")] {
            let flag = ["--", name].concat();
            match parse(&[&flag, value], &[]) {
                Err(Error::Bad(msg)) => assert_eq!(msg, format!("unknown flag {flag}")),
                other => panic!("expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn common_raw_preserves_fault_spec_spelling() {
        let cli = parse(&["--faults", "seed=3,drop=0.25"], &[]).unwrap();
        assert_eq!(cli.common_raw("faults"), Some("seed=3,drop=0.25"));
        assert_eq!(cli.common_raw("out"), None);
    }

    /// Satellite: malformed input to a declared typed flag is a typed
    /// parse error naming the flag — not a panic, not the default.
    #[test]
    fn malformed_typed_value_is_a_named_parse_error() {
        let specs = [Flag {
            name: "max-queue",
            value: Some("N"),
            help: "deepest queue",
        }];
        let cli = parse(&["--max-queue", "threeve"], &specs).unwrap();
        match cli.try_get::<usize>("max-queue", 500) {
            Err(Error::Bad(msg)) => {
                assert!(msg.contains("--max-queue"), "must name the flag: {msg}");
                assert!(msg.contains("threeve"), "must show the value: {msg}");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn malformed_list_element_is_a_named_parse_error() {
        let specs = [Flag {
            name: "sizes",
            value: Some("LIST"),
            help: "payload bytes",
        }];
        let cli = parse(&["--sizes", "0,banana,8192"], &specs).unwrap();
        match cli.try_get_list::<u32>("sizes", vec![64]) {
            Err(Error::Bad(msg)) => {
                assert!(msg.contains("--sizes"), "must name the flag: {msg}");
                assert!(msg.contains("banana"), "must show the element: {msg}");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
        // Well-formed lists still parse through the fallible path.
        let cli = parse(&["--sizes", "0,8192"], &specs).unwrap();
        assert_eq!(
            cli.try_get_list::<u32>("sizes", vec![64]).unwrap(),
            vec![0, 8192]
        );
    }

    #[test]
    fn specific_flags_and_positionals() {
        let specs = [
            Flag {
                name: "max-queue",
                value: Some("N"),
                help: "deepest queue",
            },
            Flag {
                name: "plot",
                value: None,
                help: "ascii plot",
            },
        ];
        let cli = parse(&["--max-queue", "300", "--plot", "file.json"], &specs).unwrap();
        assert_eq!(cli.get::<usize>("max-queue", 500), 300);
        assert!(cli.has("plot"));
        assert_eq!(cli.positionals(), &["file.json".to_string()]);
        // Defaults apply when absent.
        let cli = parse(&[], &specs).unwrap();
        assert_eq!(cli.get::<usize>("max-queue", 500), 500);
        assert!(!cli.has("plot"));
    }

    #[test]
    fn list_flags_split_on_commas() {
        let specs = [Flag {
            name: "sizes",
            value: Some("LIST"),
            help: "payload bytes",
        }];
        let cli = parse(&["--sizes", "0,1024,8192"], &specs).unwrap();
        assert_eq!(cli.get_list::<u32>("sizes", vec![64]), vec![0, 1024, 8192]);
        let cli = parse(&[], &specs).unwrap();
        assert_eq!(cli.get_list::<u32>("sizes", vec![64]), vec![64]);
    }

    #[test]
    fn unknown_flag_is_an_error_not_a_panic() {
        match parse(&["--bogus"], &[]) {
            Err(Error::Bad(msg)) => assert!(msg.contains("--bogus"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn missing_value_is_reported() {
        match parse(&["--seed"], &[]) {
            Err(Error::Bad(msg)) => assert!(msg.contains("needs a value"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn help_lists_every_declared_flag() {
        let specs = [Flag {
            name: "scenario",
            value: Some("NAME"),
            help: "traffic shape",
        }];
        match parse(&["--help"], &specs) {
            Err(Error::Help(text)) => {
                assert!(text.contains("--scenario NAME"), "{text}");
                for f in COMMON_FLAGS {
                    assert!(text.contains(&format!("--{}", f.name)), "{text}");
                }
            }
            other => panic!("expected Help, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn accessing_undeclared_flag_panics() {
        let cli = parse(&[], &[]).unwrap();
        let _ = cli.get::<usize>("max-queue", 1);
    }
}
