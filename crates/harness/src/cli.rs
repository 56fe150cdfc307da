//! Minimal command-line argument parsing shared by the harness binaries.
//!
//! The sanctioned dependency set has no argument parser, and the binaries
//! only need flags of the form `--key value`, `--flag`, and `-b
//! bench1,bench2`, so this module implements exactly that.

use chopin_core::sweep::SweepConfig;
use std::collections::BTreeMap;
use std::fmt;

/// The sweep-grid flags every sweeping binary reads.
pub const GRID_FLAGS: [&str; 4] = ["b", "quick", "invocations", "iterations"];

/// The sweep grid the [`GRID_FLAGS`] ask for: [`SweepConfig::quick`]
/// under `--quick`, else the default grid, with `--invocations` and
/// `--iterations` overriding its counts.
///
/// # Errors
///
/// An [`ArgError`] naming the flag and its value when a count is not a
/// positive integer.
pub fn sweep_from_args(args: &Args) -> Result<SweepConfig, ArgError> {
    let mut sweep = if args.has("quick") {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    sweep.invocations = args.count_or("invocations", sweep.invocations)?;
    sweep.iterations = args.count_or("iterations", sweep.iterations)?;
    Ok(sweep)
}

/// Refuse, before anything prints or runs, a command line naming a flag
/// `binary` reads on none of its `accepted` lists: a misspelt
/// `--jounral` must not run an unjournalled sweep. A sweep-scheduler
/// flag on a binary without the scheduler names the binaries that take
/// it.
///
/// # Errors
///
/// A message naming the first unknown flag.
pub fn check_flags(binary: &str, args: &Args, accepted: &[&[&str]]) -> Result<(), String> {
    let known = |flag: &str| accepted.iter().any(|list| list.contains(&flag));
    match args.flags.keys().map(String::as_str).find(|f| !known(f)) {
        None => Ok(()),
        Some(flag) if crate::supervisor::SCHEDULER_FLAGS.contains(&flag) => Err(format!(
            "{binary} does not run on the sweep scheduler, so it cannot honour --{flag}; \
             use runbms or lbo"
        )),
        Some(flag) => Err(format!("unknown flag --{flag} for {binary}")),
    }
}

/// Parsed command line: flags with optional values, plus positionals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    flags: BTreeMap<String, Vec<String>>,
    positionals: Vec<String>,
}

/// Error raised by typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    message: String,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an argument vector (excluding the program name). A token
    /// starting with `--` or `-` begins a flag; the following token is its
    /// value unless it is itself a flag, in which case the flag is boolean.
    pub fn parse<I, S>(args: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut out = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--").or_else(|| t.strip_prefix('-')) {
                let value_next = tokens
                    .get(i + 1)
                    .filter(|v| !v.starts_with('-') || v.parse::<f64>().is_ok());
                match value_next {
                    Some(v) => {
                        out.flags
                            .entry(name.to_string())
                            .or_default()
                            .push(v.clone());
                        i += 2;
                    }
                    None => {
                        out.flags.entry(name.to_string()).or_default();
                        i += 1;
                    }
                }
            } else {
                out.positionals.push(t.clone());
                i += 1;
            }
        }
        out
    }

    /// Parse from the process environment.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Whether a flag was present at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The first value of a flag, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name)?.first().map(|s| s.as_str())
    }

    /// A comma-separated list flag (e.g. `-b fop,pmd`).
    pub fn list(&self, name: &str) -> Vec<String> {
        self.value(name)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A typed flag value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError {
                message: format!("invalid value `{v}` for --{name}"),
            }),
        }
    }

    /// A count flag with a default. Zero is refused, since zero
    /// invocations or iterations measure nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value is not a positive integer.
    pub fn count_or(&self, name: &str, default: u32) -> Result<u32, ArgError> {
        match self.get_or(name, default)? {
            0 => Err(ArgError {
                message: format!("invalid value `0` for --{name}: a count must be at least 1"),
            }),
            n => Ok(n),
        }
    }

    /// Positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_names_unknown_flags_and_points_scheduler_flags_at_the_scheduler() {
        let accepted: &[&[&str]] = &[&GRID_FLAGS, &["faults"]];
        let ok = Args::parse(["-b", "fop", "--quick", "--faults", "chaos"]);
        assert_eq!(check_flags("suite", &ok, accepted), Ok(()));

        let typo = Args::parse(["-b", "fop", "--jounral", "J"]);
        let err = check_flags("runbms", &typo, accepted).unwrap_err();
        assert_eq!(err, "unknown flag --jounral for runbms");

        for flag in crate::supervisor::SCHEDULER_FLAGS {
            let args = Args::parse([format!("--{flag}"), "1".to_string()]);
            let err = check_flags("latency", &args, accepted).unwrap_err();
            assert!(
                err.contains(&format!("--{flag}")) && err.contains("runbms") && err.contains("lbo"),
                "{err}"
            );
        }
    }

    #[test]
    fn parses_flags_values_and_positionals() {
        let a = Args::parse(["--invocations", "3", "-b", "fop,pmd", "--csv", "pos"]);
        assert_eq!(a.get_or("invocations", 0u32).unwrap(), 3);
        assert_eq!(a.list("b"), vec!["fop", "pmd"]);
        assert!(a.has("csv"));
        assert_eq!(a.value("csv"), Some("pos"));
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = Args::parse(["--quick", "--invocations", "2"]);
        assert!(a.has("quick"));
        assert_eq!(a.value("quick"), None);
        assert_eq!(a.get_or("invocations", 0u32).unwrap(), 2);
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(["--offset", "-1.5"]);
        assert_eq!(a.get_or("offset", 0.0f64).unwrap(), -1.5);
    }

    #[test]
    fn bad_typed_value_is_an_error() {
        let a = Args::parse(["--n", "many"]);
        let err = a.get_or("n", 1u32).unwrap_err();
        assert!(err.to_string().contains("many"));
    }

    #[test]
    fn sweep_grid_flags_override_the_grid_or_name_a_malformed_count() {
        let quick = sweep_from_args(&Args::parse(["--quick", "--invocations", "3"])).unwrap();
        assert_eq!(quick.invocations, 3);
        assert_eq!(quick.iterations, SweepConfig::quick().iterations);
        assert_eq!(
            sweep_from_args(&Args::parse(Vec::<String>::new())).unwrap(),
            SweepConfig::default()
        );
        for (flag, value) in [
            ("invocations", "abc"),
            ("iterations", "-3"),
            ("invocations", "0"),
            ("iterations", "0"),
        ] {
            let args = Args::parse([format!("--{flag}"), value.to_string()]);
            let err = sweep_from_args(&args).unwrap_err().to_string();
            assert!(
                err.contains(&format!("--{flag}")) && err.contains(value),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_flag_uses_default() {
        let a = Args::parse(Vec::<String>::new());
        assert_eq!(a.get_or("n", 7u32).unwrap(), 7);
        assert!(a.list("b").is_empty());
    }
}
