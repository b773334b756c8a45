//! Minimal argument parsing for the CLI (no external dependencies).
//!
//! Supports `--key value` flags, valueless `--switch` toggles and positional
//! arguments. Unknown flags are an error so typos surface early.

use std::collections::HashMap;

/// Parsed command-line arguments: positionals plus `--key value` flags.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses an argument list (without the program/subcommand names).
    ///
    /// `allowed` lists the accepted flag names (without `--`).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I, allowed: &[&str]) -> Result<Args, String> {
        Args::parse_with_switches(raw, allowed, &[])
    }

    /// Like [`Args::parse`], but the names in `switches` take no value;
    /// their mere presence sets them.
    pub fn parse_with_switches<I: IntoIterator<Item = String>>(
        raw: I,
        allowed: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    out.switches.push(name.to_string());
                    continue;
                }
                if !allowed.contains(&name) {
                    return Err(format!(
                        "unknown flag --{name} (expected one of: {})",
                        allowed
                            .iter()
                            .chain(switches)
                            .map(|a| format!("--{a}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// Whether a valueless switch was present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The positional arguments from `first` on (empty past the end).
    pub fn positionals_from(&self, first: usize) -> &[String] {
        self.positional.get(first..).unwrap_or(&[])
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Parses a flag as `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {raw:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(
            strs(&["out.idx", "--videos", "8", "--seed", "42"]),
            &["videos", "seed"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("out.idx"));
        assert_eq!(a.positionals_from(0).len(), 1);
        assert_eq!(a.get("videos"), Some("8"));
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(a.get_parsed::<u64>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = Args::parse(strs(&["--nope", "1"]), &["yes"]).unwrap_err();
        assert!(err.contains("--nope"), "{err}");
    }

    #[test]
    fn rejects_missing_value() {
        let err = Args::parse(strs(&["--videos"]), &["videos"]).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn switches_take_no_value() {
        let a = Args::parse_with_switches(
            strs(&["--strict", "db.idx", "--seed", "9"]),
            &["seed"],
            &["strict"],
        )
        .unwrap();
        assert!(a.has("strict"));
        assert!(!a.has("seed"));
        assert_eq!(a.positional(0), Some("db.idx"));
        assert_eq!(a.get("seed"), Some("9"));

        let b = Args::parse_with_switches(strs(&["db.idx"]), &["seed"], &["strict"]).unwrap();
        assert!(!b.has("strict"));

        let err = Args::parse_with_switches(strs(&["--oops"]), &["seed"], &["strict"]).unwrap_err();
        assert!(err.contains("--strict"), "switches listed in error: {err}");
    }

    #[test]
    fn rejects_bad_parse() {
        let a = Args::parse(strs(&["--n", "abc"]), &["n"]).unwrap();
        assert!(a.get_parsed::<u32>("n", 0).is_err());
    }
}
