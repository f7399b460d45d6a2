//! A small, dependency-free `--flag value` argument parser.

use std::collections::HashMap;

use crate::CliError;

/// Parsed command line: one positional command, further positional
/// operands (e.g. `opmap ingest rows.csv`), plus `--key value` options
/// and bare `--switch` flags.
#[derive(Debug, Clone)]
pub struct Parsed {
    command: Option<String>,
    positionals: Vec<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
    /// Keys actually consumed by the command (for unknown-option checks).
    consumed: Vec<String>,
    /// How many positionals the command has taken; leftovers are
    /// rejected by [`Parsed::reject_unknown`].
    taken_positionals: usize,
}

impl Parsed {
    /// Parse an argument vector (without argv\[0\]).
    ///
    /// # Errors
    /// Fails on a dangling `--key` with no value.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut command = None;
        let mut positionals = Vec::new();
        let mut options = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(key) = token.strip_prefix("--") {
                // A switch if it's the last token or the next token is
                // another option; otherwise a key/value pair.
                let is_switch = matches!(
                    key,
                    "help"
                        | "no-ci"
                        | "full"
                        | "ansi"
                        | "verbose"
                        | "skip-header"
                        | "verify"
                        | "chaos"
                        | "ingest"
                );
                if is_switch {
                    switches.push(key.to_owned());
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| CliError::Usage(format!("option --{key} needs a value")))?;
                    if value.starts_with("--") {
                        return Err(CliError::Usage(format!(
                            "option --{key} needs a value, found {value:?}"
                        )));
                    }
                    if options.insert(key.to_owned(), value.clone()).is_some() {
                        return Err(CliError::Usage(format!("duplicate option --{key}")));
                    }
                    i += 1;
                }
            } else if command.is_none() {
                command = Some(token.clone());
            } else {
                positionals.push(token.clone());
            }
            i += 1;
        }
        Ok(Self {
            command,
            positionals,
            options,
            switches,
            consumed: Vec::new(),
            taken_positionals: 0,
        })
    }

    /// The positional command, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The next positional operand after the command, in order.
    pub fn next_positional(&mut self) -> Option<String> {
        let value = self.positionals.get(self.taken_positionals).cloned();
        if value.is_some() {
            self.taken_positionals += 1;
        }
        value
    }

    /// Whether a bare switch like `--no-ci` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A required string option.
    ///
    /// # Errors
    /// Fails if missing.
    pub fn required(&mut self, key: &str) -> Result<String, CliError> {
        self.consumed.push(key.to_owned());
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn optional(&mut self, key: &str) -> Option<String> {
        self.consumed.push(key.to_owned());
        self.options.get(key).cloned()
    }

    /// An optional option parsed as `T`, with a default.
    ///
    /// # Errors
    /// Fails if present but unparsable.
    pub fn parse_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, CliError> {
        self.consumed.push(key.to_owned());
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| CliError::Usage(format!("option --{key} has invalid value {raw:?}"))),
        }
    }

    /// Reject any option the command never asked about and any
    /// positional it never took (catches typos).
    ///
    /// # Errors
    /// Fails listing the unknown options or the stray positional.
    pub fn reject_unknown(&self) -> Result<(), CliError> {
        if let Some(stray) = self.positionals.get(self.taken_positionals) {
            return Err(CliError::Usage(format!(
                "unexpected positional argument {stray:?}"
            )));
        }
        let unknown: Vec<&String> = self
            .options
            .keys()
            .filter(|k| !self.consumed.contains(k))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            let mut names: Vec<String> = unknown.iter().map(|k| format!("--{k}")).collect();
            names.sort();
            Err(CliError::Usage(format!(
                "unknown option(s): {}",
                names.join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&argv)
    }

    #[test]
    fn command_and_options() {
        let mut p = parse(&["compare", "--attr", "Phone", "--v1", "ph1"]).unwrap();
        assert_eq!(p.command(), Some("compare"));
        assert_eq!(p.required("attr").unwrap(), "Phone");
        assert_eq!(p.optional("v1"), Some("ph1".into()));
        assert_eq!(p.optional("v2"), None);
    }

    #[test]
    fn switches_parse() {
        let p = parse(&["compare", "--no-ci", "--attr", "A"]).unwrap();
        assert!(p.switch("no-ci"));
        assert!(!p.switch("ansi"));
    }

    #[test]
    fn numeric_defaults_and_parsing() {
        let mut p = parse(&["generate", "--records", "1234"]).unwrap();
        assert_eq!(p.parse_or("records", 0usize).unwrap(), 1234);
        assert_eq!(p.parse_or("seed", 7u64).unwrap(), 7);
        let mut p = parse(&["generate", "--records", "abc"]).unwrap();
        assert!(p.parse_or("records", 0usize).is_err());
    }

    #[test]
    fn dangling_value_rejected() {
        assert!(parse(&["x", "--key"]).is_err());
        assert!(parse(&["x", "--key", "--other", "v"]).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&["x", "--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn stray_positional_rejected() {
        let p = parse(&["cmd", "oops"]).unwrap();
        let e = p.reject_unknown().unwrap_err();
        assert!(e.to_string().contains("oops"));
    }

    #[test]
    fn positionals_taken_in_order() {
        let mut p = parse(&["ingest", "rows.csv", "--addr", "h:1", "more.csv"]).unwrap();
        assert_eq!(p.command(), Some("ingest"));
        assert_eq!(p.next_positional(), Some("rows.csv".into()));
        assert_eq!(p.next_positional(), Some("more.csv".into()));
        assert_eq!(p.next_positional(), None);
        let _ = p.optional("addr");
        p.reject_unknown().unwrap();
    }

    #[test]
    fn missing_required_reported() {
        let mut p = parse(&["compare"]).unwrap();
        let e = p.required("attr").unwrap_err();
        assert!(e.to_string().contains("--attr"));
    }

    #[test]
    fn unknown_options_detected() {
        let mut p = parse(&["cmd", "--good", "1", "--typo", "2"]).unwrap();
        let _ = p.parse_or("good", 0u32);
        let e = p.reject_unknown().unwrap_err();
        assert!(e.to_string().contains("--typo"));
        assert!(!e.to_string().contains("--good"));
    }
}
