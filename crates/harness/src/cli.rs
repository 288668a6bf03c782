//! Command-line flag parsing shared by the harness bins.
//!
//! Every bin accepts `--flag VALUE` and `--flag=VALUE`. A required flag
//! that is absent, a flag given without its value, a number that does not
//! parse or a value its parser rejects is a usage error: the bin prints
//! one line naming the flag and exits with [`USAGE_EXIT`] instead of
//! panicking.

use std::fmt;
use std::str::FromStr;

/// Exit status of a bin whose command line could not be parsed.
pub const USAGE_EXIT: i32 = 2;

/// A command-line usage error, naming the offending flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A required flag is absent.
    MissingFlag {
        /// The flag as written, e.g. `--script`.
        flag: String,
    },
    /// The flag was the last argument, with no value after it.
    MissingValue {
        /// The flag as written, e.g. `--secs`.
        flag: String,
    },
    /// The flag's value is not the number the flag expects.
    BadNumber {
        /// The flag as written, e.g. `--secs`.
        flag: String,
        /// The text that failed to parse.
        value: String,
    },
    /// The flag's value was rejected by its parser.
    Invalid {
        /// The flag as written, e.g. `--topology`.
        flag: String,
        /// The parser's explanation.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingFlag { flag } => write!(f, "{flag} is required"),
            CliError::MissingValue { flag } => write!(f, "{flag} expects a value"),
            CliError::BadNumber { flag, value } => {
                write!(f, "{flag} expects a number, got {value:?}")
            }
            CliError::Invalid { flag, reason } => write!(f, "{flag}: {reason}"),
        }
    }
}

/// Parses `text` as the number `flag` expects.
///
/// # Errors
///
/// [`CliError::BadNumber`] if `text` does not parse as a `T`.
fn parse_number<T: FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::BadNumber { flag: flag.to_string(), value: text.to_string() })
}

/// Unwraps `result`, or prints the usage error on one line and exits with
/// [`USAGE_EXIT`].
pub fn or_exit<T>(result: Result<T, CliError>) -> T {
    result.unwrap_or_else(|err| {
        let bin = std::env::args()
            .next()
            .and_then(|path| {
                std::path::Path::new(&path).file_name().map(|n| n.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "harness".to_string());
        eprintln!("{bin}: {err}");
        std::process::exit(USAGE_EXIT)
    })
}

/// The arguments of one bin invocation, program name excluded.
#[derive(Clone, Debug)]
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// The current process's arguments.
    pub fn from_env() -> Self {
        Args { args: std::env::args().skip(1).collect() }
    }

    /// Wraps an explicit argument list.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(args: I) -> Self {
        Args { args: args.into_iter().map(Into::into).collect() }
    }

    /// The first argument, if any (a subcommand, for bins that take one).
    pub fn first(&self) -> Option<&str> {
        self.args.first().map(String::as_str)
    }

    /// Whether the bare switch `name` (e.g. `--quick`) is present.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// Arguments that are neither flags nor the value of one of
    /// `value_flags` given in the `--flag VALUE` form.
    pub fn positionals(&self, value_flags: &[&str]) -> Vec<&str> {
        self.args
            .iter()
            .enumerate()
            .filter(|&(i, a)| {
                !a.starts_with("--")
                    && (i == 0 || !value_flags.contains(&self.args[i - 1].as_str()))
            })
            .map(|(_, a)| a.as_str())
            .collect()
    }

    /// The value of `--flag VALUE` or `--flag=VALUE`, if the flag is given.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`] if the flag is the last argument.
    pub fn try_value(&self, flag: &str) -> Result<Option<String>, CliError> {
        let prefix = format!("{flag}=");
        for (i, a) in self.args.iter().enumerate() {
            if let Some(v) = a.strip_prefix(&prefix) {
                return Ok(Some(v.to_string()));
            }
            if a == flag {
                return match self.args.get(i + 1) {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(CliError::MissingValue { flag: flag.to_string() }),
                };
            }
        }
        Ok(None)
    }

    /// The value of `flag` parsed as a number, if the flag is given.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`] or [`CliError::BadNumber`].
    pub fn try_number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.try_value(flag)?.map(|v| parse_number(flag, &v)).transpose()
    }

    /// The value of `flag` run through `parse`, if the flag is given.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingValue`], or [`CliError::Invalid`] carrying the
    /// parser's message.
    pub fn try_parsed<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        self.try_value(flag)?
            .map(|v| {
                parse(&v).map_err(|reason| CliError::Invalid { flag: flag.to_string(), reason })
            })
            .transpose()
    }

    /// [`Self::try_value`], exiting with [`USAGE_EXIT`] on an error.
    pub fn value(&self, flag: &str) -> Option<String> {
        or_exit(self.try_value(flag))
    }

    /// [`Self::try_number`], exiting with [`USAGE_EXIT`] on an error.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        or_exit(self.try_number(flag))
    }

    /// [`Self::try_parsed`], exiting with [`USAGE_EXIT`] on an error.
    pub fn parsed<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        or_exit(self.try_parsed(flag, parse))
    }

    /// The value of a flag the bin cannot run without, exiting with
    /// [`USAGE_EXIT`] if it is absent or has no value.
    pub fn required(&self, flag: &str) -> String {
        or_exit(
            self.try_value(flag)
                .and_then(|v| v.ok_or_else(|| CliError::MissingFlag { flag: flag.to_string() })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_and_separate_forms_agree() {
        for args in [Args::new(["--secs=12"]), Args::new(["--secs", "12"])] {
            assert_eq!(args.try_value("--secs"), Ok(Some("12".to_string())));
            assert_eq!(args.try_number::<u64>("--secs"), Ok(Some(12)));
        }
        assert_eq!(Args::new(["--seed", "7"]).try_value("--secs"), Ok(None));
    }

    #[test]
    fn missing_value_names_the_flag() {
        let err = Args::new(["--quick", "--secs"]).try_number::<u64>("--secs").unwrap_err();
        assert_eq!(err, CliError::MissingValue { flag: "--secs".to_string() });
        assert_eq!(err.to_string(), "--secs expects a value");
    }

    #[test]
    fn bad_number_names_the_flag_and_value() {
        let err = Args::new(["--jobs=four"]).try_number::<usize>("--jobs").unwrap_err();
        assert_eq!(
            err,
            CliError::BadNumber { flag: "--jobs".to_string(), value: "four".to_string() }
        );
        assert_eq!(err.to_string(), "--jobs expects a number, got \"four\"");
        assert!(parse_number::<f64>("--at", "1.5e0").is_ok());
        assert!(parse_number::<f64>("--at", "soon").is_err());
    }

    #[test]
    fn parser_rejections_name_the_flag() {
        let args = Args::new(["--format", "svg"]);
        let parse = |v: &str| match v {
            "ns2" => Ok(1),
            other => Err(format!("unknown format {other:?}")),
        };
        let err = args.try_parsed("--format", parse).unwrap_err();
        assert_eq!(err.to_string(), "--format: unknown format \"svg\"");
        assert_eq!(Args::new(["--format=ns2"]).try_parsed("--format", parse), Ok(Some(1)));
        assert_eq!(
            CliError::MissingFlag { flag: "--script".into() }.to_string(),
            "--script is required"
        );
    }

    #[test]
    fn switches_and_positionals() {
        let args = Args::new(["out", "--jobs", "2", "--quick", "--trace=t.tr", "extra"]);
        assert!(args.has("--quick"));
        assert!(!args.has("--jobs=2"));
        assert_eq!(args.positionals(&["--jobs", "--trace"]), vec!["out", "extra"]);
        assert_eq!(args.first(), Some("out"));
    }
}
