//! Strict command-line parsing shared by every bench binary.
//!
//! Each binary declares the flags it takes. Anything else — an unknown
//! flag, a missing or malformed value, a value on a switch, or the wrong
//! number of positional arguments — prints the usage line and exits with
//! status 2, so a mistyped `--quick` cannot fall through to a full
//! paper-scale run. Values are written `--name=value` or `--name value`.

use std::collections::BTreeMap;

/// What a flag takes after its name.
#[derive(Clone, Copy, Debug)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A path (any non-empty text).
    Path,
    /// A non-negative integer.
    Count,
    /// A floating-point number.
    Number,
}

/// One flag a binary accepts.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--smoke`.
    pub name: &'static str,
    /// What follows the name.
    pub takes: Takes,
    /// One-line description for the usage text.
    pub help: &'static str,
}

/// `--quick`: the 150-job trace at full geometry.
pub const QUICK: Flag = Flag {
    name: "--quick",
    takes: Takes::Nothing,
    help: "smaller trace, full geometry",
};

/// `--smoke`: the tiny CI geometry and trace.
pub const SMOKE: Flag = Flag {
    name: "--smoke",
    takes: Takes::Nothing,
    help: "tiny geometry and trace (CI); the default output goes under target/",
};

/// `--out=PATH`: where the BENCH report is written.
pub const OUT: Flag = Flag {
    name: "--out",
    takes: Takes::Path,
    help: "report path",
};

#[derive(Debug)]
enum Value {
    Set,
    Path(String),
    Count(u64),
    Number(f64),
}

/// The parsed command line of one binary.
#[derive(Debug)]
pub struct Args {
    declared: Vec<Flag>,
    given: BTreeMap<&'static str, Value>,
    positional: Vec<String>,
}

/// The usage text for `bin` taking `flags` and the named `positional`s.
pub fn usage(bin: &str, flags: &[Flag], positional: &[&str]) -> String {
    let mut line = format!("usage: {bin}");
    for p in positional {
        line += &format!(" {p}");
    }
    for f in flags {
        line += &match f.takes {
            Takes::Nothing => format!(" [{}]", f.name),
            Takes::Path => format!(" [{}=PATH]", f.name),
            Takes::Count => format!(" [{}=N]", f.name),
            Takes::Number => format!(" [{}=X]", f.name),
        };
    }
    for f in flags {
        line += &format!("\n  {:<14} {}", f.name, f.help);
    }
    line
}

/// Parses `args` (program name excluded) against `flags`, expecting exactly
/// `positional.len()` positional arguments.
pub fn parse(
    flags: &[Flag],
    positional: &[&str],
    args: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut parsed = Args {
        declared: flags.to_vec(),
        given: BTreeMap::new(),
        positional: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            parsed.positional.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let flag = flags
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown flag `{name}`"))?;
        let text = match (flag.takes, inline) {
            (Takes::Nothing, None) => {
                parsed.given.insert(flag.name, Value::Set);
                continue;
            }
            (Takes::Nothing, Some(_)) => return Err(format!("{name} takes no value")),
            (_, Some(v)) => v,
            (_, None) => args.next().ok_or_else(|| format!("{name} needs a value"))?,
        };
        let malformed = |kind: &str| format!("{name}: `{text}` is not {kind}");
        let value = match flag.takes {
            Takes::Path if !text.is_empty() => Value::Path(text.clone()),
            Takes::Path => return Err(malformed("a path")),
            Takes::Count => Value::Count(text.parse().map_err(|_| malformed("a count"))?),
            Takes::Number => Value::Number(
                text.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| malformed("a finite number"))?,
            ),
            Takes::Nothing => unreachable!("switches returned above"),
        };
        parsed.given.insert(flag.name, value);
    }
    if parsed.positional.len() != positional.len() {
        return Err(format!(
            "expected {} positional argument(s), got {}",
            positional.len(),
            parsed.positional.len()
        ));
    }
    Ok(parsed)
}

/// [`parse`]s `args` for the binary `bin`; on a usage error prints it with
/// the usage and exits 2.
pub fn args_from(
    bin: &str,
    flags: &[Flag],
    positional: &[&str],
    args: impl IntoIterator<Item = String>,
) -> Args {
    parse(flags, positional, args).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\n{}", usage(bin, flags, positional));
        std::process::exit(2)
    })
}

/// [`args_from`] over the process's own arguments.
pub fn args(flags: &[Flag], positional: &[&str]) -> Args {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let bin = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
    args_from(&bin, flags, positional, argv)
}

impl Args {
    fn get(&self, name: &str) -> Option<&Value> {
        assert!(
            self.declared.iter().any(|f| f.name == name),
            "flag {name} read but never declared"
        );
        self.given.get(name)
    }

    /// True if the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The path given to `name`.
    pub fn path(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Value::Path(p) => Some(p),
            _ => None,
        }
    }

    /// The count given to `name`.
    pub fn count(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The number given to `name`.
    pub fn number(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The positional arguments, as many as were declared.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// True under [`QUICK`].
    pub fn quick(&self) -> bool {
        self.has(QUICK.name)
    }

    /// True under [`SMOKE`].
    pub fn smoke(&self) -> bool {
        self.has(SMOKE.name)
    }

    /// The [`OUT`] path, else `committed` — or `target/<committed>` under
    /// [`SMOKE`], so a smoke run never overwrites the committed full-scale
    /// report at the repository root.
    pub fn out_path(&self, committed: &str) -> String {
        match self.path(OUT.name) {
            Some(p) => p.to_string(),
            None if self.smoke() => format!("target/{committed}"),
            None => committed.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: Flag = Flag {
        name: "--cap-ms",
        takes: Takes::Number,
        help: "",
    };
    const JOBS: Flag = Flag {
        name: "--jobs",
        takes: Takes::Count,
        help: "",
    };

    fn run(flags: &[Flag], positional: &[&str], args: &[&str]) -> Result<Args, String> {
        parse(flags, positional, args.iter().map(|a| a.to_string()))
    }

    fn error(flags: &[Flag], args: &[&str]) -> String {
        run(flags, &[], args).expect_err("must be rejected")
    }

    #[test]
    fn smoke_default_out_goes_under_target() {
        let flags = [SMOKE, OUT];
        let smoke = run(&flags, &[], &["--smoke"]).expect("parses");
        assert_eq!(smoke.out_path("BENCH_10.json"), "target/BENCH_10.json");
        let full = run(&flags, &[], &[]).expect("parses");
        assert_eq!(full.out_path("BENCH_10.json"), "BENCH_10.json");
        for args in [&["--smoke", "--out=x.json"][..], &["--out", "x.json"]] {
            let a = run(&flags, &[], args).expect("parses");
            assert_eq!(a.out_path("BENCH_10.json"), "x.json");
        }
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_rejected() {
        assert_eq!(error(&[QUICK], &["--quik"]), "unknown flag `--quik`");
        assert_eq!(error(&[SMOKE], &["--smok"]), "unknown flag `--smok`");
        assert_eq!(error(&[QUICK], &["--quick=1"]), "--quick takes no value");
        assert_eq!(
            error(&[CAP], &["--cap-ms=abc"]),
            "--cap-ms: `abc` is not a finite number"
        );
        assert_eq!(
            error(&[CAP], &["--cap-ms=inf"]),
            "--cap-ms: `inf` is not a finite number"
        );
        assert_eq!(
            error(&[JOBS], &["--jobs=-3"]),
            "--jobs: `-3` is not a count"
        );
        assert_eq!(error(&[JOBS], &["--jobs"]), "--jobs needs a value");
        assert_eq!(error(&[OUT], &["--out="]), "--out: `` is not a path");
        assert_eq!(
            error(&[], &["stray"]),
            "expected 0 positional argument(s), got 1"
        );
    }

    #[test]
    fn declared_flags_parse_in_both_spellings() {
        let flags = [QUICK, CAP, JOBS];
        let a = run(
            &flags,
            &["<in>"],
            &["in.json", "--jobs", "7", "--cap-ms=2.5"],
        )
        .expect("parses");
        assert_eq!(a.count("--jobs"), Some(7));
        assert_eq!(a.number("--cap-ms"), Some(2.5));
        assert!(!a.quick());
        assert_eq!(a.positional(), ["in.json"]);
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        run(&[QUICK], &[], &[]).expect("parses").smoke();
    }
}
