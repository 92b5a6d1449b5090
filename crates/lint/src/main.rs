//! repo-lint CLI: rustc-style diagnostics, non-zero exit on violations.
//!
//! ```text
//! repo-lint [--root <dir>] [--rule <id>] [--list-rules]
//! ```
//!
//! With no flags it analyzes the enclosing workspace, which must be clean.

use std::process::ExitCode;

use lint::{analyze, find_root, RULES};

struct Args {
    root: Option<String>,
    rule: Option<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        rule: None,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "--root" => args.root = Some(take("--root")?),
            "--rule" => args.rule = Some(take("--rule")?),
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "repo-lint: workspace static analysis\n\n\
                     USAGE: repo-lint [--root <dir>] [--rule <id>] [--list-rules]\n\n\
                     Exits 0 when clean, 1 on findings, 2 on usage/IO errors.\n\
                     Suppress a single finding with `// lint:allow(<rule>): <reason>`\n\
                     on the offending line or the line above it."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (id, desc) in RULES {
            println!("{id:<22} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let root = find_root(args.root.as_deref());
    let findings = match analyze(&root, args.rule.as_deref()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("repo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("repo-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("repo-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
