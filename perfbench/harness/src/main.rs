//! `perfbench` — the compiled half of the end-to-end benchmark.
//!
//! `perfbench/run.py` drives the real `rpctl` binaries and calls this
//! program for everything that must not be written in Python:
//!
//! ```text
//! perfbench gen   --seed N --scale full|toy --out DIR
//! perfbench load  --mode hot|batch --addr HOST:PORT --dir DIR --seed N ...
//! perfbench trace --workload NAME --dir DIR --work DIR --seed N --scale full|toy
//! ```
//!
//! Every subcommand prints one JSON object on stdout; diagnostics go to
//! stderr.

mod gen;
mod load;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// `--key value` pairs after the subcommand.
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Self { values })
    }

    /// A required string flag.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    /// An optional string flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required number flag.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} wants a number"))
    }

    /// A number flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number")),
        }
    }
}

/// Derives an independent sub-seed for one input stream (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A flat JSON object built field by field (numbers, strings, nested
/// objects); enough for the few result shapes this program prints.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    /// A float field; non-finite values are written as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// A string field (escaped for quotes, backslashes and controls).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.body.push('"');
        for c in value.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.body, "\\u{:04x}", c as u32);
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, value: &Json) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.body)
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 100]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted float list (`NaN` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench gen|load|trace --flag value ...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        return usage();
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "gen" => gen::run(&args),
        "load" => load::run(&args),
        "trace" => trace::run(&args),
        _ => return usage(),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
