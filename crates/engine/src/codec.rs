//! Shared line-codec machinery for the on-disk artifact formats.
//!
//! Both persistent formats of this crate — the [`crate::Publication`]
//! artifact and the insert WAL of [`crate::stream`] — follow the same
//! codec discipline: line-oriented, tab-separated, a versioned magic
//! line up front, `parse ∘ encode = id` over every representable value.
//! This module holds the pieces they share: a position-tracking line
//! reader, `key\tv1\tv2...` field parsing, the token check for writable
//! strings, the schema section (`attrs` + `attr` lines) both formats
//! embed so either file is self-describing, and the code-row codec.
//!
//! A *code row* is tab-separated `u32` dictionary codes: an artifact's
//! records, a WAL event's codes, a group key. An artifact's records are
//! read and written as bytes: [`Lines::next_row`] hands each row's bytes
//! to `TableBuilder::push_code_row`, which parses the digits straight into
//! the table's columns, and [`write_code_row`] formats them without `fmt`.
//! A row that parser does not take, like every WAL and group-key code,
//! goes through [`parse_codes`] as text, so each form `str::parse::<u32>`
//! accepts (a leading `+`, long runs of leading zeros) still loads and
//! each rejection carries that parser's exact message.

use std::fmt;
use std::io::{self, BufRead, Write};

use rp_table::{Attribute, Schema};

use crate::publication::PublicationError;

/// Canonical float formatting: every `f64` that reaches an artifact or
/// the wire is rendered through this one adapter, so float bytes have
/// exactly one producer and the `canonical-floats` lint can recognize
/// routed values. The rendering is Rust's shortest-roundtrip `Display`
/// — byte-identical to the format these files have always used.
pub(crate) fn canon_f64(v: f64) -> CanonF64 {
    CanonF64(v)
}

/// See [`canon_f64`].
pub(crate) struct CanonF64(f64);

impl fmt::Display for CanonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Refuses strings that cannot ride a tab-separated line format.
pub(crate) fn check_writable(s: &str) -> Result<(), PublicationError> {
    if s.contains('\t') || s.contains('\n') || s.contains('\r') {
        return Err(PublicationError::Unrepresentable(s.to_string()));
    }
    Ok(())
}

/// Writes the schema section: one `attrs` count line, then one `attr`
/// line per attribute (name followed by its domain values).
pub(crate) fn write_schema<W: Write>(mut w: W, schema: &Schema) -> Result<(), PublicationError> {
    for (_, attr) in schema.iter() {
        check_writable(attr.name())?;
        for v in attr.dictionary().values() {
            check_writable(v)?;
        }
    }
    writeln!(w, "attrs\t{}", schema.arity())?;
    for (_, attr) in schema.iter() {
        write!(w, "attr\t{}", attr.name())?;
        for v in attr.dictionary().values() {
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads the schema section written by [`write_schema`], returning the
/// attributes in order. Callers apply their own shape validation (SA
/// range, minimum arity) on top.
pub(crate) fn read_schema<R: BufRead>(
    lines: &mut Lines<R>,
) -> Result<Vec<Attribute>, PublicationError> {
    let arity: usize = lines.field("attrs")?.parse_one()?;
    // The count is untrusted: cap the pre-allocation so a corrupt header
    // cannot trigger a capacity-overflow panic or a huge reservation (a
    // real arity past the cap still loads, slower).
    let mut attributes = Vec::with_capacity(arity.min(1 << 10));
    for _ in 0..arity {
        let f = lines.field("attr")?;
        if f.values.is_empty() {
            return Err(f.error("attr line needs a name"));
        }
        attributes.push(Attribute::new(f.values[0], f.values[1..].iter().copied()));
    }
    Ok(attributes)
}

/// Parses one code token; a rejection reads ``bad {what} `{token}`: {e}``
/// with `e` the `str::parse::<u32>` error.
pub(crate) fn parse_code(token: &str, what: &str) -> Result<u32, String> {
    token
        .parse()
        .map_err(|e| format!("bad {what} `{token}`: {e}"))
}

/// Appends code tokens to `codes`, stopping at the first bad one.
pub(crate) fn parse_codes<'a>(
    tokens: impl Iterator<Item = &'a str>,
    codes: &mut Vec<u32>,
) -> Result<(), String> {
    for token in tokens {
        codes.push(parse_code(token, "code")?);
    }
    Ok(())
}

/// Appends one code row, newline included, to `out`.
pub(crate) fn write_code_row(out: &mut Vec<u8>, codes: impl Iterator<Item = u32>) {
    for (i, mut code) in codes.enumerate() {
        if i > 0 {
            out.push(b'\t');
        }
        let mut digits = [0u8; 10];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (code % 10) as u8;
            code /= 10;
            if code == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[start..]);
    }
    out.push(b'\n');
}

/// Line reader with position tracking for error messages. Lines are read
/// as bytes into one reused buffer. A line read as text is checked as
/// UTF-8, failing with the I/O error `read_line` raises; a record row is
/// checked only if the byte parser does not take it.
pub(crate) struct Lines<R> {
    inner: R,
    pub(crate) line_no: usize,
    buf: Vec<u8>,
}

/// One parsed `key\tv1\tv2...` metadata line.
pub(crate) struct Field<'a> {
    pub(crate) key: &'a str,
    pub(crate) values: Vec<&'a str>,
    pub(crate) line: usize,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(inner: R) -> Self {
        Self {
            inner,
            line_no: 0,
            buf: Vec::new(),
        }
    }

    pub(crate) fn err(&self, message: String) -> PublicationError {
        PublicationError::Format {
            line: self.line_no,
            message,
        }
    }

    /// Reads the next line's bytes, terminator included, into the buffer.
    fn advance(&mut self) -> Result<(), PublicationError> {
        self.buf.clear();
        let n = self.inner.read_until(b'\n', &mut self.buf)?;
        self.line_no += 1;
        if n == 0 {
            return Err(self.err("unexpected end of input".to_string()));
        }
        Ok(())
    }

    /// The buffered line as text, without its `\n`/`\r` terminator.
    fn text(&self) -> Result<&str, PublicationError> {
        let text = std::str::from_utf8(&self.buf).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(text.trim_end_matches(['\n', '\r']))
    }

    pub(crate) fn next_line(&mut self) -> Result<&str, PublicationError> {
        self.advance()?;
        self.text()
    }

    /// Reads the next line as bytes without its `\n`/`\r` terminator:
    /// a record row for `TableBuilder::push_code_row`.
    pub(crate) fn next_row(&mut self) -> Result<&[u8], PublicationError> {
        self.advance()?;
        let end = self
            .buf
            .iter()
            .rposition(|&b| b != b'\n' && b != b'\r')
            .map_or(0, |i| i + 1);
        Ok(&self.buf[..end])
    }

    /// Parses the row [`Lines::next_row`] read as text into `codes`
    /// (cleared first): the path of a row the byte parser did not take.
    pub(crate) fn row_codes(&self, codes: &mut Vec<u32>) -> Result<(), PublicationError> {
        codes.clear();
        parse_codes(self.text()?.split('\t'), codes).map_err(|message| self.err(message))
    }

    pub(crate) fn expect_eof(&mut self) -> Result<(), PublicationError> {
        self.buf.clear();
        if self.inner.read_until(b'\n', &mut self.buf)? != 0 {
            // A tail that is not UTF-8 fails as `read_line` failed on it.
            self.text()?;
            return Err(PublicationError::Format {
                line: self.line_no + 1,
                message: "trailing content after the declared row count".to_string(),
            });
        }
        Ok(())
    }

    pub(crate) fn field(&mut self, key: &'static str) -> Result<Field<'_>, PublicationError> {
        let line_no = self.line_no + 1;
        let line = self.next_line()?;
        let mut parts = line.split('\t');
        let got = parts.next().unwrap_or("");
        if got != key {
            return Err(PublicationError::Format {
                line: line_no,
                message: format!("expected `{key}` line, got `{got}`"),
            });
        }
        Ok(Field {
            key,
            values: parts.collect(),
            line: line_no,
        })
    }
}

impl Field<'_> {
    pub(crate) fn error(&self, message: impl Into<String>) -> PublicationError {
        PublicationError::Format {
            line: self.line,
            message: message.into(),
        }
    }

    pub(crate) fn parse_at<T: std::str::FromStr>(&self, i: usize) -> Result<T, PublicationError>
    where
        T::Err: fmt::Display,
    {
        let raw = self
            .values
            .get(i)
            .ok_or_else(|| self.error(format!("`{}` line needs field {i}", self.key)))?;
        raw.parse()
            .map_err(|e| self.error(format!("bad `{}` field `{raw}`: {e}", self.key)))
    }

    pub(crate) fn parse_one<T: std::str::FromStr>(&self) -> Result<T, PublicationError>
    where
        T::Err: fmt::Display,
    {
        if self.values.len() != 1 {
            return Err(self.error(format!(
                "`{}` line needs exactly one value, got {}",
                self.key,
                self.values.len()
            )));
        }
        self.parse_at(0)
    }
}
