//! Shared line-codec machinery for the on-disk artifact formats.
//!
//! Both persistent formats of this crate — the [`crate::Publication`]
//! artifact and the insert WAL of [`crate::stream`] — follow the same
//! codec discipline: line-oriented, tab-separated, a versioned magic
//! line up front, `parse ∘ encode = id` over every representable value.
//! This module holds the pieces they share: a position-tracking line
//! reader, `key\tv1\tv2...` field parsing, the token check for writable
//! strings, the perturbation section (`p`, `lambda` and `delta` lines,
//! validated once) and the schema section (`attrs` + `attr` lines) both
//! formats embed so either file is self-describing, and the code-row
//! codec.
//!
//! A *code row* is tab-separated `u32` dictionary codes: an artifact's
//! records, a WAL event's codes, a group key. An artifact's records are
//! read and written as bytes: [`Lines::block`] lends the reader's buffered
//! block to `TableBuilder::push_code_rows`, which parses every whole row
//! it takes straight into the table's columns, with no copy of the line,
//! and [`write_code_row`] formats them without `fmt`. A row that parser
//! does not take, like every WAL and group-key code, goes through
//! [`parse_codes`] as text, so each form `str::parse::<u32>` accepts (a
//! leading `+`, long runs of leading zeros, a `\r\n` end) still loads and
//! each rejection carries that parser's exact message and line. So does a
//! row that crosses the end of the reader's buffer.
//!
//! The module also holds the digit writers. Integers are written by digit
//! pairs (code rows, and the wire's `u64` fields). Every float that
//! reaches the wire or an artifact goes through [`canon_f64`], one
//! in-tree shortest-round-trip writer: Ryu's digits over power-of-five
//! tables computed at compile time, laid out with their sign, point and
//! zeros in one stack buffer that is pushed to the output once. Its output is byte-identical to
//! `f64`'s `Display`, the format these files have always used, ties
//! included: an exact tie between two shortest candidates takes the upper
//! one, as `Display` does. The tests check it against `Display` itself.

use std::fmt;
use std::io::{self, BufRead, Write};

use rp_core::privacy::PrivacyParams;
use rp_table::{Attribute, Schema};

use crate::publication::PublicationError;

/// Canonical float formatting: every `f64` that reaches an artifact or
/// the wire is rendered through this one adapter, so float bytes have
/// exactly one producer and the `canonical-floats` lint can recognize
/// routed values.
///
/// The rendering is the format these files have always used, `f64`'s
/// `Display`, produced by this module's own writer: Ryu's shortest
/// round-trip digits (Ulf Adams, *Ryū: fast float-to-string conversion*,
/// PLDI 2018) laid out in plain positional notation, never in exponent
/// form, with `-0`, `NaN`, `inf` and `-inf` spelled as `Display` spells
/// them. The one departure from textbook Ryu is the tie rule: when the
/// exact value lies halfway between the two nearest shortest candidates,
/// `Display` takes the upper one (`2181495296738027.25` prints
/// `2181495296738027.3`), so the writer rounds ties up, not to even. The
/// tests check it against `Display` byte for byte over random bit
/// patterns, every exponent and the exact-tie class.
pub fn canon_f64(v: f64) -> CanonF64 {
    CanonF64(v)
}

/// An `f64` rendered canonically: see [`canon_f64`].
#[derive(Debug, Clone, Copy)]
pub struct CanonF64(f64);

/// Renderings up to this long are laid out on the stack; longer ones
/// (magnitudes past about `1e30` or below about `1e-20`) in a heap buffer
/// of their exact length.
const CANON_STACK_LEN: usize = 40;

impl CanonF64 {
    /// Appends the canonical rendering to `out`: sign, digits, point and
    /// zeros are laid out in one buffer pre-filled with `0`s, then pushed
    /// at once.
    pub fn append_to(self, out: &mut String) {
        let v = self.0;
        let negative = v.is_sign_negative();
        if v.is_nan() {
            return out.push_str("NaN");
        }
        if v.is_infinite() {
            return out.push_str(if negative { "-inf" } else { "inf" });
        }
        if v == 0.0 {
            return out.push_str(if negative { "-0" } else { "0" });
        }
        let (mantissa, exponent) = shortest(v.to_bits());
        let digits = decimal_len(mantissa);
        let at = usize::from(negative);
        // The value is `0.d₁…dₙ × 10^point`: `point` digits lead the point.
        let point = digits as i32 + exponent;
        let len = if exponent >= 0 {
            at + digits + exponent as usize
        } else if point > 0 {
            at + digits + 1
        } else {
            at + 2 + point.unsigned_abs() as usize + digits
        };
        let mut stack = [b'0'; CANON_STACK_LEN];
        let mut heap = Vec::new();
        let buf = match stack.get_mut(..len) {
            Some(buf) => buf,
            None => {
                heap.resize(len, b'0');
                &mut heap[..]
            }
        };
        if negative {
            buf[0] = b'-';
        }
        if exponent >= 0 {
            // Digits, then `exponent` zeros.
            write_digits(mantissa, &mut buf[at..at + digits]);
        } else if point > 0 {
            // The digits one place right, then the whole part back left
            // over the gap it leaves for the point.
            let point = point as usize;
            write_digits(mantissa, &mut buf[at + 1..]);
            buf.copy_within(at + 1..at + 1 + point, at);
            buf[at + point] = b'.';
        } else {
            // `0.`, then `-point` zeros, then the digits.
            buf[at + 1] = b'.';
            write_digits(mantissa, &mut buf[len - digits..]);
        }
        push_ascii(out, buf);
    }
}

impl fmt::Display for CanonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(24);
        self.append_to(&mut s);
        f.write_str(&s)
    }
}

/// Appends `v`'s decimal digits to `out`.
pub(crate) fn put_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let digits = &mut buf[..decimal_len(v)];
    write_digits(v, digits);
    push_ascii(out, digits);
}

/// Appends the digit writers' output, which is ASCII, to a `String`.
fn push_ascii(out: &mut String, ascii: &[u8]) {
    match std::str::from_utf8(ascii) {
        Ok(text) => out.push_str(text),
        Err(_) => unreachable!("the digit writers emit ASCII"),
    }
}

/// `"00"`, `"01"`, …, `"99"` back to back: the two digits of `n < 100`
/// start at `2n`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// The number of decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Fills `dst` with the last `dst.len()` decimal digits of `v`: eight at a
/// time in 32-bit arithmetic, as four independent digit pairs, then pair
/// by pair.
fn write_digits(mut v: u64, dst: &mut [u8]) {
    let pair = |n: u32| {
        let at = n as usize * 2;
        [DIGIT_PAIRS[at], DIGIT_PAIRS[at + 1]]
    };
    let mut end = dst.len();
    while end >= 8 {
        let chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (hi, lo) = (chunk / 10_000, chunk % 10_000);
        let [a, b] = pair(hi / 100);
        let [c, d] = pair(hi % 100);
        let [e, f] = pair(lo / 100);
        let [g, h] = pair(lo % 100);
        dst[end - 8..end].copy_from_slice(&[a, b, c, d, e, f, g, h]);
        end -= 8;
    }
    let mut v = v as u32;
    while end >= 2 {
        dst[end - 2..end].copy_from_slice(&pair(v % 100));
        v /= 100;
        end -= 2;
    }
    if end == 1 {
        dst[0] = b'0' + (v % 10) as u8;
    }
}

// Ryu's d2s: the shortest decimal in the rounding interval of a double,
// through 128-bit products with tables of powers of five.

/// Bits kept of each power of five in [`POW5_SPLIT`].
const POW5_BITCOUNT: i32 = 125;
/// Bits kept of each inverse power of five in [`POW5_INV_SPLIT`].
const POW5_INV_BITCOUNT: i32 = 125;

/// `POW5_SPLIT[i]`: the top 125 bits of `5^i`, for the negative binary
/// exponents.
static POW5_SPLIT: [u128; 326] = pow5_split();

/// `POW5_INV_SPLIT[i]`: `⌊2^j / 5^i⌋ + 1` with `j = bits(5^i) − 1 + 125`,
/// for the non-negative binary exponents.
static POW5_INV_SPLIT: [u128; 342] = pow5_inv_split();

/// A little-endian natural number in 32-bit limbs, wide enough for
/// `2^1152` and `5^342`: the compile-time table builders' arithmetic.
type Big = [u32; 40];

/// `x ← 5x`.
const fn big_mul5(x: &mut Big) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < x.len() {
        let t = x[i] as u64 * 5 + carry;
        x[i] = t as u32;
        carry = t >> 32;
        i += 1;
    }
}

/// `x ← ⌊x / 5⌋`.
const fn big_div5(x: &mut Big) {
    let mut rem = 0u64;
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        let t = (rem << 32) | x[i] as u64;
        x[i] = (t / 5) as u32;
        rem = t % 5;
    }
}

/// The bit length of `x`.
const fn big_bits(x: &Big) -> u32 {
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 32 * i as u32 + 32 - x[i].leading_zeros();
        }
    }
    0
}

/// `⌊x / 2^shift⌋ mod 2^128`.
const fn big_shr(x: &Big, shift: u32) -> u128 {
    let (limb, off) = ((shift / 32) as usize, shift % 32);
    let mut r = 0u128;
    let mut t = 0;
    while t < 4 && limb + t < x.len() {
        r |= (x[limb + t] as u128) << (32 * t);
        t += 1;
    }
    r >>= off;
    if off > 0 && limb + 4 < x.len() {
        r |= (x[limb + 4] as u128) << (128 - off);
    }
    r
}

/// Builds [`POW5_SPLIT`] from `5^i` by repeated multiplication.
const fn pow5_split() -> [u128; 326] {
    let mut table = [0u128; 326];
    let mut pow: Big = [0; 40];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = big_bits(&pow);
        table[i] = if bits >= POW5_BITCOUNT as u32 {
            big_shr(&pow, bits - POW5_BITCOUNT as u32)
        } else {
            big_shr(&pow, 0) << (POW5_BITCOUNT as u32 - bits)
        };
        big_mul5(&mut pow);
        i += 1;
    }
    table
}

/// Builds [`POW5_INV_SPLIT`]: `⌊2^1152 / 5^i⌋` by repeated exact division
/// by five, then shifted down to `⌊2^j / 5^i⌋` (nested floors are exact).
const fn pow5_inv_split() -> [u128; 342] {
    const TOP: u32 = 1152;
    let mut table = [0u128; 342];
    let mut pow: Big = [0; 40];
    pow[0] = 1;
    let mut inv: Big = [0; 40];
    inv[(TOP / 32) as usize] = 1;
    let mut i = 0;
    while i < table.len() {
        let j = big_bits(&pow) - 1 + POW5_INV_BITCOUNT as u32;
        table[i] = big_shr(&inv, TOP - j) + 1;
        big_mul5(&mut pow);
        big_div5(&mut inv);
        i += 1;
    }
    table
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

/// `⌈log2(5^e)⌉` for `1 ≤ e ≤ 3528` (and 1 for `e = 0`).
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// `⌊m · mul / 2^j⌋` for a 125-bit table entry and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Whether `5^p` divides `v` (`p ≤ 21`).
fn multiple_of_pow5(v: u64, p: u32) -> bool {
    v.is_multiple_of(5u64.pow(p))
}

/// Ryu's shortest `(mantissa, exponent)`, `mantissa · 10^exponent`, of the
/// finite nonzero double with bits `bits` (the sign is ignored): the
/// fewest digits that read back to the same double, and of those the
/// nearest to it, exact ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even reading: an even mantissa owns its interval's bounds.
    let accept_bounds = m2 & 1 == 0;
    // The interval is `[mv − 1 − mm_shift, mv + 2]` in units of 2^e2; its
    // lower half is narrower just above a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // `vr`, `vp`, `vm`: the value and the bounds in units of 10^e10. Only
    // whether the lower bound is exact matters past this point: with ties
    // rounded up, an exact `vr` rounds as an inexact one does.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of the three is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_trailing_zeros {
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
    } else {
        if vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Take `vr + 1` when `vr` fell outside the interval or the dropped
    // digits were at least half a unit.
    let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    (vr + u64::from(below || last_removed >= 5), e10 + removed)
}

/// Refuses strings that cannot ride a tab-separated line format.
pub(crate) fn check_writable(s: &str) -> Result<(), PublicationError> {
    if s.contains('\t') || s.contains('\n') || s.contains('\r') {
        return Err(PublicationError::Unrepresentable(s.to_string()));
    }
    Ok(())
}

/// Writes the perturbation section both formats record: the `p`,
/// `lambda` and `delta` lines.
pub(crate) fn write_params<W: Write>(mut w: W, p: f64, params: PrivacyParams) -> io::Result<()> {
    writeln!(w, "p\t{}", canon_f64(p))?;
    writeln!(w, "lambda\t{}", canon_f64(params.lambda()))?;
    writeln!(w, "delta\t{}", canon_f64(params.delta()))
}

/// Reads the perturbation section written by [`write_params`]: the
/// retention `p`, which must lie in (0, 1), and the `(λ, δ)` requirement,
/// with `λ` positive and finite and `δ` in (0, 1].
pub(crate) fn read_params<R: BufRead>(
    lines: &mut Lines<R>,
) -> Result<(f64, PrivacyParams), PublicationError> {
    let p: f64 = lines.field("p")?.parse_one()?;
    if !(p > 0.0 && p < 1.0) {
        return Err(lines.err(format!("retention p must lie in (0, 1), got {p}")));
    }
    let lambda: f64 = lines.field("lambda")?.parse_one()?;
    if !(lambda > 0.0 && lambda.is_finite()) {
        return Err(lines.err(format!("lambda must be positive and finite, got {lambda}")));
    }
    let delta: f64 = lines.field("delta")?.parse_one()?;
    if !(delta > 0.0 && delta <= 1.0) {
        return Err(lines.err(format!("delta must lie in (0, 1], got {delta}")));
    }
    Ok((p, PrivacyParams::new(lambda, delta)))
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
    let mut buf = [0u8; 10];
    for (i, code) in codes.enumerate() {
        if i > 0 {
            out.push(b'\t');
        }
        let digits = &mut buf[..decimal_len(code.into())];
        write_digits(code.into(), digits);
        out.extend_from_slice(digits);
    }
    out.push(b'\n');
}

/// Line reader with position tracking for error messages. Lines are read
/// as bytes into one reused buffer. A line read as text is checked as
/// UTF-8, failing with the I/O error `read_line` raises; record rows are
/// parsed in the reader's own buffer, and one is checked only if the byte
/// parser does not take it.
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

    /// The reader's buffered bytes, refilled only when none are left: the
    /// block `TableBuilder::push_code_rows` parses in place. A row that
    /// runs past the block's end stays for [`Lines::next_row_codes`]. An
    /// interrupted read is retried, as `read_until` retries it.
    pub(crate) fn block(&mut self) -> Result<&[u8], PublicationError> {
        while let Err(e) = self.inner.fill_buf() {
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e.into());
            }
        }
        Ok(self.inner.fill_buf()?)
    }

    /// Consumes the `bytes` of the `rows` whole rows taken from
    /// [`Lines::block`].
    pub(crate) fn consume_rows(&mut self, rows: usize, bytes: usize) {
        self.inner.consume(bytes);
        self.line_no += rows;
    }

    /// Reads the next record row and parses it as text into `codes`
    /// (cleared first): the path of a row the block parser did not take.
    pub(crate) fn next_row_codes(&mut self, codes: &mut Vec<u32>) -> Result<(), PublicationError> {
        self.advance()?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(v: f64) -> String {
        let mut out = String::new();
        canon_f64(v).append_to(&mut out);
        out
    }

    /// The writer against `Display`, the format it replaces.
    fn assert_display(v: f64) {
        assert_eq!(canon(v), v.to_string(), "bits {:#018x}", v.to_bits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        #[test]
        fn writer_matches_display_on_random_bit_patterns(bits in proptest::any::<u64>()) {
            let v = f64::from_bits(bits);
            proptest::prop_assert_eq!(canon(v), v.to_string());
        }

        #[test]
        fn u64_writer_matches_display(v in proptest::any::<u64>()) {
            let mut out = String::new();
            put_u64(&mut out, v);
            proptest::prop_assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn writer_matches_display_at_every_exponent_and_edge_mantissa() {
        let mantissas = [0, 1, 2, 1 << 51, (1 << 52) - 1];
        for exponent in 0..=2046u64 {
            for &mantissa in &mantissas {
                for sign in [0, 1u64 << 63] {
                    assert_display(f64::from_bits(sign | exponent << 52 | mantissa));
                }
            }
        }
    }

    /// Between 2^50 and 2^53 the spacing is 1/4, 1/2 or 1, so quarter,
    /// half and whole values are exact, and many sit exactly halfway
    /// between two shortest candidates: `Display` rounds those up.
    #[test]
    fn writer_rounds_exact_ties_up_as_display_does() {
        let tie = f64::from_bits(0x431f_003b_d0f7_0bad);
        assert_eq!(tie - 0.25, 2181495296738027.0, "an exact quarter");
        assert_eq!(canon(tie), "2181495296738027.3");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let whole = (1u64 << 50) + (state >> 11) % ((1 << 53) - (1 << 50));
            for frac in [0.0, 0.25, 0.5, 0.75] {
                assert_display(whole as f64 + frac);
            }
        }
    }

    #[test]
    fn writer_golden_literals() {
        let zeros = |n| "0".repeat(n);
        assert_eq!(canon(1e23), format!("1{}", zeros(23)));
        assert_eq!(canon(5e-324), format!("0.{}5", zeros(323)));
        assert_eq!(
            canon(f64::MIN_POSITIVE),
            format!("0.{}22250738585072014", zeros(307))
        );
        assert_eq!(canon(f64::MAX), format!("17976931348623157{}", zeros(292)));
        assert_eq!(canon(-0.0), "-0");
        assert_eq!(canon(0.0), "0");
        assert_eq!(canon(f64::NAN), "NaN");
        assert_eq!(canon(-f64::NAN), "NaN");
        assert_eq!(canon(f64::INFINITY), "inf");
        assert_eq!(canon(f64::NEG_INFINITY), "-inf");
        assert_eq!(canon(0.1), "0.1");
        assert_eq!(canon(-1.5), "-1.5");
        assert_eq!(canon(100.0), "100");
        assert_eq!(format!("p\t{}", canon_f64(0.3)), "p\t0.3");
    }

    /// The compile-time tables against Ryu's `d2s_full_table.h` (the first
    /// entries) and arbitrary-precision evaluations of the same formulas
    /// (the last entries).
    #[test]
    fn pow5_tables_match_reference_entries() {
        assert_eq!(POW5_SPLIT[0], 0x1000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(POW5_SPLIT[1], 0x1400_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(POW5_SPLIT[325], 0x18b4_0a4e_ec43_7c52_78e1_316e_60a4_8310);
        assert_eq!(POW5_INV_SPLIT[0], 0x2000_0000_0000_0000_0000_0000_0000_0001);
        assert_eq!(POW5_INV_SPLIT[1], 0x1999_9999_9999_9999_9999_9999_9999_999a);
        assert_eq!(
            POW5_INV_SPLIT[341],
            0x12ab_168c_c36c_acbf_0958_f94b_3484_98a1
        );
    }

    #[test]
    fn code_rows_are_tab_separated_digits() {
        let mut out = Vec::new();
        write_code_row(&mut out, [0, 7, 42, 100, u32::MAX].into_iter());
        assert_eq!(out, b"0\t7\t42\t100\t4294967295\n");
    }
}
