//! Selection bitmaps: one bit per row (or per group key) for every
//! `(attribute, code)` pair, combined with bitwise AND to evaluate
//! conjunctive patterns 64 rows at a time.
//!
//! This is the vectorized counterpart of [`Pattern::matches_row`]'s
//! row-at-a-time scan: a [`BitmapIndex`] is built column by column in one
//! pass, and every conjunctive selection afterwards is one word-wide AND
//! loop. [`BitmapIndex::for_each_match_word`] is the only matcher: it ANDs
//! the term bitmaps' words into a stack buffer and hands each result word
//! to its caller, so no selection clones or allocates a [`Bitmap`]; every
//! other selection (`select`, `count`, `support_and_observed`) is a fold
//! over its words. The same structure doubles as the *group-key* match
//! index behind `rp-core`'s `GroupedView` and the query engine's prepared
//! pools, where each bit stands for one personal group instead of one row.
//! Quantified by the `matching` bench group (`bench_matching`).

use crate::predicate::{Pattern, Term};
use crate::query::CountQuery;
use crate::schema::AttrId;
use crate::table::Table;

/// A fixed-length bit set over row (or group) indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap over `len` positions.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// An all-ones bitmap over `len` positions (tail bits stay clear so
    /// [`Bitmap::count_ones`] is exact).
    pub fn ones(len: usize) -> Self {
        let mut bitmap = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bitmap.mask_tail();
        bitmap
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of positions (not set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range for length {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for length {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// The raw 64-bit words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }
}

/// Per-`(attribute, code)` selection bitmaps over a sequence of coded rows.
///
/// Built column by column — one pass per indexed attribute — and queried by
/// ANDing the bitmaps named by a pattern's equality terms. Semantics mirror
/// [`Pattern::matches_key`]: attributes the index does not cover (and
/// wildcard terms) constrain nothing, and a code outside the indexed domain
/// matches no position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapIndex {
    len: usize,
    attrs: Vec<AttrId>,
    /// `bitmaps[attr_pos][code]`, aligned with `attrs`.
    bitmaps: Vec<Vec<Bitmap>>,
}

impl BitmapIndex {
    /// Builds the index over every attribute of `table`, one column pass
    /// per attribute.
    pub fn build(table: &Table) -> Self {
        let attrs: Vec<AttrId> = (0..table.schema().arity()).collect();
        let columns: Vec<&[u32]> = attrs.iter().map(|&a| table.column(a).codes()).collect();
        let domains: Vec<usize> = attrs
            .iter()
            .map(|&a| table.schema().attribute(a).domain_size())
            .collect();
        Self::from_columns(&attrs, &columns, &domains)
    }

    /// Builds the index from parallel code columns (one slice per attribute
    /// in `attrs`), `domains[i]` giving the code domain of `attrs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not parallel or a code exceeds its domain.
    pub fn from_columns(attrs: &[AttrId], columns: &[&[u32]], domains: &[usize]) -> Self {
        assert_eq!(attrs.len(), columns.len(), "attrs and columns parallel");
        assert_eq!(attrs.len(), domains.len(), "attrs and domains parallel");
        let len = columns.first().map_or(0, |c| c.len());
        for c in columns {
            assert_eq!(c.len(), len, "columns must have equal length");
        }
        let bitmaps = columns
            .iter()
            .zip(domains)
            .map(|(&column, &domain)| {
                let mut per_code = vec![Bitmap::zeros(len); domain];
                for (i, &code) in column.iter().enumerate() {
                    assert!(
                        (code as usize) < domain,
                        "code {code} out of range for domain {domain}"
                    );
                    per_code[code as usize].words[i / 64] |= 1u64 << (i % 64);
                }
                per_code
            })
            .collect();
        Self {
            len,
            attrs: attrs.to_vec(),
            bitmaps,
        }
    }

    /// Number of indexed positions (rows or group keys).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bitmap of `(attr, code)`, if the attribute is indexed and the
    /// code within its domain.
    pub fn bitmap(&self, attr: AttrId, code: u32) -> Option<&Bitmap> {
        let pos = self.attrs.iter().position(|&a| a == attr)?;
        self.bitmaps[pos].get(code as usize)
    }

    /// The one matcher behind every selection: calls `f(w, word)` for each
    /// 64-position word `w` of the pattern's match set, in ascending order.
    /// Each word is the AND of the words of the bitmaps named by the
    /// pattern's equality terms, computed into a stack buffer a chunk of
    /// words at a time, so no [`Bitmap`] is cloned or allocated. A pattern
    /// that constrains no indexed attribute matches every position; a
    /// code outside the indexed domain matches none, and `f` is never
    /// called. Bits past [`BitmapIndex::len`] are always clear.
    pub fn for_each_match_word(&self, pattern: &Pattern, mut f: impl FnMut(usize, u64)) {
        const CHUNK_WORDS: usize = 64;
        let words = self.len.div_ceil(64);
        let mut buf = [0u64; CHUNK_WORDS];
        for start in (0..words).step_by(CHUNK_WORDS) {
            let chunk = &mut buf[..CHUNK_WORDS.min(words - start)];
            chunk.fill(u64::MAX);
            // Every chunk reads every term, so an out-of-domain code is
            // seen in the first chunk, before `f` is first called.
            for &(attr, term) in pattern.terms() {
                let Term::Value(code) = term else { continue };
                let Some(pos) = self.attrs.iter().position(|&a| a == attr) else {
                    continue;
                };
                let Some(bitmap) = self.bitmaps[pos].get(code as usize) else {
                    return;
                };
                for (acc, &word) in chunk.iter_mut().zip(&bitmap.words[start..]) {
                    *acc &= word;
                }
            }
            if start + chunk.len() == words && !self.len.is_multiple_of(64) {
                chunk[chunk.len() - 1] &= (1u64 << (self.len % 64)) - 1;
            }
            for (i, &word) in chunk.iter().enumerate() {
                f(start + i, word);
            }
        }
    }

    /// Calls `f(position)` for each position matching the pattern, in
    /// ascending order (see [`BitmapIndex::for_each_match_word`]).
    pub fn for_each_match(&self, pattern: &Pattern, mut f: impl FnMut(usize)) {
        self.for_each_match_word(pattern, |w, mut word| {
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        });
    }

    /// Indices matching the pattern, ascending — bitmap counterpart of
    /// [`Pattern::select`].
    pub fn select(&self, pattern: &Pattern) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |i| out.push(i as u32));
        out
    }

    /// Matching-position count — bitmap counterpart of [`Pattern::count`].
    pub fn count(&self, pattern: &Pattern) -> u64 {
        let mut count = 0;
        self.for_each_match_word(pattern, |_, word| count += u64::from(word.count_ones()));
        count
    }

    /// `(support, observed)` of a count query: positions matching the `NA`
    /// pattern, and of those the ones carrying `SA = sa_value` — the bitmap
    /// counterpart of [`CountQuery::answer_with_support`].
    ///
    /// # Panics
    ///
    /// Panics if the query's SA attribute is not covered by this index:
    /// unindexed attributes are "unconstrained" for `NA` terms (matching
    /// [`Pattern::matches_key`]), but an uncounted SA would silently answer
    /// `observed = 0`, so a partial (e.g. keys-only) index is rejected
    /// loudly instead. An SA *code* outside the indexed domain is fine —
    /// no position carries it, so `observed` is genuinely zero.
    pub fn support_and_observed(&self, query: &CountQuery) -> (u64, u64) {
        assert!(
            self.attrs.contains(&query.sa_attr()),
            "SA attribute {} is not covered by this bitmap index",
            query.sa_attr()
        );
        let sa = self.bitmap(query.sa_attr(), query.sa_value());
        let (mut support, mut observed) = (0u64, 0u64);
        self.for_each_match_word(query.na_pattern(), |w, word| {
            support += u64::from(word.count_ones());
            if let Some(sa) = sa {
                observed += u64::from((word & sa.words[w]).count_ones());
            }
        });
        (support, observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::table::TableBuilder;

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b"]),
            Attribute::new("J", ["x", "y", "z"]),
            Attribute::with_anonymous_domain("SA", 4),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..300u32 {
            b.push_codes(&[i % 2, i % 3, i % 4]).unwrap();
        }
        b.build()
    }

    #[test]
    fn bitmap_set_get_count() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(64) && !b.get(63));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert_eq!(Bitmap::ones(0).count_ones(), 0);
        assert_eq!(Bitmap::ones(64).count_ones(), 64);
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        a.and_assign(&b);
        assert_eq!(
            a.iter_ones().collect::<Vec<_>>(),
            (0..100).step_by(6).map(|i| i as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn index_select_matches_scan() {
        let t = demo_table();
        let idx = BitmapIndex::build(&t);
        for pattern in [
            Pattern::from_codes(&[0], &[1]),
            Pattern::from_codes(&[0, 1], &[0, 2]),
            Pattern::new(vec![(0, Term::Wildcard), (1, Term::Value(1))]),
            Pattern::new(vec![]),
            Pattern::from_codes(&[1], &[9]), // out-of-domain code
            Pattern::from_codes(&[0, 1], &[1, 9]), // ... after an in-domain term
            Pattern::from_codes(&[0, 1], &[9, 1]), // ... before one
        ] {
            assert_eq!(idx.select(&pattern), pattern.select(&t), "{pattern:?}");
            assert_eq!(idx.count(&pattern), pattern.count(&t), "{pattern:?}");
        }
    }

    #[test]
    fn match_words_span_chunks_and_mask_the_tail() {
        // 9,001 rows: three stack chunks, the last one ragged.
        let schema = Schema::new(vec![
            Attribute::new("G", ["a", "b", "c"]),
            Attribute::with_anonymous_domain("SA", 5),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..9_001u32 {
            b.push_codes(&[i % 3, i % 5]).unwrap();
        }
        let t = b.build();
        let idx = BitmapIndex::build(&t);
        let mut words = 0;
        idx.for_each_match_word(&Pattern::new(vec![]), |w, word| {
            assert_eq!(w, words);
            words += 1;
            let last = w == 9_001 / 64;
            assert_eq!(
                word,
                if last {
                    (1 << (9_001 % 64)) - 1
                } else {
                    u64::MAX
                }
            );
        });
        assert_eq!(words, 9_001usize.div_ceil(64));
        for pattern in [
            Pattern::new(vec![]),
            Pattern::from_codes(&[0], &[2]),
            Pattern::from_codes(&[0, 1], &[1, 4]),
            Pattern::from_codes(&[0, 1], &[1, 5]),
        ] {
            assert_eq!(idx.select(&pattern), pattern.select(&t), "{pattern:?}");
            assert_eq!(idx.count(&pattern), pattern.count(&t), "{pattern:?}");
        }
        let q = CountQuery::new(vec![(0, 1)], 1, 4).unwrap();
        assert_eq!(idx.support_and_observed(&q), q.answer_with_support(&t));
    }

    #[test]
    fn support_and_observed_matches_query_scan() {
        let t = demo_table();
        let idx = BitmapIndex::build(&t);
        for query in [
            CountQuery::new(vec![(0, 0)], 2, 1).unwrap(),
            CountQuery::new(vec![(0, 1), (1, 2)], 2, 3).unwrap(),
            CountQuery::new(vec![], 2, 0).unwrap(),
        ] {
            assert_eq!(
                idx.support_and_observed(&query),
                query.answer_with_support(&t),
                "{query:?}"
            );
        }
    }

    #[test]
    fn unindexed_attribute_is_unconstrained() {
        let t = demo_table();
        let attrs: Vec<AttrId> = vec![0];
        let columns: Vec<&[u32]> = vec![t.column(0).codes()];
        let idx = BitmapIndex::from_columns(&attrs, &columns, &[2]);
        // A term on attribute 1 constrains nothing in a keys-only index.
        let p = Pattern::from_codes(&[0, 1], &[1, 2]);
        assert_eq!(idx.count(&p), 150);
        assert!(idx.bitmap(1, 0).is_none());
    }

    #[test]
    fn empty_index() {
        let idx = BitmapIndex::from_columns(&[0], &[&[]], &[3]);
        assert!(idx.is_empty());
        assert_eq!(idx.count(&Pattern::from_codes(&[0], &[1])), 0);
        assert_eq!(idx.select(&Pattern::new(vec![])), Vec::<u32>::new());
    }
}
