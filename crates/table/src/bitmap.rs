//! Selection bitmaps: one bit per position for every `(attribute, code)`
//! pair, combined with bitwise AND to evaluate conjunctive patterns 64
//! positions at a time.
//!
//! This is the vectorized counterpart of [`Pattern::matches_key`]'s
//! key-at-a-time test: a [`BitmapIndex`] is built column by column in one
//! pass, and every conjunctive selection afterwards is one word-wide AND
//! loop. [`BitmapIndex::for_each_match_word`] is the only matcher: it ANDs
//! the term bitmaps' words into a stack buffer and hands each result word
//! to its caller, so no selection clones or allocates a bitmap, and
//! [`BitmapIndex::for_each_match`] folds its bits. It is the group-key
//! matcher behind `rp-core`'s `GroupedView`, where each bit stands for one
//! personal group.

use crate::predicate::{Pattern, Term};
use crate::schema::AttrId;

/// Per-`(attribute, code)` selection bitmaps over a sequence of coded
/// positions (rows or group keys).
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
    /// `bitmaps[attr_pos][code]`, aligned with `attrs`: the bitmap's 64-bit
    /// words, bits past `len` clear.
    bitmaps: Vec<Vec<Vec<u64>>>,
}

impl BitmapIndex {
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
                let mut per_code = vec![vec![0u64; len.div_ceil(64)]; domain];
                for (i, &code) in column.iter().enumerate() {
                    assert!(
                        (code as usize) < domain,
                        "code {code} out of range for domain {domain}"
                    );
                    per_code[code as usize][i / 64] |= 1u64 << (i % 64);
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

    /// The one matcher: calls `f(w, word)` for each 64-position word `w`
    /// of the pattern's match set, in ascending order. Each word is the
    /// AND of the words of the bitmaps named by the pattern's equality
    /// terms, computed into a stack buffer a chunk of words at a time, so
    /// no bitmap is cloned or allocated. A pattern that constrains no
    /// indexed attribute matches every position; a code outside the
    /// indexed domain matches none, and `f` is never called. Bits past
    /// [`BitmapIndex::len`] are always clear.
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
                for (acc, &word) in chunk.iter_mut().zip(&bitmap[start..]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CountQuery;
    use crate::schema::{Attribute, Schema};
    use crate::table::{Table, TableBuilder};

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

    /// The index over every column of `table`, one bit per row.
    fn table_index(table: &Table) -> BitmapIndex {
        let attrs: Vec<AttrId> = (0..table.schema().arity()).collect();
        let columns: Vec<&[u32]> = attrs.iter().map(|&a| table.column(a).codes()).collect();
        let domains: Vec<usize> = attrs
            .iter()
            .map(|&a| table.schema().attribute(a).domain_size())
            .collect();
        BitmapIndex::from_columns(&attrs, &columns, &domains)
    }

    /// The matching positions, ascending.
    fn select(index: &BitmapIndex, pattern: &Pattern) -> Vec<u32> {
        let mut out = Vec::new();
        index.for_each_match(pattern, |i| out.push(i as u32));
        out
    }

    /// The matching-position count, summed word by word.
    fn count(index: &BitmapIndex, pattern: &Pattern) -> u64 {
        let mut count = 0;
        index.for_each_match_word(pattern, |_, word| count += u64::from(word.count_ones()));
        count
    }

    /// `(support, observed)` of a count query over a whole-table index.
    fn support_and_observed(index: &BitmapIndex, table: &Table, q: &CountQuery) -> (u64, u64) {
        let (mut support, mut observed) = (0, 0);
        index.for_each_match(q.na_pattern(), |r| {
            support += 1;
            observed += u64::from(table.code(r, q.sa_attr()) == q.sa_value());
        });
        (support, observed)
    }

    /// One column of `len` positions whose code is 1 exactly at `ones`.
    fn one_column(len: usize, ones: &[usize]) -> BitmapIndex {
        let mut column = vec![0u32; len];
        for &i in ones {
            column[i] = 1;
        }
        BitmapIndex::from_columns(&[0], &[&column], &[2])
    }

    #[test]
    fn bitmap_set_get_count() {
        let idx = one_column(130, &[0, 64, 129]);
        let ones = Pattern::from_codes(&[0], &[1]);
        assert_eq!(select(&idx, &ones), vec![0, 64, 129]);
        assert_eq!(count(&idx, &ones), 3);
        assert_eq!(count(&idx, &Pattern::from_codes(&[0], &[0])), 127);
    }

    #[test]
    fn ones_masks_tail_bits() {
        for len in [0, 64, 70] {
            let idx = one_column(len, &[]);
            assert_eq!(count(&idx, &Pattern::new(vec![])), len as u64);
            assert_eq!(count(&idx, &Pattern::from_codes(&[0], &[0])), len as u64);
        }
    }

    #[test]
    fn and_assign_intersects() {
        let halves: Vec<u32> = (0..100).map(|i| u32::from(i % 2 == 0)).collect();
        let thirds: Vec<u32> = (0..100).map(|i| u32::from(i % 3 == 0)).collect();
        let idx = BitmapIndex::from_columns(&[0, 1], &[&halves, &thirds], &[2, 2]);
        assert_eq!(
            select(&idx, &Pattern::from_codes(&[0, 1], &[1, 1])),
            (0..100).step_by(6).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn index_select_matches_scan() {
        let t = demo_table();
        let idx = table_index(&t);
        for pattern in [
            Pattern::from_codes(&[0], &[1]),
            Pattern::from_codes(&[0, 1], &[0, 2]),
            Pattern::new(vec![(0, Term::Wildcard), (1, Term::Value(1))]),
            Pattern::new(vec![]),
            Pattern::from_codes(&[1], &[9]), // out-of-domain code
            Pattern::from_codes(&[0, 1], &[1, 9]), // ... after an in-domain term
            Pattern::from_codes(&[0, 1], &[9, 1]), // ... before one
        ] {
            assert_eq!(select(&idx, &pattern), pattern.select(&t), "{pattern:?}");
            assert_eq!(count(&idx, &pattern), pattern.count(&t), "{pattern:?}");
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
        let idx = table_index(&t);
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
            assert_eq!(select(&idx, &pattern), pattern.select(&t), "{pattern:?}");
            assert_eq!(count(&idx, &pattern), pattern.count(&t), "{pattern:?}");
        }
        let q = CountQuery::new(vec![(0, 1)], 1, 4).unwrap();
        assert_eq!(
            support_and_observed(&idx, &t, &q),
            q.answer_with_support(&t)
        );
    }

    #[test]
    fn support_and_observed_matches_query_scan() {
        let t = demo_table();
        let idx = table_index(&t);
        for query in [
            CountQuery::new(vec![(0, 0)], 2, 1).unwrap(),
            CountQuery::new(vec![(0, 1), (1, 2)], 2, 3).unwrap(),
            CountQuery::new(vec![], 2, 0).unwrap(),
        ] {
            assert_eq!(
                support_and_observed(&idx, &t, &query),
                query.answer_with_support(&t),
                "{query:?}"
            );
        }
    }

    #[test]
    fn unindexed_attribute_is_unconstrained() {
        let t = demo_table();
        let idx = BitmapIndex::from_columns(&[0], &[t.column(0).codes()], &[2]);
        // A term on attribute 1 constrains nothing in a keys-only index.
        let p = Pattern::from_codes(&[0, 1], &[1, 2]);
        assert_eq!(count(&idx, &p), 150);
    }

    #[test]
    fn empty_index() {
        let idx = BitmapIndex::from_columns(&[0], &[&[]], &[3]);
        assert!(idx.is_empty());
        assert_eq!(count(&idx, &Pattern::from_codes(&[0], &[1])), 0);
        assert_eq!(select(&idx, &Pattern::new(vec![])), Vec::<u32>::new());
    }
}
