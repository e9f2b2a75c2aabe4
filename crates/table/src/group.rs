//! Group-by machinery: partitioning a table into the equivalence classes of
//! its public attributes.
//!
//! A *personal group* `D(x1, ..., xn)` contains all records agreeing on
//! every public attribute (Section 3.2 of the paper). The paper's SPS
//! algorithm obtains them by sorting on `NA` followed by `SA`; a hash-based
//! group-by is provided as well and kept as an ablation target
//! (DESIGN.md §6.1) — both produce identical partitions, normalized to key
//! order.
//!
//! All strategies run on *packed keys*: the grouping columns are folded into
//! one mixed-radix `u64` per row, column by column, so comparisons, hashing
//! and bucketing touch a single machine word instead of re-reading the table
//! per attribute. Tables whose key-domain cross product overflows `u64`
//! fall back to materialized `Vec<u32>` keys. [`group_histograms`] is the
//! one-pass kernel for callers that need only each group's key and
//! histogram, not its member rows; it packs the keys a chunk of rows at a
//! time instead of holding one per row.

use std::collections::HashMap;

use crate::schema::AttrId;
use crate::table::Table;

/// One group: its key (codes over the grouping attributes, in the order they
/// were supplied) and the member row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Codes of the grouping attributes identifying this group.
    pub key: Vec<u32>,
    /// Row indices (into the grouped table) of the group's members.
    pub rows: Vec<u32>,
}

impl Group {
    /// Group size `|g|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the group is empty (cannot happen for groups produced by the
    /// group-by operators, but useful for hand-built groups in tests).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The result of partitioning a table by a set of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    attrs: Vec<AttrId>,
    groups: Vec<Group>,
}

impl Grouping {
    /// The grouping attributes, in the order used to build keys.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// All groups, sorted by key.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Number of groups, `|G|`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Average group size `|D| / |G|`.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups.
    pub fn average_size(&self) -> f64 {
        assert!(!self.is_empty(), "no groups to average over");
        let total: usize = self.groups.iter().map(Group::len).sum();
        total as f64 / self.groups.len() as f64
    }
}

fn check_attrs(table: &Table, attrs: &[AttrId]) {
    assert!(!attrs.is_empty(), "grouping needs at least one attribute");
    for &a in attrs {
        assert!(a < table.schema().arity(), "attribute {a} out of range");
    }
}

/// The mixed-radix radices of the grouping columns (their domain sizes),
/// or `None` when the domain cross product overflows `u64` (the callers
/// then fall back to materialized keys).
fn key_radices(table: &Table, attrs: &[AttrId]) -> Option<Vec<u64>> {
    let mut product: u128 = 1;
    let mut radices = Vec::with_capacity(attrs.len());
    for &a in attrs {
        let d = table.schema().attribute(a).domain_size().max(1) as u128;
        product = product.checked_mul(d)?;
        if product > u64::MAX as u128 {
            return None;
        }
        radices.push(d as u64);
    }
    Some(radices)
}

/// Packs the keys of rows `start..start + keys.len()` into `keys`,
/// accumulated column by column (`key = key * domain + code`). Packed
/// keys compare in the same order as the code tuples, so sorting them
/// sorts the groups lexicographically.
fn fold_keys(table: &Table, attrs: &[AttrId], radices: &[u64], start: usize, keys: &mut [u64]) {
    keys.fill(0);
    for (&a, &d) in attrs.iter().zip(radices) {
        let column = &table.column(a).codes()[start..start + keys.len()];
        for (key, &code) in keys.iter_mut().zip(column) {
            *key = *key * d + u64::from(code);
        }
    }
}

/// Mixed-radix packing of the grouping columns: one `u64` key per row
/// ([`fold_keys`]), plus the radices needed to decode, or `None` as
/// [`key_radices`].
fn pack_keys(table: &Table, attrs: &[AttrId]) -> Option<(Vec<u64>, Vec<u64>)> {
    let radices = key_radices(table, attrs)?;
    let mut keys = vec![0u64; table.rows()];
    fold_keys(table, attrs, &radices, 0, &mut keys);
    Some((keys, radices))
}

/// Decodes a mixed-radix key back into its code tuple (inverse of
/// [`fold_keys`]' accumulation).
fn unpack_key(mut key: u64, radices: &[u64]) -> Vec<u32> {
    let mut codes = vec![0u32; radices.len()];
    for (code, &d) in codes.iter_mut().zip(radices).rev() {
        *code = (key % d) as u32;
        key /= d;
    }
    codes
}

/// Materialized row keys for the (rare) unpackable case: one flat buffer,
/// keys compared as `&[u32]` slices.
fn materialize_keys(table: &Table, attrs: &[AttrId]) -> Vec<u32> {
    let mut flat = vec![0u32; table.rows() * attrs.len()];
    for (i, &a) in attrs.iter().enumerate() {
        let column = table.column(a).codes();
        for (row, &code) in column.iter().enumerate() {
            flat[row * attrs.len() + i] = code;
        }
    }
    flat
}

/// Cuts sorted `(key, row)` pairs into groups.
fn cut_runs(pairs: &[(u64, u32)], radices: &[u64]) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    while start < pairs.len() {
        let key = pairs[start].0;
        let mut end = start + 1;
        while end < pairs.len() && pairs[end].0 == key {
            end += 1;
        }
        groups.push(Group {
            key: unpack_key(key, radices),
            rows: pairs[start..end].iter().map(|&(_, r)| r).collect(),
        });
        start = end;
    }
    groups
}

/// Direct-address grouping over packed row keys: count per key, then
/// scatter rows in ascending order (so member rows stay ascending per
/// group). `O(rows + product)`; only used when the key space is comparable
/// to the row count.
fn group_by_counting(keys: &[u64], product: usize, radices: &[u64]) -> Vec<Group> {
    let mut counts = vec![0u32; product];
    for &k in keys {
        counts[k as usize] += 1;
    }
    // Ascending-key prefix sums double as scatter cursors.
    let mut starts = vec![0u32; product];
    let mut running = 0u32;
    for (start, &count) in starts.iter_mut().zip(&counts) {
        *start = running;
        running += count;
    }
    let mut cursors = starts.clone();
    let mut rows_flat = vec![0u32; keys.len()];
    for (row, &k) in (0u32..).zip(keys) {
        let cursor = &mut cursors[k as usize];
        rows_flat[*cursor as usize] = row;
        *cursor += 1;
    }
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(k, &count)| {
            let start = starts[k] as usize;
            Group {
                key: unpack_key(k as u64, radices),
                rows: rows_flat[start..start + count as usize].to_vec(),
            }
        })
        .collect()
}

/// Rows whose keys [`group_histograms`] packs at a time.
const KEY_CHUNK: usize = 256;

/// Above this key-space size the hash strategy stops direct addressing and
/// buckets through a `HashMap` instead.
const DIRECT_ADDRESS_MAX: usize = 1 << 22;

/// Whether a packed key space of `product` cells is worth direct
/// addressing for `rows` rows: the `O(product)` count/scatter tables must
/// be comparable to the row count (small products are always fine — the
/// tables fit in cache), and are capped at [`DIRECT_ADDRESS_MAX`] outright.
fn direct_addressable(product: u128, rows: usize) -> bool {
    product <= DIRECT_ADDRESS_MAX as u128 && product <= (4 * rows).max(1 << 16) as u128
}

/// Hash-based group-by: one pass, `O(|D|)` expected.
///
/// Keys are packed into single `u64`s; when the key space is small enough
/// the "hash" degenerates to direct addressing (a perfect hash over the
/// mixed-radix key), otherwise a `HashMap` over the packed keys is used.
/// Both produce groups sorted by key with member rows ascending.
///
/// # Panics
///
/// Panics if `attrs` is empty or contains an out-of-range attribute.
pub fn group_by_hash(table: &Table, attrs: &[AttrId]) -> Grouping {
    check_attrs(table, attrs);
    if let Some((keys, radices)) = pack_keys(table, attrs) {
        let product: u128 = radices.iter().map(|&d| d as u128).product();
        let groups = if direct_addressable(product, keys.len()) {
            group_by_counting(&keys, product as usize, &radices)
        } else {
            let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
            for (row, &k) in keys.iter().enumerate() {
                map.entry(k).or_default().push(row as u32);
            }
            // rp-analyze: allow(determinism, "collected then sorted by packed key on the next line before emission")
            let mut pairs: Vec<(u64, Vec<u32>)> = map.into_iter().collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            pairs
                .into_iter()
                .map(|(k, rows)| Group {
                    key: unpack_key(k, &radices),
                    rows,
                })
                .collect()
        };
        return Grouping {
            attrs: attrs.to_vec(),
            groups,
        };
    }
    // Unpackable key space: hash materialized Vec<u32> keys.
    let mut map: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
    for row in 0..table.rows() {
        let key: Vec<u32> = attrs.iter().map(|&a| table.code(row, a)).collect();
        map.entry(key).or_default().push(row as u32);
    }
    let mut groups: Vec<Group> = map
        // rp-analyze: allow(determinism, "collected then sorted by key below before emission")
        .into_iter()
        .map(|(key, rows)| Group { key, rows })
        .collect();
    groups.sort_by(|a, b| a.key.cmp(&b.key));
    Grouping {
        attrs: attrs.to_vec(),
        groups,
    }
}

/// Sort-based group-by, the `O(|D| log |D|)` strategy prescribed by the
/// paper's SPS preprocessing: sort `(packed key, row)` pairs — one `u64`
/// compare per step instead of a per-attribute column walk — then cut the
/// sorted run into groups with one scan.
///
/// # Panics
///
/// Panics if `attrs` is empty or contains an out-of-range attribute.
pub fn group_by_sort(table: &Table, attrs: &[AttrId]) -> Grouping {
    check_attrs(table, attrs);
    if let Some((keys, radices)) = pack_keys(table, attrs) {
        let mut pairs: Vec<(u64, u32)> = keys.into_iter().zip(0u32..).collect();
        pairs.sort_unstable();
        return Grouping {
            attrs: attrs.to_vec(),
            groups: cut_runs(&pairs, &radices),
        };
    }
    // Unpackable key space: sort row indices over materialized keys.
    let width = attrs.len();
    let flat = materialize_keys(table, attrs);
    let mut order: Vec<u32> = (0..table.rows() as u32).collect();
    order.sort_by_key(|&r| &flat[r as usize * width..(r as usize + 1) * width]);
    let mut groups = Vec::new();
    let mut start = 0usize;
    while start < order.len() {
        let key = &flat[order[start] as usize * width..(order[start] as usize + 1) * width];
        let mut end = start + 1;
        while end < order.len()
            && &flat[order[end] as usize * width..(order[end] as usize + 1) * width] == key
        {
            end += 1;
        }
        groups.push(Group {
            key: key.to_vec(),
            rows: order[start..end].to_vec(),
        });
        start = end;
    }
    Grouping {
        attrs: attrs.to_vec(),
        groups,
    }
}

/// Sorted group keys over `attrs`, each with the histogram of
/// `hist_attr` over the group's rows: the groups of [`group_by_sort`]
/// summarized, without their member row lists.
///
/// A packed, direct-addressable key space takes one pass over the rows,
/// packing their keys 256 rows at a time into a stack buffer
/// rather than into one key per row. A key→group slot table (one `u32`
/// per key, bounded to `O(rows)` like [`group_by_hash`]'s count tables)
/// gives each new key the next histogram, and one ascending scan of the
/// slots moves the histograms out in key order. Memory is
/// `O(rows + groups · m)`, never `O(key space · m)`.
/// Sparse or unpackable key spaces fall back to [`group_by_sort`].
///
/// # Panics
///
/// Panics if `attrs` is empty or contains an out-of-range attribute, or if
/// `hist_attr` is out of range.
pub fn group_histograms(
    table: &Table,
    attrs: &[AttrId],
    hist_attr: AttrId,
) -> (Vec<Vec<u32>>, Vec<Vec<u64>>) {
    check_attrs(table, attrs);
    let m = table.schema().attribute(hist_attr).domain_size();
    if let Some(radices) = key_radices(table, attrs) {
        let product: u128 = radices.iter().map(|&d| d as u128).product();
        if direct_addressable(product, table.rows()) {
            const EMPTY: u32 = u32::MAX;
            let mut slots = vec![EMPTY; product as usize];
            let mut hists: Vec<Vec<u64>> = Vec::new();
            let mut keys = [0u64; KEY_CHUNK];
            let values = table.column(hist_attr).codes();
            for (start, values) in (0..).step_by(KEY_CHUNK).zip(values.chunks(KEY_CHUNK)) {
                let keys = &mut keys[..values.len()];
                fold_keys(table, attrs, &radices, start, keys);
                for (&key, &value) in keys.iter().zip(values) {
                    let slot = &mut slots[key as usize];
                    if *slot == EMPTY {
                        *slot = hists.len() as u32;
                        hists.push(vec![0; m]);
                    }
                    hists[*slot as usize][value as usize] += 1;
                }
            }
            return slots
                .iter()
                .enumerate()
                .filter(|&(_, &slot)| slot != EMPTY)
                .map(|(key, &slot)| {
                    (
                        unpack_key(key as u64, &radices),
                        std::mem::take(&mut hists[slot as usize]),
                    )
                })
                .unzip();
        }
    }
    group_by_sort(table, attrs)
        .groups
        .into_iter()
        .map(|g| {
            let hist = table.histogram_over(hist_attr, &g.rows);
            (g.key, hist)
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::table::TableBuilder;

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "hiv", "bc"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for row in [
            ["male", "eng", "flu"],
            ["female", "doc", "bc"],
            ["male", "eng", "hiv"],
            ["female", "eng", "flu"],
            ["male", "doc", "flu"],
            ["male", "eng", "flu"],
        ] {
            b.push_values(&row).unwrap();
        }
        b.build()
    }

    #[test]
    fn hash_groups_partition_rows() {
        let t = demo_table();
        let g = group_by_hash(&t, &[0, 1]);
        assert_eq!(g.len(), 4); // (m,e), (m,d), (f,e), (f,d)
        let total: usize = g.groups().iter().map(Group::len).sum();
        assert_eq!(total, t.rows());
        // Every row appears exactly once.
        let mut seen = vec![false; t.rows()];
        for grp in g.groups() {
            for &r in &grp.rows {
                assert!(!seen[r as usize], "row {r} in two groups");
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hash_and_sort_agree() {
        let t = demo_table();
        for attrs in [vec![0], vec![1], vec![0, 1], vec![0, 1, 2]] {
            let h = group_by_hash(&t, &attrs);
            let mut s = group_by_sort(&t, &attrs);
            // Sort rows within groups for comparison (hash preserves row
            // order already; sort-based uses a stable sort so it does too,
            // but normalize anyway).
            let normalize = |g: &mut Grouping| {
                for grp in &mut g.groups {
                    grp.rows.sort_unstable();
                }
            };
            let mut h = h.clone();
            normalize(&mut h);
            normalize(&mut s);
            assert_eq!(h, s, "strategies disagree on attrs {attrs:?}");
        }
    }

    #[test]
    fn groups_sorted_by_key() {
        let t = demo_table();
        let g = group_by_hash(&t, &[0, 1]);
        let keys: Vec<&Vec<u32>> = g.groups().iter().map(|grp| &grp.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn group_members_match_key() {
        let t = demo_table();
        let g = group_by_sort(&t, &[0, 1]);
        for grp in g.groups() {
            for &r in &grp.rows {
                for (i, &a) in g.attrs().iter().enumerate() {
                    assert_eq!(t.code(r as usize, a), grp.key[i]);
                }
            }
        }
    }

    #[test]
    fn average_size() {
        let t = demo_table();
        let g = group_by_hash(&t, &[0, 1]);
        let expected = t.rows() as f64 / g.len() as f64;
        assert!((g.average_size() - expected).abs() < 1e-12);
    }

    #[test]
    fn single_attribute_grouping() {
        let t = demo_table();
        let g = group_by_sort(&t, &[0]);
        assert_eq!(g.len(), 2);
        let male = &g.groups()[0];
        assert_eq!(male.key, vec![0]);
        assert_eq!(male.len(), 4);
    }

    #[test]
    fn empty_table_has_no_groups() {
        let schema = Schema::new(vec![Attribute::new("A", ["x", "y"])]);
        let t = TableBuilder::new(schema).build();
        assert!(group_by_hash(&t, &[0]).is_empty());
        assert!(group_by_sort(&t, &[0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_attrs_rejected() {
        group_by_hash(&demo_table(), &[]);
    }

    /// Five attributes with 2^16 values each: the 2^80 key space cannot be
    /// packed into a u64, exercising the materialized-key fallbacks.
    fn unpackable_table() -> Table {
        let schema = Schema::new(
            (0..5)
                .map(|i| Attribute::with_anonymous_domain(format!("A{i}"), 1 << 16))
                .collect(),
        );
        let mut b = TableBuilder::new(schema);
        for i in 0..200u32 {
            b.push_codes(&[i % 3, (i % 5) * 1000, i % 2, 65_535 - (i % 4), i % 7])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn unpackable_key_space_falls_back_consistently() {
        let t = unpackable_table();
        let attrs = [0, 1, 2, 3, 4];
        let s = group_by_sort(&t, &attrs);
        let h = group_by_hash(&t, &attrs);
        assert_eq!(s, h);
        let total: usize = s.groups().iter().map(Group::len).sum();
        assert_eq!(total, t.rows());
    }

    /// The one-pass kernel against grouping then histogramming, on a
    /// dense key space, a sparse one (2^32 keys for 200 rows) and one too
    /// wide for a `u64` (2^64 keys).
    #[test]
    fn group_histograms_match_sorted_groups() {
        let dense = demo_table();
        let wide = unpackable_table();
        for (t, attrs, hist_attr) in [
            (&dense, vec![0, 1], 2),
            (&dense, vec![1], 0),
            (&wide, vec![0, 1], 4),
            (&wide, vec![0, 1, 2, 3], 4),
        ] {
            let (keys, hists) = group_histograms(t, &attrs, hist_attr);
            let reference = group_by_sort(t, &attrs);
            let want_keys: Vec<Vec<u32>> =
                reference.groups().iter().map(|g| g.key.clone()).collect();
            let want_hists: Vec<Vec<u64>> = reference
                .groups()
                .iter()
                .map(|g| t.histogram_over(hist_attr, &g.rows))
                .collect();
            assert_eq!(keys, want_keys, "attrs {attrs:?}");
            assert_eq!(hists, want_hists, "attrs {attrs:?}");
        }
    }

    /// Keys are packed a chunk of rows at a time: a table of several
    /// chunks and a partial last one groups as the sort does.
    #[test]
    fn group_histograms_pack_keys_across_chunks() {
        let schema = Schema::new(vec![
            Attribute::with_anonymous_domain("A", 7),
            Attribute::with_anonymous_domain("B", 5),
            Attribute::with_anonymous_domain("S", 3),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..3 * KEY_CHUNK as u32 + 37 {
            b.push_codes(&[(i * 5) % 7, (i / 3) % 5, (i / 7) % 3])
                .unwrap();
        }
        let t = b.build();
        let (keys, hists) = group_histograms(&t, &[0, 1], 2);
        let reference = group_by_sort(&t, &[0, 1]);
        assert_eq!(keys.len(), 35);
        for ((key, hist), g) in keys.iter().zip(&hists).zip(reference.groups()) {
            assert_eq!(key, &g.key);
            assert_eq!(hist, &t.histogram_over(2, &g.rows), "key {key:?}");
        }
    }

    #[test]
    fn packed_key_order_matches_lexicographic() {
        let t = demo_table();
        let g = group_by_sort(&t, &[1, 0]); // non-schema attribute order
        let keys: Vec<&Vec<u32>> = g.groups().iter().map(|grp| &grp.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Keys are in the supplied attribute order (Job first).
        for grp in g.groups() {
            for &r in &grp.rows {
                assert_eq!(t.code(r as usize, 1), grp.key[0]);
                assert_eq!(t.code(r as usize, 0), grp.key[1]);
            }
        }
    }
}
