//! The columnar table: dictionary-encoded categorical microdata.

use crate::error::TableError;
use crate::schema::{AttrId, Schema};

/// A dictionary-encoded categorical column.
///
/// Retired code buffers are recycled through a bounded thread-local pool
/// (see `crate::recycle`): publish-style workloads that build and drop
/// tables in a loop reuse warm buffers instead of re-faulting pages from
/// the kernel on every build. Purely an allocation cache — values never
/// survive recycling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column {
    codes: Vec<u32>,
}

impl Drop for Column {
    fn drop(&mut self) {
        crate::recycle::recycle(std::mem::take(&mut self.codes));
    }
}

impl Column {
    /// Creates a column from raw codes. Domain validation happens at the
    /// table level, where the schema is known.
    pub fn from_codes(codes: Vec<u32>) -> Self {
        Self { codes }
    }

    /// The code at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// All codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Histogram of code frequencies over a domain of `domain_size` values.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::CodeOutOfRange`] (with an empty attribute name
    /// — a standalone column does not know which attribute it backs) if any
    /// code is outside the domain.
    pub fn histogram(&self, domain_size: usize) -> Result<Vec<u64>, TableError> {
        let mut counts = vec![0u64; domain_size];
        for &c in &self.codes {
            match counts.get_mut(c as usize) {
                Some(slot) => *slot += 1,
                None => {
                    return Err(TableError::CodeOutOfRange {
                        attribute: String::new(),
                        code: c,
                        domain_size,
                    })
                }
            }
        }
        Ok(counts)
    }
}

/// An immutable-schema, column-oriented table of categorical microdata.
///
/// Rows are addressed by index; values are `u32` dictionary codes. This is
/// the substrate every algorithm in the workspace operates on: the raw table
/// `D`, the perturbed table `D*` and the SPS output `D*₂` are all `Table`s
/// over the same [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates a table from parallel columns.
    ///
    /// # Errors
    ///
    /// Returns an error if the column count does not match the schema arity,
    /// if columns have unequal lengths, or if any code is outside its
    /// attribute's domain.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self, TableError> {
        if columns.len() != schema.arity() {
            return Err(TableError::ArityMismatch {
                got: columns.len(),
                expected: schema.arity(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != rows {
                return Err(TableError::ArityMismatch {
                    got: c.len(),
                    expected: rows,
                });
            }
        }
        for (id, column) in columns.iter().enumerate() {
            for &code in column.codes() {
                schema.check_code(id, code)?;
            }
        }
        Ok(Self {
            schema,
            columns,
            rows,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows, `|D|`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column of attribute `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn column(&self, id: AttrId) -> &Column {
        &self.columns[id]
    }

    /// The code of attribute `id` at `row`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn code(&self, row: usize, id: AttrId) -> u32 {
        self.columns[id].code(row)
    }

    /// The full row of codes at `row`.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of range.
    pub fn row(&self, row: usize) -> Result<Vec<u32>, TableError> {
        if row >= self.rows {
            return Err(TableError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.code(row)).collect())
    }

    /// Decodes a row back to its string values.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of range.
    pub fn decode_row(&self, row: usize) -> Result<Vec<&str>, TableError> {
        let codes = self.row(row)?;
        Ok(codes
            .iter()
            .enumerate()
            .map(|(id, &code)| {
                self.schema
                    .attribute(id)
                    .dictionary()
                    .value(code)
                    .expect("codes were validated at construction")
            })
            .collect())
    }

    /// Returns a copy of this table with one column replaced.
    ///
    /// # Errors
    ///
    /// Returns an error if the new column has the wrong length or codes
    /// outside the attribute's domain.
    pub fn with_column_replaced(&self, id: AttrId, column: Column) -> Result<Self, TableError> {
        if column.len() != self.rows {
            return Err(TableError::ArityMismatch {
                got: column.len(),
                expected: self.rows,
            });
        }
        for &code in column.codes() {
            self.schema.check_code(id, code)?;
        }
        let mut columns = self.columns.clone();
        columns[id] = column;
        Ok(Self {
            schema: self.schema.clone(),
            columns,
            rows: self.rows,
        })
    }

    /// Histogram of attribute `id` over the whole table.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::CodeOutOfRange`] if a code exceeds the
    /// attribute's domain — impossible for tables built through the checked
    /// constructors, but surfaced as a typed error rather than a panic so
    /// callers holding externally produced columns can recover.
    pub fn histogram(&self, id: AttrId) -> Result<Vec<u64>, TableError> {
        let attr = self.schema.attribute(id);
        self.columns[id]
            .histogram(attr.domain_size())
            .map_err(|e| match e {
                TableError::CodeOutOfRange {
                    code, domain_size, ..
                } => TableError::CodeOutOfRange {
                    attribute: attr.name().to_string(),
                    code,
                    domain_size,
                },
                other => other,
            })
    }

    /// Histogram of attribute `id` restricted to the given rows.
    pub fn histogram_over(&self, id: AttrId, rows: &[u32]) -> Vec<u64> {
        let mut counts = vec![0u64; self.schema.attribute(id).domain_size()];
        let col = self.columns[id].codes();
        for &r in rows {
            counts[col[r as usize] as usize] += 1;
        }
        counts
    }
}

/// Row-at-a-time builder for [`Table`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Vec<u32>>,
    /// Each attribute's domain size, read once so [`TableBuilder::push_codes`]
    /// checks a row against a flat slice.
    domains: Vec<usize>,
}

impl TableBuilder {
    /// Creates a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Self::with_columns(schema, columns)
    }

    fn with_columns(schema: Schema, columns: Vec<Vec<u32>>) -> Self {
        let domains = schema.iter().map(|(_, a)| a.domain_size()).collect();
        Self {
            schema,
            columns,
            domains,
        }
    }

    /// Creates a builder with per-column capacity reserved. Buffers come
    /// from the thread-local recycling pool when available, so repeated
    /// build/drop cycles (one publication per loop iteration) write into
    /// warm memory instead of freshly faulted pages.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = (0..schema.arity())
            .map(|_| crate::recycle::take(rows))
            .collect();
        Self::with_columns(schema, columns)
    }

    /// Appends a row of codes.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or out-of-domain codes.
    pub fn push_codes(&mut self, codes: &[u32]) -> Result<(), TableError> {
        check_row(&self.schema, &self.domains, codes)?;
        for (col, &code) in self.columns.iter_mut().zip(codes) {
            col.push(code);
        }
        Ok(())
    }

    /// Appends a personal group's records as one columnar run
    /// ([`TableBuilder::begin_run`]): for each non-empty entry of `hist`,
    /// that many rows holding the group's `key` codes at every attribute
    /// but `at`, in schema order, and the entry's index at `at`. Each key
    /// column is one constant fill and the `at` column one fill per
    /// non-empty entry. The inverse of a group's key and histogram in
    /// [`crate::group_histograms`].
    ///
    /// # Errors
    ///
    /// Returns an error (appending nothing) on a key of the wrong length
    /// or out-of-domain codes.
    pub fn push_group(&mut self, key: &[u32], at: AttrId, hist: &[u64]) -> Result<(), TableError> {
        let rows = hist.iter().sum::<u64>() as usize;
        let attrs = (0..self.schema.arity()).filter(|&a| a != at);
        let mut run = self.begin_run(rows);
        for (attr, &code) in attrs.zip(key) {
            run.fill(attr, code, rows)?;
        }
        for (code, &count) in (0u32..).zip(hist).filter(|&(_, &count)| count > 0) {
            run.fill(at, code, count as usize)?;
        }
        run.finish()
    }

    /// Appends a row of string values, resolving them through the schema's
    /// dictionaries.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or unknown values.
    pub fn push_values(&mut self, values: &[&str]) -> Result<(), TableError> {
        if values.len() != self.schema.arity() {
            return Err(TableError::ArityMismatch {
                got: values.len(),
                expected: self.schema.arity(),
            });
        }
        let mut codes = Vec::with_capacity(values.len());
        for (id, value) in values.iter().enumerate() {
            let attr = self.schema.attribute(id);
            let code = attr
                .dictionary()
                .code(value)
                .ok_or_else(|| TableError::UnknownValue {
                    attribute: attr.name().to_string(),
                    value: value.to_string(),
                })?;
            codes.push(code);
        }
        self.push_codes(&codes)
    }

    /// Number of rows appended so far.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Begins a columnar run of `rows` rows: the returned [`RunWriter`]
    /// fills each column independently with constant runs
    /// ([`RunWriter::fill`]), validating each run once instead of once per
    /// row. [`RunWriter::finish`] checks
    /// that every column received exactly `rows` codes; dropping the writer
    /// without finishing rolls the whole run back, so a failed run never
    /// leaves the builder ragged.
    ///
    /// [`TableBuilder::push_group`] writes a personal group as one run —
    /// each `NA` column a single constant fill, the `SA` column one fill
    /// per non-empty value — for the SPS executor and for loading a saved
    /// release.
    pub fn begin_run(&mut self, rows: usize) -> RunWriter<'_> {
        let base = self.rows();
        RunWriter {
            builder: self,
            rows,
            base,
            finished: false,
        }
    }

    /// Finishes the build.
    pub fn build(self) -> Table {
        let rows = self.rows();
        Table {
            schema: self.schema,
            columns: self.columns.into_iter().map(Column::from_codes).collect(),
            rows,
        }
    }
}

/// Checks a row of codes against the schema and its domain sizes.
fn check_row(schema: &Schema, domains: &[usize], codes: &[u32]) -> Result<(), TableError> {
    if codes.len() != domains.len() {
        return Err(TableError::ArityMismatch {
            got: codes.len(),
            expected: domains.len(),
        });
    }
    for (id, (&code, &domain)) in codes.iter().zip(domains).enumerate() {
        if code as usize >= domain {
            return schema.check_code(id, code);
        }
    }
    Ok(())
}

/// An in-progress columnar run on a [`TableBuilder`] — see
/// [`TableBuilder::begin_run`].
///
/// Columns may be filled in any order and in several appends each; the run
/// is committed by [`RunWriter::finish`] and rolled back (all columns
/// truncated to their pre-run length) if the writer is dropped first or any
/// step fails.
#[derive(Debug)]
pub struct RunWriter<'a> {
    builder: &'a mut TableBuilder,
    rows: usize,
    base: usize,
    finished: bool,
}

impl RunWriter<'_> {
    fn remaining(&self, attr: AttrId) -> usize {
        self.base + self.rows - self.builder.columns[attr].len()
    }

    /// Appends `copies` repetitions of `code` to column `attr`, validating
    /// the code once.
    ///
    /// # Errors
    ///
    /// Returns an error if `attr` is out of range, `code` outside the
    /// attribute's domain, or the append would overfill the run.
    pub fn fill(&mut self, attr: AttrId, code: u32, copies: usize) -> Result<(), TableError> {
        self.builder.schema.check_code(attr, code)?;
        if copies > self.remaining(attr) {
            return Err(TableError::ColumnRunMismatch {
                attribute: self.builder.schema.attribute(attr).name().to_string(),
                got: self.builder.columns[attr].len() - self.base + copies,
                expected: self.rows,
            });
        }
        self.builder.columns[attr].extend(std::iter::repeat_n(code, copies));
        Ok(())
    }

    /// Commits the run after checking every column received exactly the
    /// declared number of rows.
    ///
    /// # Errors
    ///
    /// Returns an error (and rolls the run back) if any column was left
    /// underfilled.
    pub fn finish(mut self) -> Result<(), TableError> {
        let expected = self.base + self.rows;
        for (id, column) in self.builder.columns.iter().enumerate() {
            if column.len() != expected {
                let attribute = self.builder.schema.attribute(id).name().to_string();
                let got = column.len() - self.base;
                self.rollback();
                self.finished = true;
                return Err(TableError::ColumnRunMismatch {
                    attribute,
                    got,
                    expected: self.rows,
                });
            }
        }
        self.finished = true;
        Ok(())
    }

    fn rollback(&mut self) {
        for column in &mut self.builder.columns {
            column.truncate(self.base);
        }
    }
}

impl Drop for RunWriter<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("Gender", ["male", "female"]),
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "hiv", "bc"]),
        ])
    }

    fn demo_table() -> Table {
        let mut b = TableBuilder::new(demo_schema());
        b.push_values(&["male", "eng", "flu"]).unwrap();
        b.push_values(&["male", "eng", "hiv"]).unwrap();
        b.push_values(&["female", "doc", "bc"]).unwrap();
        b.push_values(&["female", "eng", "flu"]).unwrap();
        b.build()
    }

    #[test]
    fn builder_round_trip() {
        let t = demo_table();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.decode_row(0).unwrap(), vec!["male", "eng", "flu"]);
        assert_eq!(t.decode_row(2).unwrap(), vec!["female", "doc", "bc"]);
        assert_eq!(t.code(1, 2), 1); // hiv
    }

    #[test]
    fn builder_rejects_unknown_value() {
        let mut b = TableBuilder::new(demo_schema());
        let err = b.push_values(&["male", "pilot", "flu"]).unwrap_err();
        assert!(matches!(err, TableError::UnknownValue { .. }));
        assert_eq!(b.rows(), 0, "failed push must not partially append");
    }

    #[test]
    fn builder_rejects_arity_mismatch() {
        let mut b = TableBuilder::new(demo_schema());
        assert!(matches!(
            b.push_values(&["male", "eng"]),
            Err(TableError::ArityMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn run_writer_fills_columns_independently() {
        let mut b = TableBuilder::new(demo_schema());
        b.push_codes(&[1, 1, 2]).unwrap();
        let mut run = b.begin_run(5);
        run.fill(0, 0, 5).unwrap();
        run.fill(1, 1, 2).unwrap();
        run.fill(1, 0, 3).unwrap();
        for code in [0, 1, 2, 0, 1] {
            run.fill(2, code, 1).unwrap();
        }
        run.finish().unwrap();
        let t = b.build();
        assert_eq!(t.rows(), 6);
        assert_eq!(t.row(0).unwrap(), vec![1, 1, 2]);
        assert_eq!(t.row(1).unwrap(), vec![0, 1, 0]);
        assert_eq!(t.row(3).unwrap(), vec![0, 0, 2]);
        assert_eq!(t.histogram(1).unwrap(), vec![3, 3]);
    }

    #[test]
    fn run_writer_rejects_bad_codes_and_overflow() {
        let mut b = TableBuilder::new(demo_schema());
        {
            let mut run = b.begin_run(2);
            assert!(matches!(
                run.fill(0, 9, 2),
                Err(TableError::CodeOutOfRange { .. })
            ));
            assert!(matches!(
                run.fill(2, 9, 1),
                Err(TableError::CodeOutOfRange { .. })
            ));
            assert!(matches!(
                run.fill(1, 0, 3),
                Err(TableError::ColumnRunMismatch {
                    got: 3,
                    expected: 2,
                    ..
                })
            ));
            run.fill(2, 0, 2).unwrap();
            assert!(matches!(
                run.fill(2, 0, 1),
                Err(TableError::ColumnRunMismatch { .. })
            ));
        }
        // The unfinished run rolled back entirely.
        assert_eq!(b.rows(), 0);
        assert!(b.build().is_empty());
    }

    #[test]
    fn run_writer_finish_detects_underfill_and_rolls_back() {
        let mut b = TableBuilder::new(demo_schema());
        b.push_codes(&[0, 0, 0]).unwrap();
        let mut run = b.begin_run(3);
        run.fill(0, 1, 3).unwrap();
        run.fill(1, 1, 3).unwrap();
        run.fill(2, 2, 1).unwrap(); // SA column short by 2
        let err = run.finish().unwrap_err();
        assert!(matches!(
            err,
            TableError::ColumnRunMismatch {
                got: 1,
                expected: 3,
                ..
            }
        ));
        assert_eq!(b.rows(), 1, "failed run must not partially append");
        let t = b.build();
        assert_eq!(t.row(0).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut b = TableBuilder::new(demo_schema());
        let run = b.begin_run(0);
        run.finish().unwrap();
        assert_eq!(b.rows(), 0);
    }

    #[test]
    fn run_matches_row_pushes() {
        let mut by_rows = TableBuilder::new(demo_schema());
        by_rows.push_codes(&[0, 1, 2]).unwrap();
        by_rows.push_codes(&[0, 1, 0]).unwrap();
        by_rows.push_codes(&[0, 1, 1]).unwrap();
        let mut by_run = TableBuilder::new(demo_schema());
        let mut run = by_run.begin_run(3);
        run.fill(0, 0, 3).unwrap();
        run.fill(1, 1, 3).unwrap();
        for code in [2, 0, 1] {
            run.fill(2, code, 1).unwrap();
        }
        run.finish().unwrap();
        assert_eq!(by_rows.build(), by_run.build());
    }

    #[test]
    fn from_columns_validates_codes() {
        let schema = demo_schema();
        let bad = Table::from_columns(
            schema.clone(),
            vec![
                Column::from_codes(vec![0]),
                Column::from_codes(vec![0]),
                Column::from_codes(vec![9]), // out of domain
            ],
        );
        assert!(matches!(bad, Err(TableError::CodeOutOfRange { .. })));
        let ragged = Table::from_columns(
            schema,
            vec![
                Column::from_codes(vec![0, 1]),
                Column::from_codes(vec![0]),
                Column::from_codes(vec![0, 1]),
            ],
        );
        assert!(ragged.is_err());
    }

    #[test]
    fn histogram_counts_all_rows() {
        let t = demo_table();
        assert_eq!(t.histogram(0).unwrap(), vec![2, 2]);
        assert_eq!(t.histogram(2).unwrap(), vec![2, 1, 1]);
    }

    #[test]
    fn histogram_over_subset() {
        let t = demo_table();
        assert_eq!(t.histogram_over(2, &[0, 3]), vec![2, 0, 0]);
        assert_eq!(t.histogram_over(2, &[]), vec![0, 0, 0]);
    }

    #[test]
    fn with_column_replaced_validates() {
        let t = demo_table();
        let t2 = t
            .with_column_replaced(2, Column::from_codes(vec![0, 0, 0, 0]))
            .unwrap();
        assert_eq!(t2.histogram(2).unwrap(), vec![4, 0, 0]);
        assert!(t
            .with_column_replaced(2, Column::from_codes(vec![0, 0]))
            .is_err());
        assert!(t
            .with_column_replaced(2, Column::from_codes(vec![0, 0, 0, 7]))
            .is_err());
    }

    #[test]
    fn row_out_of_range_is_error() {
        let t = demo_table();
        assert!(matches!(
            t.row(10),
            Err(TableError::RowOutOfRange { row: 10, rows: 4 })
        ));
    }

    #[test]
    fn empty_table() {
        let t = TableBuilder::new(demo_schema()).build();
        assert!(t.is_empty());
        assert_eq!(t.histogram(0).unwrap(), vec![0, 0]);
    }
}
