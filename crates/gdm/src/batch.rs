//! Columnar region batches: a sample's regions laid out as columns.
//!
//! A [`RegionBatch`] holds what a list of [`GRegion`] rows holds, but
//! struct-of-arrays — the shape of Lawrence & Morgan's `GRanges`: the
//! chromosome as runs, `left[]`, `right[]`, the strands, and one typed
//! column per schema attribute with a null bitmap. A cold read decodes
//! each sample into one; the batch answers its length, genome order,
//! window bounds and encoded size from its columns, and SELECT and
//! PROJECT work on it directly. Rows are built from it only when
//! something asks for rows ([`crate::Regions`]).
//!
//! Either kind of region is read through [`RegionRow`], so one bound
//! expression evaluates over a row and over a batch position alike.

use crate::coords::{genome_order, Chrom, Strand};
use crate::error::GdmError;
use crate::region::GRegion;
use crate::schema::Schema;
use crate::value::{Value, ValueType};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

/// One cell, borrowed: a [`Value`] whose string stays where it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// String value.
    Str(&'a str),
    /// Boolean value.
    Bool(bool),
    /// Null.
    Null,
}

impl ValueRef<'_> {
    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Null => Value::Null,
        }
    }

    /// As [`Value::value_type`]: `None` for a null.
    pub fn value_type(self) -> Option<ValueType> {
        match self {
            ValueRef::Int(_) => Some(ValueType::Int),
            ValueRef::Float(_) => Some(ValueType::Float),
            ValueRef::Str(_) => Some(ValueType::Str),
            ValueRef::Bool(_) => Some(ValueType::Bool),
            ValueRef::Null => None,
        }
    }

    /// As [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            ValueRef::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            ValueRef::Str(_) | ValueRef::Null => None,
        }
    }

    /// As [`Value::total_cmp`].
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Bool(_) => 1,
                ValueRef::Int(_) | ValueRef::Float(_) => 2,
                ValueRef::Str(_) => 3,
            }
        }
        match (self, other) {
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(&b),
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (ValueRef::Int(_) | ValueRef::Float(_), ValueRef::Int(_) | ValueRef::Float(_)) => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Null => ValueRef::Null,
        }
    }
}

/// Read access to one region, a row or a position in a batch: its fixed
/// attributes and its cells by schema position.
pub trait RegionRow {
    /// Chromosome.
    fn chrom(&self) -> &Chrom;
    /// Left end (0-based, inclusive).
    fn left(&self) -> u64;
    /// Right end (exclusive).
    fn right(&self) -> u64;
    /// Strand.
    fn strand(&self) -> Strand;
    /// The cell at schema position `col`; `None` past the row's width.
    fn cell(&self, col: usize) -> Option<ValueRef<'_>>;
}

impl RegionRow for GRegion {
    fn chrom(&self) -> &Chrom {
        &self.chrom
    }
    fn left(&self) -> u64 {
        self.left
    }
    fn right(&self) -> u64 {
        self.right
    }
    fn strand(&self) -> Strand {
        self.strand
    }
    fn cell(&self, col: usize) -> Option<ValueRef<'_>> {
        self.values.get(col).map(ValueRef::from)
    }
}

/// A borrowed region reads as the region.
impl<T: RegionRow + ?Sized> RegionRow for &T {
    fn chrom(&self) -> &Chrom {
        (**self).chrom()
    }
    fn left(&self) -> u64 {
        (**self).left()
    }
    fn right(&self) -> u64 {
        (**self).right()
    }
    fn strand(&self) -> Strand {
        (**self).strand()
    }
    fn cell(&self, col: usize) -> Option<ValueRef<'_>> {
        (**self).cell(col)
    }
}

/// One typed value column of a batch and its null bitmap (bit `i` set:
/// row `i` is null). A null row keeps a placeholder in the payload, so a
/// row indexes the payload directly.
#[derive(Debug, Clone)]
pub struct Column {
    data: Data,
    nulls: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Data {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Row `i`'s string is `bytes[ends[i - 1]..ends[i]]` (from 0 for row 0).
    Str {
        ends: Vec<usize>,
        bytes: String,
    },
    /// Every row null, with no payload: a column a read pruned but keeps
    /// in position as typed nulls.
    Null,
}

impl Column {
    /// An empty column of type `ty`, with room for `capacity` rows.
    pub fn with_capacity(ty: ValueType, capacity: usize) -> Column {
        let data = match ty {
            ValueType::Int => Data::Int(Vec::with_capacity(capacity)),
            ValueType::Float => Data::Float(Vec::with_capacity(capacity)),
            ValueType::Bool => Data::Bool(Vec::with_capacity(capacity)),
            ValueType::Str => {
                Data::Str { ends: Vec::with_capacity(capacity), bytes: String::new() }
            }
        };
        Column { data, nulls: Vec::new() }
    }

    /// A column that is null in every row, however many the batch has.
    pub fn nulls() -> Column {
        Column { data: Data::Null, nulls: Vec::new() }
    }

    /// Rows pushed so far; `None` for an all-null column, which has the
    /// batch's length.
    fn pushed(&self) -> Option<usize> {
        match &self.data {
            Data::Int(v) => Some(v.len()),
            Data::Float(v) => Some(v.len()),
            Data::Bool(v) => Some(v.len()),
            Data::Str { ends, .. } => Some(ends.len()),
            Data::Null => None,
        }
    }

    /// The type of the payload; `None` for an all-null column.
    fn value_type(&self) -> Option<ValueType> {
        match &self.data {
            Data::Int(_) => Some(ValueType::Int),
            Data::Float(_) => Some(ValueType::Float),
            Data::Bool(_) => Some(ValueType::Bool),
            Data::Str { .. } => Some(ValueType::Str),
            Data::Null => None,
        }
    }

    fn is_null(&self, i: usize) -> bool {
        matches!(self.data, Data::Null)
            || self.nulls.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Append a null.
    pub fn push_null(&mut self) {
        let Some(i) = self.pushed() else { return };
        if self.nulls.len() <= i / 64 {
            self.nulls.resize(i / 64 + 1, 0);
        }
        self.nulls[i / 64] |= 1 << (i % 64);
        match &mut self.data {
            Data::Int(v) => v.push(0),
            Data::Float(v) => v.push(0.0),
            Data::Bool(v) => v.push(false),
            Data::Str { ends, bytes } => ends.push(bytes.len()),
            Data::Null => {}
        }
    }

    /// Append a value of the column's type (a null, or any value, to an
    /// all-null column changes nothing). Panics on another type: the
    /// caller builds a column of the type it decodes.
    pub fn push(&mut self, v: ValueRef<'_>) {
        if let Err(got) = self.try_push(v) {
            panic!("a {got} value pushed onto a column of another type");
        }
    }

    /// [`Column::push`], refusing a value of another type than the
    /// column's instead: nothing is appended, and the error is that type.
    pub fn try_push(&mut self, v: ValueRef<'_>) -> Result<(), ValueType> {
        let Some(got) = v.value_type() else {
            self.push_null();
            return Ok(());
        };
        match (&mut self.data, v) {
            (Data::Int(col), ValueRef::Int(x)) => col.push(x),
            (Data::Float(col), ValueRef::Float(x)) => col.push(x),
            (Data::Bool(col), ValueRef::Bool(x)) => col.push(x),
            (Data::Str { ends, bytes }, ValueRef::Str(x)) => {
                bytes.push_str(x);
                ends.push(bytes.len());
            }
            (Data::Null, _) => {}
            _ => return Err(got),
        }
        Ok(())
    }

    /// Append `other`'s rows after this column's `n`: both are of one
    /// type, or both all-null.
    fn append(&mut self, other: Column, n: usize) {
        match (&mut self.data, other.data) {
            (Data::Int(a), Data::Int(b)) => a.extend(b),
            (Data::Float(a), Data::Float(b)) => a.extend(b),
            (Data::Bool(a), Data::Bool(b)) => a.extend(b),
            (Data::Str { ends, bytes }, Data::Str { ends: more, bytes: text }) => {
                let base = bytes.len();
                ends.extend(more.into_iter().map(|e| base + e));
                bytes.push_str(&text);
            }
            (Data::Null, Data::Null) => {}
            _ => panic!("appended columns are of one type"),
        }
        // Row `i` of `other` is null: so is row `n + i` here.
        for (w, mut bits) in other.nulls.into_iter().enumerate() {
            while bits != 0 {
                let i = n + w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.nulls.len() <= i / 64 {
                    self.nulls.resize(i / 64 + 1, 0);
                }
                self.nulls[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// The cell of row `i`.
    fn get(&self, i: usize) -> ValueRef<'_> {
        if self.is_null(i) {
            return ValueRef::Null;
        }
        match &self.data {
            Data::Int(v) => ValueRef::Int(v[i]),
            Data::Float(v) => ValueRef::Float(v[i]),
            Data::Bool(v) => ValueRef::Bool(v[i]),
            Data::Str { ends, bytes } => {
                let start = if i == 0 { 0 } else { ends[i - 1] };
                ValueRef::Str(&bytes[start..ends[i]])
            }
            Data::Null => ValueRef::Null,
        }
    }

    /// What [`Value::encoded_size`] sums to over the column's `n` rows.
    fn encoded_size(&self, n: usize) -> usize {
        let nulls = match self.data {
            Data::Null => n,
            _ => self.nulls.iter().map(|w| w.count_ones() as usize).sum(),
        };
        let set = n - nulls;
        nulls
            + match &self.data {
                Data::Int(_) | Data::Float(_) => 8 * set,
                Data::Bool(_) => set,
                // Null rows add no bytes to the payload.
                Data::Str { bytes, .. } => bytes.len() + 4 * set,
                Data::Null => 0,
            }
    }

    /// The rows at `rows`, in that order.
    fn gather(&self, rows: &[usize]) -> Column {
        let mut out = match self.value_type() {
            Some(ty) => Column::with_capacity(ty, rows.len()),
            None => return Column::nulls(),
        };
        for &i in rows {
            out.push(self.get(i));
        }
        out
    }
}

/// One region of a batch, read in place.
#[derive(Debug, Clone, Copy)]
pub struct BatchRow<'a> {
    batch: &'a RegionBatch,
    chrom: &'a Chrom,
    i: usize,
}

impl BatchRow<'_> {
    /// The row's position in its batch.
    pub fn index(&self) -> usize {
        self.i
    }

    /// The region as a row of its own.
    pub fn to_region(&self) -> GRegion {
        let b = self.batch;
        GRegion {
            chrom: self.chrom.clone(),
            left: b.left[self.i],
            right: b.right[self.i],
            strand: b.strand[self.i],
            values: b.columns.iter().map(|c| c.get(self.i).to_value()).collect(),
        }
    }
}

impl RegionRow for BatchRow<'_> {
    fn chrom(&self) -> &Chrom {
        self.chrom
    }
    fn left(&self) -> u64 {
        self.batch.left[self.i]
    }
    fn right(&self) -> u64 {
        self.batch.right[self.i]
    }
    fn strand(&self) -> Strand {
        self.batch.strand[self.i]
    }
    fn cell(&self, col: usize) -> Option<ValueRef<'_>> {
        self.batch.columns.get(col).map(|c| c.get(self.i))
    }
}

/// A sample's regions as columns: chromosome runs, `left[]`, `right[]`,
/// strands and one typed [`Column`] per schema attribute. Rows `i` of
/// every column together are what row `i` of [`RegionBatch::to_rows`] is.
#[derive(Debug, Clone, Default)]
pub struct RegionBatch {
    /// Each run's chromosome and the row its run ends before; runs are
    /// never empty and cover the rows in order.
    runs: Vec<(Chrom, usize)>,
    left: Vec<u64>,
    right: Vec<u64>,
    strand: Vec<Strand>,
    columns: Vec<Column>,
}

impl RegionBatch {
    /// An empty batch whose cells go to `columns` (one per schema
    /// attribute, in schema order).
    pub fn new(columns: Vec<Column>) -> RegionBatch {
        RegionBatch { columns, ..RegionBatch::default() }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True when the batch holds no region.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// Reserve room for `n` more regions' coordinates and cells (a text
    /// column's bytes aside).
    pub fn reserve(&mut self, n: usize) {
        self.left.reserve(n);
        self.right.reserve(n);
        self.strand.reserve(n);
        for column in &mut self.columns {
            match &mut column.data {
                Data::Int(v) => v.reserve(n),
                Data::Float(v) => v.reserve(n),
                Data::Bool(v) => v.reserve(n),
                Data::Str { ends, .. } => ends.reserve(n),
                Data::Null => {}
            }
        }
    }

    /// Append a region's coordinates; its chromosome is named by the
    /// next [`RegionBatch::end_run`], its cells by pushes onto
    /// [`RegionBatch::columns_mut`].
    pub fn push_coords(&mut self, left: u64, right: u64, strand: Strand) {
        self.left.push(left);
        self.right.push(right);
        self.strand.push(strand);
    }

    /// Close the run of regions pushed since the last run: they lie on
    /// `chrom`. Nothing pushed, no run.
    pub fn end_run(&mut self, chrom: &Chrom) {
        let start = self.runs.last().map_or(0, |r| r.1);
        if self.len() > start {
            self.runs.push((chrom.clone(), self.len()));
        }
    }

    /// The value columns, for appending cells.
    pub fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// Append a value column after the others, holding one cell for
    /// each of the batch's rows.
    pub fn push_column(&mut self, column: Column) {
        debug_assert!(column.pushed().is_none_or(|n| n == self.len()), "one cell per row");
        self.columns.push(column);
    }

    /// An empty batch with an empty column of each of `schema`'s
    /// attribute types, in schema order.
    pub fn for_schema(schema: &Schema) -> RegionBatch {
        RegionBatch::new(
            schema.attributes().iter().map(|a| Column::with_capacity(a.ty, 0)).collect(),
        )
    }

    /// Append one region: its coordinates on `chrom` (the last run grows
    /// when it is on the same chromosome, else a run starts) and its
    /// cells, one per column in order. A cell of another type than its
    /// column's, or a count of cells other than the columns', is refused
    /// with the error [`RegionBatch::check`] gives for it, the attribute
    /// named from `schema`; the batch is then part-written, to be dropped.
    pub fn push_row<'v>(
        &mut self,
        schema: &Schema,
        (chrom, left, right, strand): (&Chrom, u64, u64, Strand),
        cells: impl IntoIterator<Item = ValueRef<'v>>,
    ) -> Result<(), GdmError> {
        self.push_coords(left, right, strand);
        let n = self.len();
        match self.runs.last_mut() {
            Some((last, end)) if *end + 1 == n && *last == *chrom => *end = n,
            _ => self.runs.push((chrom.clone(), n)),
        }
        let mut cells = cells.into_iter();
        let expected = self.columns.len();
        for (k, column) in self.columns.iter_mut().enumerate() {
            let v = cells.next().ok_or(GdmError::ArityMismatch { expected, got: k })?;
            column.try_push(v).map_err(|got| GdmError::TypeMismatch {
                attribute: schema.attributes().get(k).map(|a| a.name.clone()).unwrap_or_default(),
                expected: column.value_type().unwrap_or(got),
                got,
            })?;
        }
        match cells.count() {
            0 => Ok(()),
            more => Err(GdmError::ArityMismatch { expected, got: expected + more }),
        }
    }

    /// Append `other`'s rows after this batch's: its columns are of this
    /// batch's types, as those of two batches made for one schema
    /// ([`RegionBatch::for_schema`]) are (a panic otherwise). Appended to
    /// an empty batch, `other` is taken as it is.
    pub fn append(&mut self, other: RegionBatch) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let n = self.len();
        let RegionBatch { runs, left, right, strand, columns } = other;
        for (k, (chrom, end)) in runs.into_iter().enumerate() {
            match self.runs.last_mut() {
                Some((last, at)) if k == 0 && *last == chrom => *at = n + end,
                _ => self.runs.push((chrom, n + end)),
            }
        }
        self.left.extend(left);
        self.right.extend(right);
        self.strand.extend(strand);
        for (column, more) in self.columns.iter_mut().zip(columns) {
            column.append(more, n);
        }
    }

    /// The chromosome runs: each chromosome with the rows it covers.
    fn runs(&self) -> impl Iterator<Item = (&Chrom, Range<usize>)> {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|r| r.1));
        self.runs.iter().zip(starts).map(|((chrom, end), start)| (chrom, start..*end))
    }

    /// The chromosome of row `i`.
    fn chrom_at(&self, i: usize) -> &Chrom {
        &self.runs[self.runs.partition_point(|r| r.1 <= i)].0
    }

    /// Row `i`, read in place.
    pub fn row(&self, i: usize) -> BatchRow<'_> {
        BatchRow { batch: self, chrom: self.chrom_at(i), i }
    }

    /// Every row, read in place, in order.
    fn rows(&self) -> impl Iterator<Item = BatchRow<'_>> {
        self.runs()
            .flat_map(move |(chrom, range)| range.map(move |i| BatchRow { batch: self, chrom, i }))
    }

    /// The rows of `range`, read in place, in order.
    pub fn rows_in(&self, range: Range<usize>) -> impl Iterator<Item = BatchRow<'_>> {
        let mut run = self.runs.partition_point(|r| r.1 <= range.start);
        range.map(move |i| {
            while self.runs[run].1 <= i {
                run += 1;
            }
            BatchRow { batch: self, chrom: &self.runs[run].0, i }
        })
    }

    /// Build every region as a row, in order; a run's rows share its
    /// chromosome handle.
    pub fn to_rows(&self) -> Vec<GRegion> {
        let mut rows = Vec::with_capacity(self.len());
        rows.extend(self.rows().map(|r| r.to_region()));
        rows
    }

    /// Check the batch against the schema as [`Schema::check_row`] checks
    /// each of its rows: a column per attribute, and no column holding
    /// values of another type. An empty batch passes, as no rows do.
    pub fn check(&self, schema: &Schema) -> Result<(), GdmError> {
        if self.is_empty() {
            return Ok(());
        }
        if self.columns.len() != schema.len() {
            return Err(GdmError::ArityMismatch {
                expected: schema.len(),
                got: self.columns.len(),
            });
        }
        for (attr, column) in schema.attributes().iter().zip(&self.columns) {
            match column.value_type() {
                Some(ty) if ty != attr.ty && (0..self.len()).any(|i| !column.is_null(i)) => {
                    return Err(GdmError::TypeMismatch {
                        attribute: attr.name.clone(),
                        expected: attr.ty,
                        got: ty,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn key<'a>(&self, chrom: &'a Chrom, i: usize) -> (&'a Chrom, u64, u64, Strand) {
        (chrom, self.left[i], self.right[i], self.strand[i])
    }

    /// True when the rows are in genome order.
    pub fn is_sorted(&self) -> bool {
        let mut prev: Option<(&Chrom, usize)> = None;
        for (chrom, range) in self.runs() {
            if let Some((pc, pi)) = prev {
                if genome_order(self.key(pc, pi), self.key(chrom, range.start)) == Ordering::Greater
                {
                    return false;
                }
            }
            for i in range.start + 1..range.end {
                if genome_order(self.key(chrom, i - 1), self.key(chrom, i)) == Ordering::Greater {
                    return false;
                }
            }
            prev = Some((chrom, range.end - 1));
        }
        true
    }

    /// Put the rows into genome order (stable, as sorting rows is).
    pub fn sort(&mut self) {
        if self.is_sorted() {
            return;
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            genome_order(self.key(self.chrom_at(a), a), self.key(self.chrom_at(b), b))
        });
        *self = self.gather(&order);
    }

    /// The rows at `rows`, in that order, as a batch of their own.
    pub fn gather(&self, rows: &[usize]) -> RegionBatch {
        let mut out = RegionBatch {
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            ..RegionBatch::default()
        };
        out.reserve(rows.len());
        // The run of the previous row: ascending rows stay in one run
        // without a search.
        let mut run: Option<usize> = None;
        for &i in rows {
            let in_run =
                run.is_some_and(|k| (k == 0 || self.runs[k - 1].1 <= i) && i < self.runs[k].1);
            if !in_run {
                if let Some(k) = run {
                    out.end_run(&self.runs[k].0);
                }
                run = Some(self.runs.partition_point(|r| r.1 <= i));
            }
            out.push_coords(self.left[i], self.right[i], self.strand[i]);
        }
        if let Some(k) = run {
            out.end_run(&self.runs[k].0);
        }
        out
    }

    /// The batch with only the columns at `keep`, in that order: an owned
    /// batch keeps its coordinates and moves the kept columns, dropping
    /// the rest; a borrowed one has its coordinates and the kept columns
    /// copied.
    pub fn projection(batch: Cow<'_, RegionBatch>, keep: &[usize]) -> RegionBatch {
        let (mut out, mut columns): (RegionBatch, Vec<Option<Cow<'_, Column>>>) = match batch {
            Cow::Owned(mut b) => {
                let columns = std::mem::take(&mut b.columns);
                (b, columns.into_iter().map(|c| Some(Cow::Owned(c))).collect())
            }
            Cow::Borrowed(b) => (
                RegionBatch {
                    runs: b.runs.clone(),
                    left: b.left.clone(),
                    right: b.right.clone(),
                    strand: b.strand.clone(),
                    columns: Vec::new(),
                },
                b.columns.iter().map(|c| Some(Cow::Borrowed(c))).collect(),
            ),
        };
        out.columns = keep
            .iter()
            .map(|&i| columns[i].take().expect("kept columns are distinct").into_owned())
            .collect();
        out
    }

    /// Where the rows on `chrom` with `lo <= left <= hi` lie (requires
    /// genome order): what [`crate::Sample::window`] answers for the same
    /// regions as rows, found over the runs and the `left` column.
    pub fn window(&self, chrom: &Chrom, lo: u64, hi: u64) -> Range<usize> {
        debug_assert!(self.is_sorted(), "window requires genome order");
        let row_at = |k: usize| if k == 0 { 0 } else { self.runs[k - 1].1 };
        let run_start = row_at(self.runs.partition_point(|r| r.0 < *chrom));
        let run_end = row_at(self.runs.partition_point(|r| r.0 <= *chrom));
        let run = &self.left[run_start..run_end];
        let start = run.partition_point(|&l| l < lo);
        let end = start + run[start..].partition_point(|&l| l <= hi);
        run_start + start..run_start + end
    }

    /// Distinct chromosomes present, in genome order (requires it).
    pub fn chromosomes(&self) -> Vec<Chrom> {
        let mut out: Vec<Chrom> = Vec::new();
        for (chrom, _) in &self.runs {
            if out.last() != Some(chrom) {
                out.push(chrom.clone());
            }
        }
        out
    }

    /// Total bases covered, counting overlaps multiply.
    pub fn total_length(&self) -> u64 {
        self.left.iter().zip(&self.right).map(|(l, r)| r - l).sum()
    }

    /// What [`GRegion::encoded_size`] sums to over the rows, from the
    /// columns: per run its rows times the coordinates' size, per column
    /// its payload and null counts.
    pub fn encoded_size(&self) -> usize {
        let coords: usize =
            self.runs().map(|(chrom, range)| range.len() * (chrom.as_str().len() + 17)).sum();
        coords + self.columns.iter().map(|c| c.encoded_size(self.len())).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        use crate::schema::Attribute;
        Schema::new(vec![
            Attribute::new("score", ValueType::Float),
            Attribute::new("name", ValueType::Str),
            Attribute::new("n", ValueType::Int),
            Attribute::new("flag", ValueType::Bool),
        ])
        .unwrap()
    }

    fn rows() -> Vec<GRegion> {
        let r = |c: &str, l: u64, rr: u64, s: Strand, v: Vec<Value>| {
            GRegion::new(c, l, rr, s).with_values(v)
        };
        vec![
            r("chr1", 5, 9, Strand::Pos, vec![1.5.into(), "a".into(), 3i64.into(), true.into()]),
            r("chr1", 5, 9, Strand::Neg, vec![Value::Null, "".into(), Value::Null, false.into()]),
            r(
                "chr1",
                20,
                20,
                Strand::Unstranded,
                vec![f64::NAN.into(), Value::Null, (-7i64).into(), Value::Null],
            ),
            r(
                "chr2",
                0,
                100,
                Strand::Pos,
                vec![0.0.into(), "long name".into(), 0i64.into(), true.into()],
            ),
            r("chr10", 3, 4, Strand::Neg, vec![Value::Null, Value::Null, Value::Null, Value::Null]),
        ]
    }

    /// The batch a decoder would build of `rows` (given in genome order).
    fn batch_of(rows: &[GRegion], schema: &Schema) -> RegionBatch {
        let mut b = RegionBatch::for_schema(schema);
        for (k, r) in rows.iter().enumerate() {
            b.push_coords(r.left, r.right, r.strand);
            for (c, v) in b.columns_mut().iter_mut().zip(&r.values) {
                c.push(v.into());
            }
            if rows.get(k + 1).is_none_or(|next| next.chrom != r.chrom) {
                b.end_run(&r.chrom);
            }
        }
        b
    }

    #[test]
    fn a_batch_holds_its_rows_and_sizes_them_to_the_byte() {
        let (rows, schema) = (rows(), schema());
        let b = batch_of(&rows, &schema);
        assert_eq!(b.len(), rows.len());
        // NaN != NaN: compare the rendering.
        assert_eq!(format!("{:?}", b.to_rows()), format!("{rows:?}"));
        assert_eq!(b.encoded_size(), rows.iter().map(GRegion::encoded_size).sum::<usize>());
        assert_eq!(b.total_length(), rows.iter().map(GRegion::len).sum::<u64>());
        assert!(b.is_sorted());
        b.check(&schema).unwrap();
        let names: Vec<String> = b.chromosomes().iter().map(|c| c.as_str().to_owned()).collect();
        assert_eq!(names, ["chr1", "chr2", "chr10"]);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(b.row(i).chrom(), &r.chrom);
            assert_eq!(format!("{:?}", b.row(i).to_region()), format!("{r:?}"));
        }
    }

    #[test]
    fn all_null_columns_size_and_read_as_typed_nulls() {
        let schema = schema();
        let mut b = RegionBatch::new((0..4).map(|_| Column::nulls()).collect());
        b.push_coords(0, 10, Strand::Pos);
        b.push_coords(4, 5, Strand::Pos);
        b.end_run(&Chrom::new("chrX"));
        b.check(&schema).unwrap();
        let rows = b.to_rows();
        assert!(rows.iter().all(|r| r.values == vec![Value::Null; 4]));
        assert_eq!(b.encoded_size(), rows.iter().map(GRegion::encoded_size).sum::<usize>());
    }

    #[test]
    fn windows_are_those_of_the_rows() {
        let schema = schema();
        let rows = rows();
        let b = batch_of(&rows, &schema);
        let s = crate::Sample::new("s", "D").with_regions(rows);
        for chrom in ["chr1", "chr2", "chr10", "chr3", "chrX", "chr0"] {
            let chrom = Chrom::new(chrom);
            for (lo, hi) in [(0, u64::MAX), (5, 5), (6, 20), (21, 1), (0, 4)] {
                assert_eq!(b.window(&chrom, lo, hi), s.window(&chrom, lo, hi), "{chrom} {lo} {hi}");
            }
        }
    }

    #[test]
    fn gather_sort_and_projection_keep_rows_whole() {
        let schema = schema();
        let rows = rows();
        let b = batch_of(&rows, &schema);
        let picked = b.gather(&[0, 2, 3]);
        assert_eq!(picked.runs().count(), 2);
        assert_eq!(
            format!("{:?}", picked.to_rows()),
            format!("{:?}", vec![rows[0].clone(), rows[2].clone(), rows[3].clone()])
        );
        assert_eq!(
            picked.encoded_size(),
            [0, 2, 3].iter().map(|&i| rows[i].encoded_size()).sum::<usize>()
        );
        // Reversed rows are out of order; sorting restores them.
        let mut reversed = b.gather(&[4, 3, 2, 1, 0]);
        assert!(!reversed.is_sorted());
        reversed.sort();
        assert_eq!(format!("{:?}", reversed.to_rows()), format!("{rows:?}"));
        let narrow = RegionBatch::projection(Cow::Borrowed(&b), &[2, 0]);
        let moved = RegionBatch::projection(Cow::Owned(b.clone()), &[2, 0]);
        for (i, r) in rows.iter().enumerate() {
            let want = vec![r.values[2].clone(), r.values[0].clone()];
            assert_eq!(format!("{:?}", narrow.row(i).to_region().values), format!("{want:?}"));
            assert_eq!(format!("{:?}", moved.row(i).to_region().values), format!("{want:?}"));
        }
    }

    /// Held by every test that builds a batch-backed buffer's rows, so
    /// that the process-wide count moves only for the test holding it.
    static ROW_BUILDS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn a_batch_backed_buffer_answers_from_its_columns_until_written() {
        let _one = ROW_BUILDS.lock().unwrap_or_else(|p| p.into_inner());
        let (rows, schema) = (rows(), schema());
        let walked: usize = rows.iter().map(GRegion::encoded_size).sum();
        let before = crate::rows_built();
        let mut regions = crate::Regions::from(batch_of(&rows, &schema));
        assert_eq!((regions.len(), regions.encoded_size()), (rows.len(), walked));
        regions.check(&schema).unwrap();
        let sample = crate::Sample { regions: regions.clone(), ..crate::Sample::new("s", "D") };
        assert!(sample.is_sorted());
        assert_eq!(sample.total_region_length(), rows.iter().map(GRegion::len).sum::<u64>());
        assert_eq!(sample.chromosomes().len(), 3);
        assert_eq!(format!("{:?}", regions.each_row().nth(2)), format!("{:?}", rows.get(2)));
        assert_eq!(regions.each_row().count(), rows.len());
        assert_eq!(format!("{regions:?}"), format!("{rows:?}"));
        assert_eq!(crate::rows_built(), before, "nothing above built the rows");
        assert!(!regions.has_rows());

        // A write on a shared buffer copies rows built from the batch and
        // leaves the shared one batch-backed; held alone, the rows are
        // built in place and the batch let go. Either forgets the size.
        let mut copy = regions.clone();
        copy.make_mut().pop();
        assert_eq!(crate::rows_built() - before, rows.len() as u64);
        assert!(copy.batch().is_none() && regions.batch().is_some() && !regions.has_rows());
        assert_eq!(copy.known_size(), None);
        drop(sample);
        regions.get_mut().expect("held alone").truncate(1);
        assert_eq!(crate::rows_built() - before, 2 * rows.len() as u64);
        assert!(regions.batch().is_none());
        assert_eq!(regions.encoded_size(), rows[0].encoded_size());

        // Rows built through a read let the batch go and keep the
        // remembered size; a reader that borrowed the batch keeps its
        // own until it is done. `into_batch` gives the batch back only
        // to a sole holder.
        let read = crate::Regions::from(batch_of(&rows, &schema));
        read.encoded_size();
        let borrowed = read.batch().expect("batch-backed");
        assert_eq!(format!("{:?}", &*read), format!("{rows:?}"));
        assert!(read.has_rows() && read.batch().is_none());
        assert_eq!(read.known_size(), Some(walked));
        assert_eq!(std::sync::Arc::strong_count(&borrowed), 1, "the buffer let its batch go");
        assert_eq!(borrowed.len(), rows.len());
        assert!(read.into_batch().is_err(), "the rows are what it holds now");
        let batched = crate::Regions::from(batch_of(&rows, &schema));
        let held = batched.clone();
        let batched = batched.into_batch().expect_err("shared");
        drop(held);
        assert_eq!(batched.into_batch().expect("held alone").len(), rows.len());
    }

    /// Threads racing to the first row access of one batch-backed
    /// buffer, while others read it without rows: the rows are built
    /// once, every thread sees those very rows or the same regions from
    /// the columns, and the batch is let go.
    #[test]
    fn racing_first_row_accesses_build_the_rows_once() {
        let _one = ROW_BUILDS.lock().unwrap_or_else(|p| p.into_inner());
        let (rows, schema) = (rows(), schema());
        let want = format!("{rows:?}");
        let walked: usize = rows.iter().map(GRegion::encoded_size).sum();
        for _ in 0..20 {
            let regions = crate::Regions::from(batch_of(&rows, &schema));
            let before = crate::rows_built();
            let barrier = std::sync::Barrier::new(8);
            let seen: Vec<Option<usize>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|t| {
                        let (regions, barrier, want, n) = (&regions, &barrier, &want, rows.len());
                        scope.spawn(move || {
                            barrier.wait();
                            if t % 2 == 0 {
                                let built: &[GRegion] = regions;
                                assert_eq!(&format!("{built:?}"), want);
                                Some(built.as_ptr() as usize)
                            } else {
                                assert_eq!(&format!("{regions:?}"), want);
                                assert_eq!(regions.len(), n);
                                assert_eq!(regions.encoded_size(), walked);
                                None
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(crate::rows_built() - before, rows.len() as u64, "built once");
            let at: Vec<usize> = seen.into_iter().flatten().collect();
            assert!(at.iter().all(|a| *a == at[0]), "one set of rows: {at:?}");
            assert!(regions.has_rows() && regions.batch().is_none());
        }
    }

    /// Rows pushed one by one into parts and the parts appended hold
    /// the rows, nulls and strings included, across bitmap words and run
    /// boundaries; a run that spans two parts is one run.
    #[test]
    fn rows_pushed_into_parts_and_appended_are_the_rows() {
        let schema = schema();
        let mut rows = Vec::new();
        for i in 0..150u64 {
            let chrom = if i < 70 {
                "chr1"
            } else if i < 71 {
                "chr01"
            } else {
                "chr2"
            };
            let values = vec![
                if i % 3 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                if i % 5 == 0 { Value::Null } else { Value::Str(format!("r{i}")) },
                if i % 7 == 0 { Value::Null } else { Value::Int(i as i64) },
                Value::Bool(i % 2 == 0),
            ];
            rows.push(GRegion::new(chrom, i, i + 3, Strand::Pos).with_values(values));
        }
        let push = |rows: &[GRegion]| {
            let mut part = RegionBatch::for_schema(&schema);
            for r in rows {
                let at = (&r.chrom, r.left, r.right, r.strand);
                part.push_row(&schema, at, r.values.iter().map(ValueRef::from)).unwrap();
            }
            part
        };
        for cuts in [vec![150], vec![0, 64, 65, 150], vec![1, 70, 71, 129, 150]] {
            let mut whole = RegionBatch::for_schema(&schema);
            let mut from = 0;
            for to in cuts {
                whole.append(push(&rows[from..to]));
                from = to;
            }
            assert_eq!(format!("{:?}", whole.to_rows()), format!("{rows:?}"));
            assert_eq!(whole.runs().count(), 3, "chr1, chr01, chr2");
            assert_eq!(whole.encoded_size(), rows.iter().map(GRegion::encoded_size).sum::<usize>());
            whole.check(&schema).unwrap();
        }
    }

    #[test]
    fn a_pushed_cell_of_another_type_is_the_checks_error() {
        let schema = schema();
        let mut b = RegionBatch::for_schema(&schema);
        let chr1 = Chrom::new("chr1");
        let cells = [ValueRef::Float(1.0), ValueRef::Int(2), ValueRef::Null, ValueRef::Null];
        assert_eq!(
            b.push_row(&schema, (&chr1, 0, 1, Strand::Pos), cells),
            Err(GdmError::TypeMismatch {
                attribute: "name".into(),
                expected: ValueType::Str,
                got: ValueType::Int
            })
        );
        let short = [ValueRef::Float(1.0)];
        assert_eq!(
            RegionBatch::for_schema(&schema).push_row(&schema, (&chr1, 0, 1, Strand::Pos), short),
            Err(GdmError::ArityMismatch { expected: 4, got: 1 })
        );
        let long = [ValueRef::Null; 6];
        assert_eq!(
            RegionBatch::for_schema(&schema).push_row(&schema, (&chr1, 0, 1, Strand::Pos), long),
            Err(GdmError::ArityMismatch { expected: 4, got: 6 })
        );
        assert_eq!(
            Column::with_capacity(ValueType::Int, 0).try_push(ValueRef::Str("x")),
            Err(ValueType::Str)
        );
    }

    #[test]
    fn a_column_of_another_type_fails_the_schema_check() {
        let schema = schema();
        let mut b = RegionBatch::new(vec![
            Column::with_capacity(ValueType::Int, 1),
            Column::nulls(),
            Column::nulls(),
            Column::nulls(),
        ]);
        b.push_coords(0, 1, Strand::Pos);
        b.columns_mut()[0].push(ValueRef::Int(1));
        b.end_run(&Chrom::new("chr1"));
        assert!(matches!(b.check(&schema), Err(GdmError::TypeMismatch { .. })));
        let narrow = RegionBatch::projection(Cow::Owned(b), &[0]);
        assert!(matches!(
            narrow.check(&schema),
            Err(GdmError::ArityMismatch { expected: 4, got: 1 })
        ));
    }
}
