//! Tuples as inserted by workload generators and as returned (read-only)
//! by the search interface.

use std::ops::Range;

use crate::value::{AttrId, MeasureId, TupleKey, ValueId};

/// An owned tuple: one categorical value per attribute (in schema order)
/// plus one `f64` per measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    key: TupleKey,
    values: Vec<ValueId>,
    measures: Vec<f64>,
}

impl Tuple {
    /// Creates a tuple. `values.len()` must equal the schema's attribute
    /// count and `measures.len()` its measure count; this is validated at
    /// insert time by the database, not here.
    pub fn new(key: TupleKey, values: Vec<ValueId>, measures: Vec<f64>) -> Self {
        Self { key, values, measures }
    }

    /// The tuple's stable external key.
    pub fn key(&self) -> TupleKey {
        self.key
    }

    /// Categorical values in schema order.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Measure values in schema order.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Value of attribute `attr` (`t[A_i]` in the paper).
    pub fn value(&self, attr: AttrId) -> ValueId {
        self.values[attr.index()]
    }

    /// Value of measure `m`.
    pub fn measure(&self, m: MeasureId) -> f64 {
        self.measures[m.index()]
    }

    /// Consumes the tuple into its parts.
    pub fn into_parts(self) -> (TupleKey, Vec<ValueId>, Vec<f64>) {
        (self.key, self.values, self.measures)
    }
}

/// One result page as returned through the search interface: the key,
/// the categorical values and the measures of each returned tuple, stored
/// in three flat row-major columns. A page costs a constant number of
/// heap blocks, none per tuple, and is shared behind an `Arc` by every
/// outcome that returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    keys: Box<[TupleKey]>,
    values: Box<[ValueId]>,
    measures: Box<[f64]>,
    attr_count: usize,
    measure_count: usize,
}

impl Page {
    /// Assembles a page from its columns: `values` holds `attr_count`
    /// entries per key and `measures` holds `measure_count`.
    pub(crate) fn from_columns(
        keys: Vec<TupleKey>,
        values: Vec<ValueId>,
        measures: Vec<f64>,
        attr_count: usize,
        measure_count: usize,
    ) -> Self {
        debug_assert_eq!(values.len(), keys.len() * attr_count);
        debug_assert_eq!(measures.len(), keys.len() * measure_count);
        Self {
            keys: keys.into_boxed_slice(),
            values: values.into_boxed_slice(),
            measures: measures.into_boxed_slice(),
            attr_count,
            measure_count,
        }
    }

    /// The returned tuples, best-first.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            keys: &self.keys,
            values: &self.values,
            measures: &self.measures,
            attr_count: self.attr_count,
            measure_count: self.measure_count,
            next: 0,
        }
    }
}

/// A [`Page`] under construction: rows are appended one at a time from
/// the store, or in runs copied from an older page.
#[derive(Debug)]
pub(crate) struct PageBuilder {
    keys: Vec<TupleKey>,
    values: Vec<ValueId>,
    measures: Vec<f64>,
    attr_count: usize,
    measure_count: usize,
}

impl PageBuilder {
    /// An empty page with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize, attr_count: usize, measure_count: usize) -> Self {
        Self {
            keys: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows * attr_count),
            measures: Vec::with_capacity(rows * measure_count),
            attr_count,
            measure_count,
        }
    }

    /// Appends one row: its one-byte value codes in schema order, and its
    /// measures.
    #[inline]
    pub(crate) fn push(&mut self, key: TupleKey, values: &[u8], measures: &[f64]) {
        self.keys.push(key);
        self.values.extend(values.iter().map(|&v| ValueId(u32::from(v))));
        self.measures.extend_from_slice(measures);
    }

    /// Appends rows `rows` of `page`, one slice copy per column.
    pub(crate) fn extend_from(&mut self, page: &Page, rows: Range<usize>) {
        let (a, m) = (self.attr_count, self.measure_count);
        debug_assert_eq!((page.attr_count, page.measure_count), (a, m));
        self.keys.extend_from_slice(&page.keys[rows.clone()]);
        self.values.extend_from_slice(&page.values[rows.start * a..rows.end * a]);
        self.measures.extend_from_slice(&page.measures[rows.start * m..rows.end * m]);
    }

    /// The finished page.
    pub(crate) fn finish(self) -> Page {
        Page::from_columns(
            self.keys,
            self.values,
            self.measures,
            self.attr_count,
            self.measure_count,
        )
    }
}

/// Iterator over the rows of a [`Page`], best-first.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    keys: &'a [TupleKey],
    values: &'a [ValueId],
    measures: &'a [f64],
    attr_count: usize,
    measure_count: usize,
    /// Index of the next row to yield.
    next: usize,
}

impl<'a> Rows<'a> {
    /// No rows (an underflow's page).
    pub(crate) fn empty() -> Self {
        Self { keys: &[], values: &[], measures: &[], attr_count: 0, measure_count: 0, next: 0 }
    }

    fn row(&self, i: usize) -> TupleView<'a> {
        let (a, m) = (self.attr_count, self.measure_count);
        TupleView {
            key: self.keys[i],
            values: &self.values[i * a..(i + 1) * a],
            measures: &self.measures[i * m..(i + 1) * m],
        }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = TupleView<'a>;

    fn next(&mut self) -> Option<TupleView<'a>> {
        (self.next < self.keys.len()).then(|| {
            self.next += 1;
            self.row(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.keys.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// A read-only tuple as returned through the search interface, borrowed
/// from its [`Page`]. This is what estimators see: the key, the
/// categorical values, and the measures — but **not** the hidden ranking
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleView<'a> {
    key: TupleKey,
    values: &'a [ValueId],
    measures: &'a [f64],
}

impl<'a> TupleView<'a> {
    /// The tuple's stable external key.
    pub fn key(&self) -> TupleKey {
        self.key
    }

    /// Categorical values in schema order.
    pub fn values(&self) -> &'a [ValueId] {
        self.values
    }

    /// Measure values in schema order.
    pub fn measures(&self) -> &'a [f64] {
        self.measures
    }

    /// Value of attribute `attr`.
    pub fn value(&self, attr: AttrId) -> ValueId {
        self.values[attr.index()]
    }

    /// Value of measure `m`.
    pub fn measure(&self, m: MeasureId) -> f64 {
        self.measures[m.index()]
    }

    /// An owned copy, for callers that keep tuples past their page.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.key, self.values.to_vec(), self.measures.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_accessors() {
        let t = Tuple::new(TupleKey(7), vec![ValueId(1), ValueId(0)], vec![19.5]);
        assert_eq!(t.key(), TupleKey(7));
        assert_eq!(t.value(AttrId(0)), ValueId(1));
        assert_eq!(t.value(AttrId(1)), ValueId(0));
        assert_eq!(t.measure(MeasureId(0)), 19.5);
        let (k, v, m) = t.into_parts();
        assert_eq!(k, TupleKey(7));
        assert_eq!(v.len(), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn view_accessors() {
        let page = Page::from_columns(
            vec![TupleKey(3), TupleKey(5)],
            vec![ValueId(2), ValueId(0), ValueId(1), ValueId(4)],
            vec![1.0, 2.0],
            2,
            1,
        );
        let rows: Vec<TupleView<'_>> = page.iter().collect();
        assert_eq!(rows[0].key(), TupleKey(3));
        assert_eq!(rows[0].value(AttrId(0)), ValueId(2));
        assert_eq!(rows[1].values(), &[ValueId(1), ValueId(4)]);
        assert_eq!(rows[1].measure(MeasureId(0)), 2.0);
        assert_eq!(page.iter().len(), 2);
        let owned = rows[1].to_tuple();
        assert_eq!(owned, Tuple::new(TupleKey(5), vec![ValueId(1), ValueId(4)], vec![2.0]));
        assert_eq!(Rows::empty().len(), 0);
    }

    #[test]
    fn pages_without_measures_have_empty_measure_rows() {
        let page = Page::from_columns(vec![TupleKey(1)], vec![ValueId(0)], vec![], 1, 0);
        let row = page.iter().next().unwrap();
        assert!(row.measures().is_empty());
        assert_eq!(row.values(), &[ValueId(0)]);
    }
}
