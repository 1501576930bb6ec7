//! Relation schema: categorical attributes with finite domains, plus
//! non-searchable numeric measures.
//!
//! ## Domains hold at most 256 values
//!
//! The store keeps each value code in one byte, so a domain holds at
//! most [`MAX_DOMAIN_SIZE`] values, and [`Schema::new`] refuses a larger
//! one as it refuses more attributes than the `u16` id space holds. The
//! paper's form interfaces sit far below the limit (Yahoo! Autos: 2–38
//! values per attribute), and a domain near it is already costly
//! elsewhere: the bitmap index keeps one 512-byte row per value in every
//! 4 096-slot segment, 128 KB per segment for one 256-value attribute.

use crate::errors::SchemaError;
use crate::value::{AttrId, MeasureId, ValueId};

/// The most values an attribute's domain may hold: every value code
/// `0..MAX_DOMAIN_SIZE` fits the store's one byte per value.
pub const MAX_DOMAIN_SIZE: u32 = 1 << u8::BITS;

/// Definition of one categorical attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    name: String,
    domain_size: u32,
}

impl AttributeDef {
    /// Creates an attribute definition. Domain values are the integers
    /// `0..domain_size`, wrapped as [`ValueId`]s.
    pub fn new(name: impl Into<String>, domain_size: u32) -> Self {
        Self { name: name.into(), domain_size }
    }

    /// Attribute name (for display only; estimators work with ids).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `|U_i|`: the number of values in this attribute's domain.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }
}

/// Definition of one measure (numeric, non-searchable) column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureDef {
    name: String,
}

impl MeasureDef {
    /// Creates a measure definition.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }

    /// Measure name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Immutable schema shared by a database and every query/tree built over it.
///
/// The paper assumes categorical attributes ("numerical attributes can be
/// discretized accordingly", §2.1); measures exist so SUM/AVG aggregates
/// have something numeric to aggregate, exactly like `Price` on Amazon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<AttributeDef>,
    measures: Vec<MeasureDef>,
}

impl Schema {
    /// Builds a schema, validating that every attribute has a non-empty
    /// domain of at most [`MAX_DOMAIN_SIZE`] values and that the
    /// attribute count fits the id space.
    pub fn new(
        attributes: Vec<AttributeDef>,
        measures: Vec<MeasureDef>,
    ) -> Result<Self, SchemaError> {
        if attributes.is_empty() {
            return Err(SchemaError::NoAttributes);
        }
        if attributes.len() > u16::MAX as usize {
            return Err(SchemaError::TooManyAttributes(attributes.len()));
        }
        if measures.len() > u16::MAX as usize {
            return Err(SchemaError::TooManyMeasures(measures.len()));
        }
        for (i, attr) in attributes.iter().enumerate() {
            let attr_id = AttrId(i as u16);
            if attr.domain_size == 0 {
                return Err(SchemaError::EmptyDomain { attr: attr_id });
            }
            if attr.domain_size > MAX_DOMAIN_SIZE {
                return Err(SchemaError::DomainTooLarge { attr: attr_id, size: attr.domain_size });
            }
        }
        Ok(Self { attributes, measures })
    }

    /// Convenience constructor: `m` attributes named `A0..`, with the given
    /// domain sizes, and measures named per `measure_names`.
    pub fn with_domain_sizes(
        domain_sizes: &[u32],
        measure_names: &[&str],
    ) -> Result<Self, SchemaError> {
        let attributes = domain_sizes
            .iter()
            .enumerate()
            .map(|(i, &d)| AttributeDef::new(format!("A{i}"), d))
            .collect();
        let measures = measure_names.iter().map(|n| MeasureDef::new(*n)).collect();
        Self::new(attributes, measures)
    }

    /// `m`: the number of categorical attributes.
    pub fn attr_count(&self) -> usize {
        self.attributes.len()
    }

    /// Number of measure columns.
    pub fn measure_count(&self) -> usize {
        self.measures.len()
    }

    /// Definition of attribute `attr`. Panics if out of range.
    pub fn attribute(&self, attr: AttrId) -> &AttributeDef {
        &self.attributes[attr.index()]
    }

    /// `|U_i|` for attribute `attr`. Panics if out of range.
    pub fn domain_size(&self, attr: AttrId) -> u32 {
        self.attributes[attr.index()].domain_size
    }

    /// Definition of measure `m`. Panics if out of range.
    pub fn measure(&self, m: MeasureId) -> &MeasureDef {
        &self.measures[m.index()]
    }

    /// Iterator over all attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attributes.len()).map(|i| AttrId(i as u16))
    }

    /// Whether `value` is a legal value for `attr`.
    pub fn value_in_domain(&self, attr: AttrId, value: ValueId) -> bool {
        attr.index() < self.attributes.len() && value.0 < self.domain_size(attr)
    }

    /// `log2(∏ |U_i|)`: the log of the number of leaves of the full query
    /// tree. The product itself routinely exceeds `u128`, so callers work in
    /// log space.
    pub fn log2_leaf_count(&self) -> f64 {
        self.attributes.iter().map(|a| f64::from(a.domain_size).log2()).sum()
    }

    /// Largest attribute domain, `max_i |U_i|` (used by Theorem 3.2 bounds).
    pub fn max_domain_size(&self) -> u32 {
        self.attributes.iter().map(|a| a.domain_size).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_schema() {
        let s = Schema::with_domain_sizes(&[2, 3, 4], &["price"]).unwrap();
        assert_eq!(s.attr_count(), 3);
        assert_eq!(s.measure_count(), 1);
        assert_eq!(s.domain_size(AttrId(1)), 3);
        assert_eq!(s.attribute(AttrId(0)).name(), "A0");
        assert_eq!(s.measure(MeasureId(0)).name(), "price");
    }

    #[test]
    fn rejects_empty_attribute_list() {
        assert!(matches!(Schema::with_domain_sizes(&[], &[]), Err(SchemaError::NoAttributes)));
    }

    #[test]
    fn rejects_empty_domain() {
        assert!(matches!(
            Schema::with_domain_sizes(&[2, 0], &[]),
            Err(SchemaError::EmptyDomain { attr: AttrId(1) })
        ));
    }

    /// A domain of 256 values builds; one more value is refused, and the
    /// error names the attribute.
    #[test]
    fn domains_fit_one_byte_codes() {
        let s = Schema::with_domain_sizes(&[256, 3], &[]).unwrap();
        assert_eq!(s.max_domain_size(), MAX_DOMAIN_SIZE);
        let err = Schema::with_domain_sizes(&[257, 3], &[]).unwrap_err();
        assert_eq!(err, SchemaError::DomainTooLarge { attr: AttrId(0), size: 257 });
        assert!(err.to_string().contains("A0"), "{err}");
    }

    #[test]
    fn value_domain_checks() {
        let s = Schema::with_domain_sizes(&[2, 3], &[]).unwrap();
        assert!(s.value_in_domain(AttrId(0), ValueId(1)));
        assert!(!s.value_in_domain(AttrId(0), ValueId(2)));
        assert!(s.value_in_domain(AttrId(1), ValueId(2)));
        assert!(!s.value_in_domain(AttrId(2), ValueId(0)));
    }

    #[test]
    fn leaf_count_log_is_sum_of_logs() {
        let s = Schema::with_domain_sizes(&[2, 4, 8], &[]).unwrap();
        let expected = 1.0 + 2.0 + 3.0;
        assert!((s.log2_leaf_count() - expected).abs() < 1e-12);
    }

    #[test]
    fn max_domain() {
        let s = Schema::with_domain_sizes(&[2, 9, 4], &[]).unwrap();
        assert_eq!(s.max_domain_size(), 9);
    }
}
