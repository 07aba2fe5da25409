//! Grouping keys for FD statistics.
//!
//! Daisy pre-computes the size of the erroneous groups of every FD (§6);
//! that statistic lives in `daisy-core`'s `FdIndex`.  What is shared with
//! the offline cleaners is how a tuple's (possibly multi-attribute) lhs
//! becomes one grouping key.

use daisy_common::{Result, Value};

/// Builds the composite grouping key for (possibly multi-attribute) lhs.
pub fn composite_key(tuple: &crate::tuple::Tuple, indices: &[usize]) -> Result<Value> {
    if indices.len() == 1 {
        return tuple.value(indices[0]);
    }
    let mut key = String::new();
    for (i, &idx) in indices.iter().enumerate() {
        if i > 0 {
            key.push('\u{1f}');
        }
        key.push_str(&tuple.value(idx)?.to_string());
    }
    Ok(Value::Str(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use daisy_common::TupleId;

    #[test]
    fn multi_attribute_lhs_uses_composite_key() {
        let row = |id: u64, state: i64, county: i64| {
            Tuple::from_values(
                TupleId::new(id),
                vec![Value::Int(state), Value::Int(county), Value::from("A")],
            )
        };
        // A single attribute is its own key.
        assert_eq!(composite_key(&row(0, 1, 2), &[1]).unwrap(), Value::Int(2));
        // Equal attribute values share a key; any differing one separates
        // it, and the separator keeps (1, 12) apart from (11, 2).
        let key = |t: &Tuple| composite_key(t, &[0, 1]).unwrap();
        assert_eq!(key(&row(0, 1, 1)), key(&row(1, 1, 1)));
        assert_ne!(key(&row(0, 1, 1)), key(&row(1, 1, 2)));
        assert_ne!(key(&row(0, 1, 12)), key(&row(1, 11, 2)));
    }
}
