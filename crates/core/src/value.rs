//! The `V` aspect of a data unit: a time-ordered sequence of values
//! `{(v₁,t₁), (v₂,t₂), …}` (paper §2.1).
//!
//! The model is abstract: it has to know *that* a version exists, when it
//! was written and how large it is — Table 2's denominator, the version
//! count, whether content is still alive — never *what* it says. A system
//! grounded on a store of its own records [`Value::Stored`]: the store
//! holds the bytes (encrypted, erasable, forensically scannable), the
//! model holds the books, and no second plaintext copy exists to leak or
//! to outlive an erasure. The content-carrying variants serve the
//! model-only examples, which have no store.

use datacase_sim::time::Ts;

/// A single value a data unit held at some time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// Raw bytes (the common representation in the storage engines).
    Bytes(Vec<u8>),
    /// UTF-8 text.
    Text(String),
    /// A numeric reading (e.g. Mall sensor values).
    Number(i64),
    /// A value whose content lives in the system's store, not in the
    /// model: only its size is on the books.
    Stored {
        /// Payload length in bytes.
        len: usize,
    },
    /// The value after erasure: nothing recoverable.
    Erased,
}

impl Value {
    /// Approximate payload size in bytes (for space accounting).
    pub fn size(&self) -> usize {
        match self {
            Value::Bytes(b) => b.len(),
            Value::Text(s) => s.len(),
            Value::Number(_) => 8,
            Value::Stored { len } => *len,
            Value::Erased => 0,
        }
    }

    /// View as bytes where the model carries them ([`Value::Stored`]
    /// never does).
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            Value::Text(s) => Some(s.as_bytes()),
            _ => None,
        }
    }

    /// Whether the value was erased ([`Value::Stored`] content is
    /// recoverable — from the store).
    pub fn is_erased(&self) -> bool {
        matches!(self, Value::Erased)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_owned())
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Value {
        Value::Bytes(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n)
    }
}

/// The versioned value sequence of a unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VersionedValue {
    versions: Vec<(Ts, Value)>,
}

impl VersionedValue {
    /// Start with an initial value at `t0`.
    pub fn initial(t0: Ts, v: Value) -> VersionedValue {
        VersionedValue {
            versions: vec![(t0, v)],
        }
    }

    /// Append a new version at `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the latest version's timestamp — versions
    /// form a timeline and out-of-order writes would corrupt `V(t)`.
    pub fn write(&mut self, t: Ts, v: Value) {
        if let Some((last, _)) = self.versions.last() {
            assert!(*last <= t, "out-of-order version write: {last:?} > {t:?}");
        }
        self.versions.push((t, v));
    }

    /// Overwrite the content of every version with [`Value::Erased`].
    /// Timestamps and the version count stay (the record that mutations
    /// happened outlives their content); derived state dies with its
    /// source, so no earlier plaintext survives an erasure in the model.
    pub fn erase_contents(&mut self) {
        for (_, v) in &mut self.versions {
            *v = Value::Erased;
        }
    }

    /// `V(t)`: the value in effect at time `t` (the latest version with
    /// timestamp ≤ `t`).
    pub fn at(&self, t: Ts) -> Option<&Value> {
        self.versions
            .iter()
            .rev()
            .find(|(vt, _)| *vt <= t)
            .map(|(_, v)| v)
    }

    /// The current (latest) value.
    pub fn current(&self) -> Option<&Value> {
        self.versions.last().map(|(_, v)| v)
    }

    /// All versions in time order (for invariant VII record-keeping checks).
    pub fn versions(&self) -> &[(Ts, Value)] {
        &self.versions
    }

    /// Number of versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if the sequence has no versions.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Ts {
        Ts::from_secs(s)
    }

    #[test]
    fn versions_resolve_by_time() {
        let mut v = VersionedValue::initial(t(10), "a".into());
        v.write(t(20), "b".into());
        v.write(t(30), "c".into());
        assert_eq!(v.at(t(5)), None);
        assert_eq!(v.at(t(10)), Some(&Value::Text("a".into())));
        assert_eq!(v.at(t(25)), Some(&Value::Text("b".into())));
        assert_eq!(v.at(t(99)), Some(&Value::Text("c".into())));
        assert_eq!(v.current(), Some(&Value::Text("c".into())));
        assert_eq!(v.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_write_panics() {
        let mut v = VersionedValue::initial(t(10), "a".into());
        v.write(t(5), "b".into());
    }

    #[test]
    fn same_timestamp_write_allowed() {
        let mut v = VersionedValue::initial(t(10), "a".into());
        v.write(t(10), "b".into());
        assert_eq!(v.at(t(10)), Some(&Value::Text("b".into())));
    }

    #[test]
    fn sizes_account_payloads() {
        let mut v = VersionedValue::initial(t(0), Value::Bytes(vec![0; 100]));
        v.write(t(1), Value::Number(5));
        v.write(t(2), Value::Erased);
        let sizes: Vec<usize> = v.versions().iter().map(|(_, x)| x.size()).collect();
        assert_eq!(sizes, [100, 8, 0]);
        assert!(v.current().unwrap().is_erased());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x").size(), 1);
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::from(7i64), Value::Number(7));
        assert_eq!(Value::Number(7).as_bytes(), None);
    }

    #[test]
    fn stored_values_carry_a_size_and_no_content() {
        let mut v = VersionedValue::initial(t(0), Value::Stored { len: 1024 });
        v.write(t(1), Value::Stored { len: 100 });
        assert_eq!(v.current().unwrap().size(), 100);
        assert!(v.versions().iter().all(|(_, x)| x.as_bytes().is_none()));
        assert!(!v.current().unwrap().is_erased());
        v.erase_contents();
        assert!(v.versions().iter().all(|(_, x)| x.is_erased()));
    }
}
