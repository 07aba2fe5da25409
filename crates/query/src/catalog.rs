//! The catalog: named tables the engine can query and update in place.

use std::collections::BTreeMap;
use std::sync::Arc;

use daisy_common::{DaisyError, Result};
use daisy_storage::Table;

/// A collection of named tables.
///
/// Daisy mutates tables in place as queries clean them, so the catalog hands
/// out `&mut Table` as well.  Iteration order is deterministic (sorted by
/// name) to keep experiment output stable.
///
/// Tables are stored behind [`Arc`] so that cloning a catalog is a handful
/// of reference-count bumps: concurrent cleaning sessions snapshot the
/// whole catalog cheaply and only pay a deep table copy on their first
/// write to it (copy-on-write through [`Arc::make_mut`] in
/// [`Catalog::table_mut`]).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table under its own name, replacing any table previously
    /// registered under that name.
    pub fn add(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Registers an already-shared table under its own name without copying
    /// it, replacing any table previously registered under that name.
    pub fn add_shared(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Checks that table `name` is registered.  Queries read tables through
    /// their tuples alone, so a catalog keeps no columnar snapshot to
    /// refresh; the check remains for callers that prepare a catalog
    /// table by table before querying it.
    pub fn refresh_snapshot(&mut self, name: &str) -> Result<()> {
        self.table(name).map(|_| ())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| DaisyError::Plan(format!("unknown table `{name}`")))
    }

    /// Looks up a table's shared handle, for cheap cross-session snapshots.
    pub fn shared(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| DaisyError::Plan(format!("unknown table `{name}`")))
    }

    /// Looks up a table mutably.
    ///
    /// When the table is shared with other catalog clones (concurrent
    /// sessions holding consistent snapshots), this detaches a private copy
    /// first — classic copy-on-write; the other holders keep observing the
    /// unmodified table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| DaisyError::Plan(format!("unknown table `{name}`")))
    }

    /// Removes a table, returning it (copied out if still shared).
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        self.tables
            .remove(name)
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// `true` if a table with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// The registered table names in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates over the tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema};

    fn table(name: &str) -> Table {
        Table::new(name, Schema::from_pairs(&[("x", DataType::Int)]).unwrap())
    }

    #[test]
    fn add_lookup_remove() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        cat.add(table("b"));
        cat.add(table("a"));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.names(), vec!["a", "b"]);
        assert!(cat.table("a").is_ok());
        assert!(cat.table("z").is_err());
        assert!(cat.contains("b"));
        assert!(cat.refresh_snapshot("a").is_ok());
        assert!(cat.refresh_snapshot("z").is_err());
        cat.table_mut("a")
            .unwrap()
            .push_values(vec![daisy_common::Value::Int(1)])
            .unwrap();
        assert_eq!(cat.table("a").unwrap().len(), 1);
        assert!(cat.remove("a").is_some());
        assert!(cat.remove("a").is_none());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn re_adding_replaces() {
        let mut cat = Catalog::new();
        cat.add(table("t"));
        let mut t2 = table("t");
        t2.push_values(vec![daisy_common::Value::Int(5)]).unwrap();
        cat.add(t2);
        assert_eq!(cat.table("t").unwrap().len(), 1);
    }

    #[test]
    fn cloned_catalogs_copy_on_write() {
        let mut base = Catalog::new();
        base.add(table("t"));
        // A clone shares the table storage (no deep copy)…
        let mut session = base.clone();
        let shared_before = base.shared("t").unwrap();
        assert!(Arc::ptr_eq(&shared_before, &session.shared("t").unwrap()));
        // …until the clone writes, which detaches a private copy.
        session
            .table_mut("t")
            .unwrap()
            .push_values(vec![daisy_common::Value::Int(7)])
            .unwrap();
        assert_eq!(session.table("t").unwrap().len(), 1);
        assert_eq!(base.table("t").unwrap().len(), 0);
        assert!(Arc::ptr_eq(&shared_before, &base.shared("t").unwrap()));
        // Re-registering the modified table into the base is an Arc move.
        let committed = session.shared("t").unwrap();
        base.add_shared(Arc::clone(&committed));
        assert!(Arc::ptr_eq(&committed, &base.shared("t").unwrap()));
        assert_eq!(base.table("t").unwrap().len(), 1);
    }
}
