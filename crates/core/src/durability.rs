//! Bridging the in-memory [`WorldState`] to the durable [`daisy_wal`]
//! layer: serialization into [`PersistedWorld`]s, commit-record
//! construction (with the provenance diff), and restoration of a recovered
//! world on top of a bootstrap engine.
//!
//! Constraints are deliberately **not** persisted: rules are
//! configuration, registered on the bootstrap engine before
//! [`EngineShared::recover`](crate::session::EngineShared::recover) is
//! called.  Recovery therefore combines the bootstrap world's constraints
//! with the log's tables and provenance, and drops every rule's derived
//! state so it is rebuilt lazily — recovered tables restart at revision
//! zero, and a stale cache claiming currency against them would be
//! silently wrong.

use std::collections::HashSet;

use daisy_storage::{Delta, Footprint, ProvenanceStore, Table};
use daisy_wal::{LoggedCommit, PersistedWorld, ProvenanceDiff};

use crate::world::{RuleKey, WorldState};

/// Serializes the full table + provenance state at `version`.
pub(crate) fn persisted_world(version: u64, world: &WorldState) -> PersistedWorld {
    let mut tables: Vec<Table> = world
        .catalog
        .iter()
        .map(|(_, table)| table.clone())
        .collect();
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    let mut provenance: Vec<(String, ProvenanceStore)> = world
        .provenance
        .iter()
        .map(|(name, store)| (name.clone(), store.clone()))
        .collect();
    provenance.sort_by(|a, b| a.0.cmp(&b.0));
    PersistedWorld {
        version,
        tables,
        provenance,
    }
}

/// Builds the log record for a commit that moves `old` to `new`.
///
/// The provenance diff leans on the copy-on-write worlds
/// ([`ProvenanceDiff::between`]): a table whose store is pointer-equal in
/// both worlds (nothing was recorded — a store detaches only inside a
/// recording call) yields an empty diff without a walk, and within a store
/// that did change only the entries that are not pointer-equal are
/// compared and copied.  Every commit path only ever adds or replaces
/// provenance entries (relative to the world it installs over), so the
/// diff plus the staged deltas reproduce the post-commit world exactly.
pub(crate) fn logged_commit(
    version: u64,
    old: &WorldState,
    new: &WorldState,
    staged: &[(String, Delta)],
    touched: &HashSet<RuleKey>,
    write: &Footprint,
) -> LoggedCommit {
    let empty = ProvenanceStore::new();
    let mut provenance: Vec<(String, ProvenanceDiff)> = Vec::new();
    let mut names: Vec<&String> = new.provenance.keys().collect();
    names.sort();
    for name in names {
        let old_store = old.provenance.get(name).unwrap_or(&empty);
        let diff = ProvenanceDiff::between(old_store, &new.provenance[name]);
        if !diff.is_empty() {
            provenance.push((name.clone(), diff));
        }
    }
    let mut touched_rules: Vec<(String, u64)> = touched.iter().cloned().collect();
    touched_rules.sort();
    LoggedCommit {
        version,
        staged: staged.to_vec(),
        write: write.clone(),
        touched_rules,
        provenance,
    }
}

/// Rebuilds a live world from a recovered checkpoint+replay state, on top
/// of the bootstrap world's constraints.
pub(crate) fn restore_world(bootstrap: &WorldState, persisted: &PersistedWorld) -> WorldState {
    let mut world = bootstrap.clone();
    for table in &persisted.tables {
        world.catalog.remove(table.name());
        world.catalog.add(table.clone());
    }
    world.provenance = persisted
        .provenance
        .iter()
        .map(|(name, store)| (name.clone(), store.clone()))
        .collect();
    // Recovered tables restart at revision zero; every derived structure is
    // keyed to revisions and must be rebuilt lazily rather than trusted.
    world.rules.clear();
    world
}

/// A read-only reconstruction of the world as of one historical commit,
/// returned by
/// [`EngineShared::world_at`](crate::session::EngineShared::world_at).
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    inner: PersistedWorld,
}

impl WorldSnapshot {
    pub(crate) fn new(inner: PersistedWorld) -> WorldSnapshot {
        WorldSnapshot { inner }
    }

    /// The commit version this snapshot reconstructs.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// The table as of this version, if it existed.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.inner.tables.iter().find(|t| t.name() == name)
    }

    /// All table names as of this version, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.inner.tables.iter().map(|t| t.name()).collect()
    }

    /// The provenance store of a table as of this version, if any cell had
    /// been cleaned by then.
    pub fn provenance(&self, table: &str) -> Option<&ProvenanceStore> {
        self.inner
            .provenance
            .iter()
            .find(|(name, _)| name == table)
            .map(|(_, store)| store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{ColumnId, DataType, Schema, TupleId, Value};

    #[test]
    fn a_checkpoint_image_shares_rows_and_provenance_with_the_live_world() {
        let mut world = WorldState::default();
        let table = Table::from_rows(
            "t",
            Schema::from_pairs(&[("x", DataType::Int)]).unwrap(),
            (0..8).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        world.catalog.add(table);
        let store = world.provenance.entry("t".to_string()).or_default();
        store.record_original(TupleId::new(3), ColumnId::new(0), Value::Int(3));

        // Built under the commit mutex when a checkpoint is due: it must
        // copy pointers, not rows or entries.
        let image = persisted_world(7, &world);
        assert_eq!(image.version, 7);
        let live = world.catalog.table("t").unwrap();
        assert_eq!(image.tables[0].tuples(), live.tuples());
        assert!(image.tables[0]
            .tuples()
            .iter()
            .zip(live.tuples())
            .all(|(copy, row)| copy.cells.shares_storage_with(&row.cells)));
        assert!(image.provenance[0]
            .1
            .shares_storage_with(&world.provenance["t"]));
    }
}
