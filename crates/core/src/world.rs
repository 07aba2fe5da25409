//! The engine's mutable world: tables, constraints and every derived
//! cleaning structure, packaged so that cloning it is cheap.
//!
//! A [`WorldState`] is the complete, self-consistent state a cleaning
//! computation runs against: the catalog of (gradually probabilistic)
//! tables, the registered constraints, and the per-`(table, rule)` derived
//! structures the engine maintains incrementally — FD group indexes, theta
//! matrices with their incremental checked-block bookkeeping, maintained
//! violation indexes, provenance stores and cost trackers.
//!
//! A world is **a set of root pointers over immutable, shared pieces**.
//! `WorldState::clone` copies the maps below and bumps reference counts —
//! `O(#tables + #rules)` regardless of data size — and what makes that a
//! **consistent snapshot** is that a write never changes a shared piece: it
//! detaches the piece it is about to write, and nothing else.  Per component:
//!
//! | component | a clone shares | a write detaches |
//! |---|---|---|
//! | table (`Arc<Table>` in the catalog) | the table | the row *table* — one `(id, cells pointer, lineage)` record per row, no cell — then the cells of each row it updates ([`Cells`](daisy_storage::Cells)), once per row; the id index only for appends |
//! | provenance ([`ProvenanceStore`] handle) | the key map and every entry | the key map (pointers) and the entry recorded — *inside the recording call*; a pass that records nothing leaves the handle pointer-equal |
//! | violation index (`Arc<MaintainedIndex>`), shared by θ-checks and ingest | every partition, every 256-row chunk of row contributions, the plan shape | the pointer tables, then only the partitions a delta row leaves or enters and the chunks of the rows it touches |
//! | FD index, θ-matrix (`Arc`) | the whole structure | FD indexes are immutable once built; a θ-matrix is copied by the first check that marks blocks |
//! | constraints (`Arc<ConstraintSet>`) | the set | the set, when a rule is registered |
//!
//! Two rules keep it that way:
//!
//! 1. **Detach inside the first write, never in order to read.**  Code that
//!    might record or patch takes the handle (`&mut ProvenanceStore`, the
//!    `Arc` of an index) and lets the write itself detach; it
//!    does not call [`Arc::make_mut`] up front "to have a `&mut`".  A
//!    request that changes nothing leaves every piece pointer-equal, which
//!    is what lets the durable commit path skip unchanged stores without a
//!    walk.
//! 2. **Nothing is freed under the commit mutex.**  Superseded versions are
//!    handed out of the critical section and dropped by whoever holds the
//!    last reference (see [`session`](crate::session)).
//!
//! Concurrent sessions each clone the shared world, clean against their
//! copy, and publish the mutated world back through the serialized commit
//! path of [`EngineShared`](crate::session::EngineShared).  What is *not*
//! sub-linear yet: the first write to a table copies one pointer-sized
//! record per row (a chunked row spine is future work).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use daisy_expr::ConstraintSet;
use daisy_query::Catalog;
use daisy_storage::ProvenanceStore;

use crate::cost::CostTracker;
use crate::fd_index::FdIndex;
use crate::index::MaintainedIndex;
use crate::theta::ThetaMatrix;

/// The key under which per-rule derived structures are cached: the table
/// name plus the raw rule id.
pub(crate) type RuleKey = (String, u64);

/// The complete mutable state of a cleaning engine, cheap to clone.
///
/// See the [module docs](self) for the copy-on-write contract.  The fields
/// are crate-private: the engine and the session/commit layer are the only
/// components that may mutate a world, and they do so exclusively through
/// writes that detach the piece written, so sharing is never observable.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    /// Named base tables (`Arc<Table>` inside the catalog).
    pub(crate) catalog: Catalog,
    /// The registered denial constraints and FDs; shared between versions
    /// until one registers a rule.
    pub(crate) constraints: Arc<ConstraintSet>,
    /// FD group indexes per (table, rule), built over original values.
    pub(crate) fd_indexes: HashMap<RuleKey, Arc<FdIndex>>,
    /// Incremental theta matrices per (table, rule); mutated by every
    /// partial check (blocks get marked), hence copy-on-write.
    pub(crate) theta_matrices: HashMap<RuleKey, Arc<ThetaMatrix>>,
    /// Per-table provenance stores (Table 7) — cheap handles that detach
    /// inside a recording call, so no `Arc` around them.
    pub(crate) provenance: HashMap<String, ProvenanceStore>,
    /// Per-(table, rule) cost-model trackers; small, cloned by value.
    pub(crate) trackers: HashMap<RuleKey, CostTracker>,
    /// (table, rule) pairs already cleaned in full.
    pub(crate) fully_cleaned: HashSet<RuleKey>,
    /// The violation index per (table, rule), absorbed delta by delta and
    /// rebuilt only when stale: θ-matrix checks and streaming ingest both
    /// detect against it, and neither builds one of its own.
    pub(crate) violation_indexes: HashMap<RuleKey, Arc<MaintainedIndex>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema, Value};
    use daisy_storage::Table;

    #[test]
    fn cloning_a_world_shares_tables_until_written() {
        let mut world = WorldState::default();
        let table = Table::from_rows(
            "t",
            Schema::from_pairs(&[("x", DataType::Int)]).unwrap(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        world.catalog.add(table);

        let mut session = world.clone();
        assert!(Arc::ptr_eq(
            &world.catalog.shared("t").unwrap(),
            &session.catalog.shared("t").unwrap()
        ));
        session
            .catalog
            .table_mut("t")
            .unwrap()
            .push_values(vec![Value::Int(3)])
            .unwrap();
        // The session's write detached a private copy; the original world
        // still observes the pre-write table.
        assert_eq!(session.catalog.table("t").unwrap().len(), 3);
        assert_eq!(world.catalog.table("t").unwrap().len(), 2);
    }
}
