//! The engine's mutable world: tables, constraints and every derived
//! cleaning structure, packaged so that cloning it is cheap.
//!
//! A [`WorldState`] is the complete, self-consistent state a cleaning
//! computation runs against: the catalog of (gradually probabilistic)
//! tables, the registered constraints, the per-table provenance stores, and
//! one `RuleState` per `(table, rule)` — everything the engine derives
//! from the rule and maintains incrementally.
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
//! | rule state (`RuleState`, by value) | every piece below | only the piece written |
//! | · violation index (`Arc<MaintainedIndex>`), shared by θ-checks and ingest | every partition, every 256-row chunk of row contributions, the plan shape | the pointer tables, then only the partitions a delta row leaves or enters and the chunks of the rows it touches |
//! | · FD index (`Arc<FdIndex>`) plus its cost tracker | the index; the tracker is a small value | nothing: the index is immutable once built, the tracker is copied with the world |
//! | · θ-matrix (`Arc<ThetaMatrix>`) | the whole matrix | the matrix, copied by the first check that marks blocks |
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

use std::collections::HashMap;
use std::sync::Arc;

use daisy_common::Result;
use daisy_expr::ConstraintSet;
use daisy_query::Catalog;
use daisy_storage::{Delta, ProvenanceStore};

use crate::cost::CostTracker;
use crate::fd_index::FdIndex;
use crate::index::MaintainedIndex;
use crate::theta::ThetaMatrix;

/// The key of a [`RuleState`]: the table name plus the raw rule id.
pub(crate) type RuleKey = (String, u64);

/// Everything the engine keeps for one `(table, rule)`: built on the rule's
/// first check, ingest or query over the table, then extended by every
/// later one.  Cloned by value with its world; each piece is shared until
/// written (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleState {
    /// The violation index, absorbed delta by delta and rebuilt only when
    /// stale: θ-matrix checks and streaming ingest both detect against it,
    /// and neither builds one of its own.
    pub(crate) index: Option<Arc<MaintainedIndex>>,
    /// The structure the rule's query-time clean step reads and extends.
    pub(crate) query: Option<QueryState>,
    /// `true` once the rule was cleaned over the whole table; later queries
    /// skip its clean step.
    pub(crate) fully_cleaned: bool,
}

/// The query-time state of one rule's clean step.
#[derive(Debug, Clone)]
pub(crate) enum QueryState {
    /// An FD's group index over original values (§6) and the cost tracker
    /// that decides when to switch to full cleaning (§5.2.3), built together.
    Fd {
        index: Arc<FdIndex>,
        tracker: CostTracker,
    },
    /// A general DC's θ-matrix with its checked-block bookkeeping (§4.2).
    Dc { matrix: Arc<ThetaMatrix> },
}

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
    /// Per-table provenance stores (Table 7) — cheap handles that detach
    /// inside a recording call, so no `Arc` around them.
    pub(crate) provenance: HashMap<String, ProvenanceStore>,
    /// The derived state of every `(table, rule)` the engine has cleaned.
    pub(crate) rules: HashMap<RuleKey, RuleState>,
}

impl WorldState {
    /// The violation index of `key`; the engine makes it current before
    /// any detection reads it.
    pub(crate) fn violation_index(&self, key: &RuleKey) -> &MaintainedIndex {
        self.rules[key]
            .index
            .as_deref()
            .expect("the rule's violation index was made current")
    }

    /// Applies `delta` to table `table_name` and absorbs it into every
    /// violation index over that table.  `absorb_delta` refuses the patch —
    /// leaving the index stale for the next rebuild — when the index did
    /// not reflect the pre-delta table.  Engine writes and commit merges
    /// both go through here, so a table and its indexes never diverge.
    pub(crate) fn apply_delta(&mut self, table_name: &str, delta: &Delta) -> Result<usize> {
        let table = self.catalog.table_mut(table_name)?;
        let applied = table.apply_delta(delta)?;
        let indexes = self
            .rules
            .iter_mut()
            .filter(|((name, _), _)| name == table_name)
            .filter_map(|(_, state)| state.index.as_mut());
        for index in indexes {
            Arc::make_mut(index).absorb_delta(table, delta)?;
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DaisyEngine;
    use daisy_common::{DaisyConfig, DataType, Schema, Value};
    use daisy_expr::FunctionalDependency;
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

    #[test]
    fn cloning_a_world_shares_rule_state_until_written() {
        // An FD over (zip, city) and a DC over (salary, tax), both clean, so
        // no query below repairs a cell.
        let schema = Schema::from_pairs(&[
            ("zip", DataType::Int),
            ("city", DataType::Str),
            ("salary", DataType::Int),
            ("tax", DataType::Int),
        ])
        .unwrap();
        let rows = (0..40)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    Value::from(format!("c{}", i % 4)),
                    Value::Int(1000 + 10 * i),
                    Value::Int(i),
                ]
            })
            .collect();
        let mut engine = DaisyEngine::new(DaisyConfig::default().with_worker_threads(1)).unwrap();
        engine.register_table(Table::from_rows("t", schema, rows).unwrap());
        let fd = engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "fd");
        let dc = engine
            .add_constraint_text("dc", "t1.salary < t2.salary & t1.tax > t2.tax")
            .unwrap();
        engine
            .execute_sql("SELECT zip, city FROM t WHERE zip = 1")
            .unwrap();
        engine
            .execute_sql("SELECT salary, tax FROM t WHERE salary < 1100")
            .unwrap();
        let (fd, dc) = (("t".to_string(), fd.raw()), ("t".to_string(), dc.raw()));
        let fd_index = |world: &WorldState| match &world.rules[&fd].query {
            Some(QueryState::Fd { index, .. }) => Arc::clone(index),
            _ => panic!("the FD query built the rule's FD index"),
        };
        let matrix = |world: &WorldState| match &world.rules[&dc].query {
            Some(QueryState::Dc { matrix }) => Arc::clone(matrix),
            _ => panic!("the DC query built the rule's θ-matrix"),
        };
        let index = |world: &WorldState| Arc::clone(world.rules[&dc].index.as_ref().unwrap());

        let world = engine.world().clone();
        let mut session = DaisyEngine::from_world(engine.config().clone(), world.clone()).unwrap();
        assert!(Arc::ptr_eq(&fd_index(&world), &fd_index(session.world())));
        assert!(Arc::ptr_eq(&matrix(&world), &matrix(session.world())));
        assert!(Arc::ptr_eq(&index(&world), &index(session.world())));

        // A θ-check over blocks the first query left unchecked marks them in
        // the session's matrix, which detaches; nothing else does.
        let support = matrix(&world).support();
        let outcome = session
            .execute_sql("SELECT salary, tax FROM t WHERE salary >= 1200")
            .unwrap();
        assert_eq!(outcome.report.errors_repaired, 0);
        assert!(!Arc::ptr_eq(&matrix(&world), &matrix(session.world())));
        assert!(matrix(session.world()).support() > support);
        assert_eq!(matrix(&world).support(), support);
        assert!(Arc::ptr_eq(&index(&world), &index(session.world())));
        assert!(Arc::ptr_eq(&fd_index(&world), &fd_index(session.world())));
        assert!(Arc::ptr_eq(
            &world.catalog.shared("t").unwrap(),
            &session.world().catalog.shared("t").unwrap()
        ));
    }
}
