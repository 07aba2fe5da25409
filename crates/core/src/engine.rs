//! The Daisy engine: query-driven, incremental cleaning of denial-constraint
//! violations (§6).
//!
//! A [`DaisyEngine`] owns a catalog of (initially dirty) tables and a set of
//! denial constraints.  Every query is executed through a cleaning-aware
//! plan: the relevant cleaning operators (`cleanσ` for FDs and general DCs,
//! `clean⋈` for joins) are woven below the query operators, the detected
//! errors are replaced by probabilistic candidate fixes, and the isolated
//! delta is applied back to the base tables — so the dataset becomes
//! gradually probabilistic while queries keep returning correct (relaxed)
//! answers.
//!
//! The engine also implements the two adaptive decisions of the paper:
//!
//! * the **cost model** of §5.2.3 — after each query it compares the
//!   projected cost of continuing incrementally against cleaning the
//!   remaining dirty part of the dataset at once, and switches strategy when
//!   the latter is cheaper (Fig. 7 / Fig. 12),
//! * the **accuracy threshold** of Algorithm 2 — for general DCs it
//!   estimates the result accuracy of a partial (query-driven) check and
//!   falls back to the full cartesian check when the estimate is too low
//!   (Fig. 10).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use daisy_common::{ColumnId, DaisyConfig, DaisyError, Result, RuleId, Schema, TupleId, Value};
use daisy_exec::ExecContext;
use daisy_expr::{BoolExpr, DenialConstraint, FunctionalDependency};
use daisy_query::physical::{aggregate, filter_tuples, hash_join, project, PredicateMode};
use daisy_query::{parse_query, Query, QueryResult, SelectItem};
use daisy_storage::{ColumnSnapshot, Delta, Footprint, ProvenanceStore, Table, Tuple};

use crate::accuracy::{estimate_accuracy, CleaningDecision};
use crate::clean_dc::{repair_dc_violations, DcCleanOutcome};
use crate::clean_select::clean_select_fd;
use crate::cost::{CostParameters, CostTracker};
use crate::fd_index::FdIndex;
use crate::index::MaintainedIndex;
use crate::planner::CleaningPlan;
use crate::relaxation::FilterTarget;
use crate::report::{CleaningReport, CleaningStrategy, SessionReport};
use crate::session::EngineShared;
use crate::theta::ThetaMatrix;
use crate::world::{RuleKey, WorldState};

/// The outcome of one query: its (cleaned) result plus the cleaning report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query result over the cleaned, relaxed data.
    pub result: QueryResult,
    /// What the cleaning work cost and produced.
    pub report: CleaningReport,
}

/// The query-driven cleaning engine.
///
/// An engine owns a [`WorldState`] — tables plus every derived cleaning
/// structure — and executes queries against it with cleaning woven into the
/// plan.  All repairs flow through one write path
/// (`apply_delta_patching`) that advances [`Table::revision`] and patches
/// the maintained violation indexes via `absorb_delta`.  To serve many
/// concurrent requests over the same tables, convert the engine with
/// [`DaisyEngine::into_shared`] and open cheap copy-on-write
/// [`CleaningSession`](crate::session::CleaningSession) handles.
#[derive(Debug)]
pub struct DaisyEngine {
    config: DaisyConfig,
    ctx: ExecContext,
    world: WorldState,
    session: SessionReport,
    /// When `true` (sessions), every delta applied through
    /// [`apply_delta_patching`] is also appended to `delta_log` — the
    /// copy-on-write overlay a
    /// [`CleaningSession`](crate::session::CleaningSession) stages for its
    /// commit — and execution records which cells it consulted (`reads`)
    /// and which `(table, rule)` cleaning states it advanced
    /// (`touched_rules`), the inputs of footprint-based commit validation.
    record_deltas: bool,
    delta_log: Vec<(String, Delta)>,
    reads: Footprint,
    touched_rules: HashSet<RuleKey>,
}

impl DaisyEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: DaisyConfig) -> Result<Self> {
        DaisyEngine::from_world(config, WorldState::default())
    }

    /// Creates an engine over an existing world (the session layer clones a
    /// shared world and wraps it in a private engine).
    pub(crate) fn from_world(config: DaisyConfig, world: WorldState) -> Result<Self> {
        config.validate()?;
        let ctx =
            ExecContext::new(config.worker_threads).with_data_partitions(config.data_partitions);
        Ok(DaisyEngine {
            config,
            ctx,
            world,
            session: SessionReport::default(),
            record_deltas: false,
            delta_log: Vec::new(),
            reads: Footprint::new(),
            touched_rules: HashSet::new(),
        })
    }

    /// Creates an engine with the default configuration.
    pub fn with_defaults() -> Self {
        DaisyEngine::new(DaisyConfig::default()).expect("default config is valid")
    }

    /// Converts this engine into a shared, versioned core that concurrent
    /// [`CleaningSession`](crate::session::CleaningSession)s clean against.
    ///
    /// Register tables and constraints first; the shared core is immutable
    /// except through the serialized session-commit path.
    pub fn into_shared(self) -> Arc<EngineShared> {
        EngineShared::from_engine(self)
    }

    /// The engine's world (session/commit layer access).
    pub(crate) fn world(&self) -> &WorldState {
        &self.world
    }

    /// Replaces the engine's world and resets per-session accumulations
    /// (report and staged deltas) — used when a session rebases onto a newer
    /// shared world.  Returns the world it replaces: the commit path calls
    /// this under the shared mutex and must not free a world there.
    #[must_use = "drop the superseded world outside the commit mutex"]
    pub(crate) fn reset_world(&mut self, world: WorldState) -> WorldState {
        self.session = SessionReport::default();
        self.delta_log.clear();
        self.clear_footprints();
        std::mem::replace(&mut self.world, world)
    }

    /// Installs a merged world after a footprint-validated commit *without*
    /// clearing the already-drained staged log or the session report (the
    /// caller resets those explicitly once the receipt is built).  Returns
    /// the world it replaces, like [`reset_world`](DaisyEngine::reset_world).
    #[must_use = "drop the superseded world outside the commit mutex"]
    pub(crate) fn install_world(&mut self, world: WorldState) -> WorldState {
        std::mem::replace(&mut self.world, world)
    }

    /// Turns on staged-delta, read-footprint and touched-rule recording
    /// (sessions stage their repairs as copy-on-write overlays, publish
    /// them at commit and validate them by footprint).
    pub(crate) fn set_record_deltas(&mut self, record: bool) {
        self.record_deltas = record;
    }

    /// The cells consulted since the footprints were last cleared.
    pub(crate) fn reads(&self) -> &Footprint {
        &self.reads
    }

    /// The `(table, rule)` cleaning states advanced since the footprints
    /// were last cleared.
    pub(crate) fn touched_rules(&self) -> &HashSet<RuleKey> {
        &self.touched_rules
    }

    /// Drains the touched-rule set.
    pub(crate) fn take_touched_rules(&mut self) -> HashSet<RuleKey> {
        std::mem::take(&mut self.touched_rules)
    }

    /// Snapshot of the footprint state, paired with
    /// [`restore_footprints`](DaisyEngine::restore_footprints) to make a
    /// failed query transactional for the read set too.
    pub(crate) fn footprint_checkpoint(&self) -> (Footprint, HashSet<RuleKey>) {
        (self.reads.clone(), self.touched_rules.clone())
    }

    /// Restores a footprint checkpoint taken before a failed query.
    pub(crate) fn restore_footprints(&mut self, reads: Footprint, touched: HashSet<RuleKey>) {
        self.reads = reads;
        self.touched_rules = touched;
    }

    /// Clears the recorded footprints (after a commit publishes them).
    pub(crate) fn clear_footprints(&mut self) {
        self.reads = Footprint::new();
        self.touched_rules.clear();
    }

    /// Rolls the engine back to a pre-query checkpoint: restores the world
    /// and truncates the staged-delta log.  Used by sessions to make each
    /// query transactional — a failed execution must not leak partially
    /// applied repairs into a later commit.
    pub(crate) fn rollback_to(&mut self, world: WorldState, staged_len: usize) {
        self.world = world;
        self.delta_log.truncate(staged_len);
    }

    /// Clears the accumulated per-session report (after a session publishes
    /// a commit, its report starts fresh).
    pub(crate) fn clear_session_report(&mut self) {
        self.session = SessionReport::default();
    }

    /// The staged deltas recorded since the last [`reset_world`] /
    /// [`take_delta_log`], in application order.
    ///
    /// [`reset_world`]: DaisyEngine::reset_world
    /// [`take_delta_log`]: DaisyEngine::take_delta_log
    pub(crate) fn delta_log(&self) -> &[(String, Delta)] {
        &self.delta_log
    }

    /// Drains the staged-delta log.
    pub(crate) fn take_delta_log(&mut self) -> Vec<(String, Delta)> {
        std::mem::take(&mut self.delta_log)
    }

    /// Registers a (dirty) table.
    pub fn register_table(&mut self, table: Table) {
        self.world
            .provenance
            .entry(table.name().to_string())
            .or_default();
        self.world.catalog.add(table);
    }

    /// Registers a denial constraint, returning its rule id.
    pub fn add_constraint(&mut self, dc: DenialConstraint) -> RuleId {
        Arc::make_mut(&mut self.world.constraints).add(dc)
    }

    /// Registers a constraint given its compact textual form.
    pub fn add_constraint_text(&mut self, name: &str, text: &str) -> Result<RuleId> {
        Ok(Arc::make_mut(&mut self.world.constraints).add(DenialConstraint::parse(name, text)?))
    }

    /// Registers a functional dependency.
    pub fn add_fd(&mut self, fd: &FunctionalDependency, name: &str) -> RuleId {
        Arc::make_mut(&mut self.world.constraints).add_fd(fd, name)
    }

    /// Access to a registered table (possibly already partially cleaned).
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.world.catalog.table(name)
    }

    /// The registered constraints.
    pub fn constraints(&self) -> &daisy_expr::ConstraintSet {
        &self.world.constraints
    }

    /// The per-table provenance store.
    pub fn provenance(&self, table: &str) -> Option<&ProvenanceStore> {
        self.world.provenance.get(table)
    }

    /// The session report accumulated so far.
    pub fn session(&self) -> &SessionReport {
        &self.session
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DaisyConfig {
        &self.config
    }

    /// A columnar snapshot of a table: always `None`.  The engine keeps no
    /// second copy of a table — its detection kernels read the tuples, with
    /// predicates resolved once per pass — and the method remains only for
    /// callers that still probe for one.
    pub fn snapshot(&self, _table: &str) -> Option<&ColumnSnapshot> {
        None
    }

    /// Parses and executes a SQL query.
    pub fn execute_sql(&mut self, sql: &str) -> Result<QueryOutcome> {
        let query = parse_query(sql)?;
        self.execute(&query)
    }

    /// Executes a parsed query with cleaning woven into the plan.
    pub fn execute(&mut self, query: &Query) -> Result<QueryOutcome> {
        let start = Instant::now();
        let plan = CleaningPlan::build(
            query,
            &self.world.constraints,
            &self.world.catalog,
            &self.config,
        )?;

        let mut report = CleaningReport::not_needed(query.to_string(), 0, start.elapsed());
        report.strategy = if plan.is_empty() {
            CleaningStrategy::NotNeeded
        } else {
            CleaningStrategy::Incremental
        };

        // ---- driving table: filter + clean ---------------------------------
        let driving = query.from.clone();
        let driving_schema = Arc::new(
            self.world
                .catalog
                .table(&driving)?
                .schema()
                .qualify(&driving),
        );
        let driving_filter = filter_for_table(query, &driving, query.joins.is_empty());
        // Footprint of the scan itself: without joins the query consults the
        // filter columns across every row (plus the answer rows, recorded
        // below); joins consult whole relations (key columns drive
        // qualification, and joined output carries every column).
        if self.record_deltas {
            if query.joins.is_empty() {
                self.record_filter_columns(&driving, &driving_schema, &driving_filter);
            } else {
                self.reads.record_table(&driving);
                for join in &query.joins {
                    self.reads.record_table(&join.table);
                }
            }
        }
        let mut current = self.clean_table_subset(
            &driving,
            &driving_schema,
            &driving_filter,
            &plan,
            &mut report,
        )?;
        let mut current_schema = driving_schema;
        if self.record_deltas && query.joins.is_empty() {
            self.reads
                .record_rows(&driving, current.iter().map(|t| t.id));
        }

        // ---- joins: clean each joined table's qualifying part, then join ---
        for join in &query.joins {
            let right_name = join.table.clone();
            let right_schema = Arc::new(
                self.world
                    .catalog
                    .table(&right_name)?
                    .schema()
                    .qualify(&right_name),
            );
            // The qualifying part of the joined table is determined by the
            // current (already cleaned) left side: only right tuples whose
            // join key could match a left key participate.  We clean that
            // part, which updates the base table, and then join against the
            // whole (partially cleaned) table.
            let left_keys: HashSet<Value> = current
                .iter()
                .flat_map(|t| {
                    current_schema
                        .index_of(&join.left_key)
                        .ok()
                        .map(|idx| {
                            t.cell(idx)
                                .map(|c| {
                                    c.possible_values().into_iter().cloned().collect::<Vec<_>>()
                                })
                                .unwrap_or_default()
                        })
                        .unwrap_or_default()
                })
                .collect();
            let right_key_idx = right_schema.index_of(&join.right_key)?;
            let qualifying: Vec<Tuple> = self
                .world
                .catalog
                .table(&right_name)?
                .tuples()
                .iter()
                .filter(|t| {
                    t.cell(right_key_idx)
                        .map(|c| c.possible_values().iter().any(|v| left_keys.contains(v)))
                        .unwrap_or(false)
                })
                .cloned()
                .collect();
            self.clean_answer_for_table(
                &right_name,
                &right_schema,
                qualifying,
                &plan,
                &mut report,
            )?;

            let joined = hash_join(
                &self.ctx,
                &current_schema,
                &current,
                &right_schema,
                self.world.catalog.table(&right_name)?.tuples(),
                &join.left_key,
                &join.right_key,
            )?;
            current_schema = joined.schema;
            current = joined.tuples;
        }

        // ---- late filter (references joined tables) -------------------------
        if !query.joins.is_empty() {
            let late = filter_for_table(query, &driving, true);
            if late != BoolExpr::True && late != driving_filter {
                current = filter_tuples(
                    &self.ctx,
                    &current_schema,
                    &current,
                    &query.filter,
                    PredicateMode::Possible,
                )?;
            }
        }

        // ---- aggregation / projection ---------------------------------------
        let result = if query.is_aggregate() {
            let mut group_by = query.group_by.clone();
            let mut aggregates = Vec::new();
            for item in &query.select {
                match item {
                    SelectItem::Aggregate { func, column } => aggregates.push(
                        daisy_query::physical::AggregateSpec::new(*func, column.as_deref()),
                    ),
                    SelectItem::Column(c) => {
                        if !group_by.contains(c) {
                            group_by.push(c.clone());
                        }
                    }
                    SelectItem::Wildcard => {
                        return Err(DaisyError::Plan(
                            "SELECT * cannot be combined with GROUP BY".into(),
                        ))
                    }
                }
            }
            if aggregates.is_empty() {
                aggregates.push(daisy_query::physical::AggregateSpec::new(
                    daisy_query::AggregateFunc::Count,
                    None,
                ));
            }
            let (schema, tuples) =
                aggregate(&self.ctx, &current_schema, &current, &group_by, &aggregates)?;
            QueryResult::new(schema, tuples)
        } else {
            let columns: Vec<String> = query
                .select
                .iter()
                .filter_map(|item| match item {
                    SelectItem::Column(c) => Some(c.clone()),
                    _ => None,
                })
                .collect();
            let wildcard = query
                .select
                .iter()
                .any(|i| matches!(i, SelectItem::Wildcard));
            if wildcard || columns.is_empty() {
                QueryResult::new(current_schema, current)
            } else {
                let (schema, tuples) = project(&current_schema, &current, &columns)?;
                QueryResult::new(schema, tuples)
            }
        };

        report.result_tuples = result.len();
        report.elapsed = start.elapsed();
        self.session.queries.push(report.clone());
        Ok(QueryOutcome { result, report })
    }

    /// Filters the table and cleans the resulting answer under every
    /// cleaning step that targets it; returns the cleaned tuples that
    /// (possibly) satisfy the filter.
    fn clean_table_subset(
        &mut self,
        table_name: &str,
        schema: &Arc<Schema>,
        filter: &BoolExpr,
        plan: &CleaningPlan,
        report: &mut CleaningReport,
    ) -> Result<Vec<Tuple>> {
        let answer = filter_tuples(
            &self.ctx,
            schema,
            self.world.catalog.table(table_name)?.tuples(),
            filter,
            PredicateMode::Possible,
        )?;
        let cleaned = self.clean_answer_for_table(table_name, schema, answer, plan, report)?;
        // Keep only the tuples that (possibly) satisfy the filter: relaxation
        // extras whose candidates fall in the query range stay, the rest were
        // cleaned in the base table but do not belong to this result.
        filter_tuples(&self.ctx, schema, &cleaned, filter, PredicateMode::Possible)
    }

    /// Cleans an already-computed answer of one table under every applicable
    /// step of the plan, applies the deltas to the base table and returns
    /// the cleaned answer plus relaxation extras.
    fn clean_answer_for_table(
        &mut self,
        table_name: &str,
        schema: &Arc<Schema>,
        answer: Vec<Tuple>,
        plan: &CleaningPlan,
        report: &mut CleaningReport,
    ) -> Result<Vec<Tuple>> {
        let steps: Vec<crate::planner::CleaningStep> =
            plan.steps_for(table_name).into_iter().cloned().collect();
        if steps.is_empty() {
            return Ok(answer);
        }
        let mut working = answer;
        for step in steps {
            let key = (table_name.to_string(), step.rule.raw());
            if self.world.fully_cleaned.contains(&key) {
                continue;
            }
            match &step.fd {
                Some(fd) => {
                    working = self.clean_fd_step(
                        table_name,
                        fd,
                        step.rule,
                        step.filter_target,
                        working,
                        report,
                    )?;
                }
                None => {
                    let rule = self
                        .world
                        .constraints
                        .rule(step.rule)
                        .cloned()
                        .ok_or_else(|| DaisyError::Plan("unknown rule in plan".into()))?;
                    working = self.clean_dc_step(table_name, schema, &rule, working, report)?;
                }
            }
        }
        Ok(working)
    }

    /// Runs `cleanσ` for one FD over one table's answer.
    fn clean_fd_step(
        &mut self,
        table_name: &str,
        fd: &FunctionalDependency,
        rule: RuleId,
        filter_target: FilterTarget,
        answer: Vec<Tuple>,
        report: &mut CleaningReport,
    ) -> Result<Vec<Tuple>> {
        let key = (table_name.to_string(), rule.raw());
        if self.record_deltas {
            self.touched_rules.insert(key.clone());
            self.record_rule_columns(table_name, &fd.attributes());
        }
        // Build (or reuse) the FD group index: the pre-computed statistics.
        // The index is computed over original values (via provenance) so a
        // rule added after other rules already repaired cells still sees the
        // dirty groups of the original data (§4.3).
        if !self.world.fd_indexes.contains_key(&key) {
            let provenance = self
                .world
                .provenance
                .entry(table_name.to_string())
                .or_default();
            let table = self.world.catalog.table(table_name)?;
            let index = FdIndex::build_with_provenance(table, fd, provenance)?;
            let params = CostParameters {
                n: table.len(),
                epsilon: index.dirty_tuple_count(),
                p: index.mean_candidates().max(index.mean_lhs_fanout()),
                is_fd: true,
            };
            self.world
                .trackers
                .insert(key.clone(), CostTracker::new(params));
            self.world.fd_indexes.insert(key.clone(), Arc::new(index));
        }
        let index = Arc::clone(self.world.fd_indexes.get(&key).expect("just inserted"));
        let outcome = {
            // The store is a shared handle that detaches inside a recording
            // call: a pass that repairs nothing leaves it pointer-equal.
            let provenance = self
                .world
                .provenance
                .entry(table_name.to_string())
                .or_default();
            let table = self.world.catalog.table(table_name)?;
            clean_select_fd(
                &self.ctx,
                rule,
                &index,
                &answer,
                table.tuples(),
                filter_target,
                self.config.max_relaxation_iterations,
                provenance,
            )?
        };
        // Apply the delta back to the base table (in-place update).
        let cells_updated = outcome.delta.len();
        let candidates_written = outcome.delta.total_candidates();
        if !outcome.delta.is_empty() {
            self.apply_delta_patching(table_name, &outcome.delta)?;
        }
        report.extra_tuples += outcome.cleaned.len() - outcome.answer_len;
        report.relaxation_iterations += outcome.relaxation.iterations;
        report.errors_repaired += outcome.errors_detected;
        report.cells_updated += cells_updated;

        // Cost model: record and possibly switch to full cleaning.
        if let Some(tracker) = self.world.trackers.get_mut(&key) {
            tracker.record_query(
                outcome.answer_len,
                outcome.cleaned.len() - outcome.answer_len,
                outcome.relaxation.scanned,
                outcome.errors_detected,
                candidates_written,
                0,
            );
            if self.config.use_cost_model && tracker.should_switch_to_full() {
                report.strategy = CleaningStrategy::FullRemaining;
                self.clean_remaining_fd(table_name, fd, rule)?;
                self.world.fully_cleaned.insert(key.clone());
            }
        }
        if self.record_deltas {
            self.reads
                .record_rows(table_name, outcome.cleaned.iter().map(|t| t.id));
        }
        Ok(outcome.cleaned)
    }

    /// Runs `cleanσ` for one general DC over one table's answer.
    fn clean_dc_step(
        &mut self,
        table_name: &str,
        schema: &Arc<Schema>,
        rule: &DenialConstraint,
        answer: Vec<Tuple>,
        report: &mut CleaningReport,
    ) -> Result<Vec<Tuple>> {
        let key = (table_name.to_string(), rule.id.raw());
        if self.record_deltas {
            self.touched_rules.insert(key.clone());
            self.record_rule_columns(table_name, &rule.attributes());
            self.reads
                .record_rows(table_name, answer.iter().map(|t| t.id));
        }
        if !self.world.theta_matrices.contains_key(&key) {
            let table = self.world.catalog.table(table_name)?;
            let matrix = ThetaMatrix::build(
                schema,
                table.tuples(),
                rule,
                self.config.theta_blocks_per_side(),
            )?;
            let params = CostParameters {
                n: table.len(),
                epsilon: 0,
                p: 2.0,
                is_fd: false,
            };
            self.world
                .trackers
                .insert(key.clone(), CostTracker::new(params));
            self.world
                .theta_matrices
                .insert(key.clone(), Arc::new(matrix));
        }
        self.ensure_violation_index(table_name, schema, rule)?;

        // The value range the answer spans on the partition attribute drives
        // both the incremental matrix check and Algorithm 2's estimate.
        let partition_column = self
            .world
            .theta_matrices
            .get(&key)
            .expect("just inserted")
            .partition_column;
        let mut low: Option<Value> = None;
        let mut high: Option<Value> = None;
        for tuple in &answer {
            let v = tuple.value(partition_column)?;
            if v.is_null() {
                continue;
            }
            low = Some(match low.take() {
                Some(l) => Value::min_of(l, v.clone()),
                None => v.clone(),
            });
            high = Some(match high.take() {
                Some(h) => Value::max_of(h, v),
                None => v,
            });
        }

        // The matrix is detached copy-on-write: a session touching this rule
        // for the first time pays one matrix copy, after which the checked
        // block bookkeeping is private to its world.
        let matrix = Arc::make_mut(
            self.world
                .theta_matrices
                .get_mut(&key)
                .expect("just inserted"),
        );
        let estimate = estimate_accuracy(
            matrix,
            answer.len(),
            low.as_ref(),
            high.as_ref(),
            self.config.accuracy_threshold,
        );
        report.estimated_accuracy = estimate.accuracy.min(report.estimated_accuracy);

        // The check sweeps the world's violation index of the rule, which
        // every write keeps current; it builds nothing.
        let index = &self.world.violation_indexes[&key];
        let table = self.world.catalog.table(table_name)?;
        let (violations, stats) = if estimate.decision == CleaningDecision::Full {
            report.strategy = CleaningStrategy::FullRemaining;
            matrix.sweep_all(&self.ctx, index, table.tuples())?
        } else {
            matrix.sweep_range(
                &self.ctx,
                index,
                table.tuples(),
                low.as_ref(),
                high.as_ref(),
            )?
        };

        // A check that found nothing (most requests after the first) skips
        // the id index and the repair; the table's provenance entry is
        // created either way, so worlds dump identically.
        let provenance = self
            .world
            .provenance
            .entry(table_name.to_string())
            .or_default();
        let outcome = if violations.is_empty() {
            DcCleanOutcome::default()
        } else {
            // Resolve the violations' tuples through the parallel id index
            // of the violation-index subsystem before computing candidate
            // ranges.
            let by_id: HashMap<TupleId, &Tuple> = crate::index::id_index(&self.ctx, table.tuples());
            repair_dc_violations(&self.ctx, schema, rule, &violations, &by_id, provenance)?
        };

        let cells_updated = outcome.delta.len();
        let candidates_written = outcome.delta.total_candidates();
        if !outcome.delta.is_empty() {
            self.apply_delta_patching(table_name, &outcome.delta)?;
        }
        report.errors_repaired += outcome.errors_detected;
        report.cells_updated += cells_updated;
        if let Some(tracker) = self.world.trackers.get_mut(&key) {
            tracker.record_query(
                answer.len(),
                0,
                0,
                outcome.errors_detected,
                candidates_written,
                stats.pairs_compared,
            );
        }

        // Return the answer with the fresh candidate cells (re-read the
        // updated tuples from the base table so later operators see them).
        let table = self.world.catalog.table(table_name)?;
        Ok(answer
            .iter()
            .map(|t| table.tuple(t.id).cloned().unwrap_or_else(|| t.clone()))
            .collect())
    }

    /// Cleans the remaining dirty part of a table under one FD in a single
    /// pass (the "switch to full cleaning" action of §5.2.3).
    pub fn clean_remaining_fd(
        &mut self,
        table_name: &str,
        fd: &FunctionalDependency,
        rule: RuleId,
    ) -> Result<usize> {
        let key = (table_name.to_string(), rule.raw());
        if self.record_deltas {
            self.touched_rules.insert(key.clone());
            self.reads.record_table(table_name);
        }
        if !self.world.fd_indexes.contains_key(&key) {
            let provenance = self
                .world
                .provenance
                .entry(table_name.to_string())
                .or_default();
            let table = self.world.catalog.table(table_name)?;
            self.world.fd_indexes.insert(
                key.clone(),
                Arc::new(FdIndex::build_with_provenance(table, fd, provenance)?),
            );
        }
        let index = Arc::clone(self.world.fd_indexes.get(&key).expect("present"));
        let outcome = {
            let provenance = self
                .world
                .provenance
                .entry(table_name.to_string())
                .or_default();
            let table = self.world.catalog.table(table_name)?;
            clean_select_fd(
                &self.ctx,
                rule,
                &index,
                table.tuples(),
                table.tuples(),
                FilterTarget::Other,
                self.config.max_relaxation_iterations,
                provenance,
            )?
        };
        let repaired = outcome.errors_detected;
        if !outcome.delta.is_empty() {
            self.apply_delta_patching(table_name, &outcome.delta)?;
        }
        self.world.fully_cleaned.insert(key);
        Ok(repaired)
    }

    /// Adds a new rule after some cleaning has already happened and cleans
    /// the whole table for that rule only, merging the new candidate fixes
    /// with the existing probabilistic data through the provenance store
    /// (the single-execution scenario of Table 7).
    ///
    /// A rule without an index plan (one that does not quantify exactly two
    /// tuples) has no detector; it is rejected with [`DaisyError::Plan`]
    /// before it is registered.
    pub fn add_rule_incrementally(
        &mut self,
        table_name: &str,
        dc: DenialConstraint,
    ) -> Result<usize> {
        if dc.index_plan().is_none() {
            return Err(DaisyError::Plan(format!(
                "constraint `{}` quantifies {} tuples; incremental cleaning checks two-tuple rules only",
                dc.name, dc.tuple_count
            )));
        }
        let rule = Arc::make_mut(&mut self.world.constraints).add(dc);
        let constraint = self
            .world
            .constraints
            .rule(rule)
            .cloned()
            .expect("just added");
        match constraint.as_fd() {
            Some(fd) => self.clean_remaining_fd(table_name, &fd, rule),
            None => {
                if self.record_deltas {
                    self.touched_rules
                        .insert((table_name.to_string(), rule.raw()));
                    self.reads.record_table(table_name);
                }
                let schema = Arc::new(
                    self.world
                        .catalog
                        .table(table_name)?
                        .schema()
                        .qualify(table_name),
                );
                // Full detection over the rule's violation index, which
                // later checks and ingests keep using.  Detection and repair
                // read the table through its shared handle, released before
                // the write path detaches it.
                let key = self.ensure_violation_index(table_name, &schema, &constraint)?;
                let table = self.world.catalog.shared(table_name)?;
                let (violations, _) =
                    self.world.violation_indexes[&key].detect(&self.ctx, table.tuples())?;
                let by_id: HashMap<TupleId, &Tuple> =
                    crate::index::id_index(&self.ctx, table.tuples());
                let provenance = self
                    .world
                    .provenance
                    .entry(table_name.to_string())
                    .or_default();
                let outcome = repair_dc_violations(
                    &self.ctx,
                    &schema,
                    &constraint,
                    &violations,
                    &by_id,
                    provenance,
                )?;
                drop(by_id);
                drop(table);
                let repaired = outcome.errors_detected;
                if !outcome.delta.is_empty() {
                    self.apply_delta_patching(table_name, &outcome.delta)?;
                }
                self.world
                    .fully_cleaned
                    .insert((table_name.to_string(), rule.raw()));
                Ok(repaired)
            }
        }
    }

    /// Streaming ingest: appends `rows` to `table_name` as one staged
    /// [`Delta`] and runs **delta-restricted** detect → relax → repair for
    /// every registered two-tuple rule over the table — only the
    /// `Δ × (T ∪ Δ)` candidate pairs are enumerated, against the world's
    /// persistent [`MaintainedIndex`]es instead of a per-batch rebuild.
    ///
    /// The repairs flow through the same `apply_delta_patching` write path
    /// as query-driven cleaning, so staged-delta recording and
    /// footprint-based commit validation compose unchanged.  Rules that do
    /// not quantify exactly two tuples have no index plan and are skipped —
    /// exactly the rules the query-driven detector also cannot check.
    pub fn ingest_rows(&mut self, table_name: &str, rows: Vec<Vec<Value>>) -> Result<QueryOutcome> {
        let start = Instant::now();
        let row_count = rows.len();
        let query_text = format!("INGEST INTO {table_name} ({row_count} rows)");
        let schema = Arc::clone(self.world.catalog.table(table_name)?.schema());
        let mut report = CleaningReport::not_needed(query_text, 0, start.elapsed());
        if row_count == 0 {
            self.session.queries.push(report.clone());
            return Ok(QueryOutcome {
                result: QueryResult::new(schema, Vec::new()),
                report,
            });
        }

        // The batch lands as one append delta with sequential fresh ids —
        // the same id contract `Table::apply_delta` enforces, so a commit
        // replay (which re-runs this ingest against a newer world) simply
        // mints fresh ids there.
        let mut delta = Delta::new();
        {
            let table = self.world.catalog.table(table_name)?;
            let base = table.next_tuple_id().raw();
            for (k, row) in rows.into_iter().enumerate() {
                delta.push_append(TupleId::new(base + k as u64), row);
            }
        }
        self.apply_delta_patching(table_name, &delta)?;
        if self.record_deltas {
            self.reads
                .record_rows(table_name, delta.appends().iter().map(|a| a.id));
        }

        // Δ starts as the appended tail and grows with every repair a rule
        // stages: a cell repaired under one rule can violate the next.
        let mut delta_positions: std::collections::BTreeSet<usize> = {
            let table = self.world.catalog.table(table_name)?;
            (table.len() - row_count..table.len()).collect()
        };

        let rules: Vec<DenialConstraint> = self
            .world
            .constraints
            .rules()
            .iter()
            .filter(|r| r.index_plan().is_some())
            .filter(|r| r.attributes().iter().all(|a| schema.index_of(a).is_ok()))
            .cloned()
            .collect();
        report.strategy = if rules.is_empty() {
            CleaningStrategy::NotNeeded
        } else {
            CleaningStrategy::Incremental
        };
        for rule in &rules {
            self.ingest_clean_rule(table_name, &schema, rule, &mut delta_positions, &mut report)?;
        }

        report.elapsed = start.elapsed();
        self.session.queries.push(report.clone());
        Ok(QueryOutcome {
            result: QueryResult::new(schema, Vec::new()),
            report,
        })
    }

    /// One rule of an ingest batch: delta-restricted detection against the
    /// maintained index, then the holistic repair of
    /// `clean_dc` applied through the standard write path.
    fn ingest_clean_rule(
        &mut self,
        table_name: &str,
        schema: &Arc<Schema>,
        rule: &DenialConstraint,
        delta_positions: &mut std::collections::BTreeSet<usize>,
        report: &mut CleaningReport,
    ) -> Result<()> {
        let key = (table_name.to_string(), rule.id.raw());
        if self.record_deltas {
            self.touched_rules.insert(key.clone());
            self.record_rule_columns(table_name, &rule.attributes());
        }
        let positions: Vec<usize> = delta_positions.iter().copied().collect();
        // Detection, the id index and the repair read the table through its
        // shared handle; it is released before `apply_delta_patching`, so
        // the write path finds the table as (un)shared as it was.
        let key = self.ensure_violation_index(table_name, schema, rule)?;
        let table = self.world.catalog.shared(table_name)?;
        let (violations, _pairs) = self.world.violation_indexes[&key].detect_delta(
            &self.ctx,
            schema,
            table.tuples(),
            &positions,
        )?;
        if violations.is_empty() {
            return Ok(());
        }
        let by_id: HashMap<TupleId, &Tuple> = crate::index::id_index(&self.ctx, table.tuples());
        let provenance = self
            .world
            .provenance
            .entry(table_name.to_string())
            .or_default();
        let outcome =
            repair_dc_violations(&self.ctx, schema, rule, &violations, &by_id, provenance)?;
        drop(by_id);
        drop(table);
        let cells_updated = outcome.delta.len();
        if !outcome.delta.is_empty() {
            self.apply_delta_patching(table_name, &outcome.delta)?;
            let table = self.world.catalog.table(table_name)?;
            for update in outcome.delta.updates() {
                if let Some(pos) = table.position_of(update.tuple) {
                    delta_positions.insert(pos);
                }
            }
        }
        report.errors_repaired += outcome.errors_detected;
        report.cells_updated += cells_updated;
        Ok(())
    }

    /// Makes the world's violation index of `(table, rule)` current — built
    /// on the rule's first check or ingest, or when an out-of-band write
    /// left it stale; otherwise as the write path left it — and returns its
    /// key.  θ-checks and ingest both detect against this one index.
    fn ensure_violation_index(
        &mut self,
        table_name: &str,
        schema: &Schema,
        rule: &DenialConstraint,
    ) -> Result<RuleKey> {
        let key = (table_name.to_string(), rule.id.raw());
        let table = self.world.catalog.table(table_name)?;
        let current = self
            .world
            .violation_indexes
            .get(&key)
            .is_some_and(|index| index.is_current(table));
        if !current {
            let plan = rule
                .index_plan()
                .expect("only rules with an index plan reach detection");
            let built = MaintainedIndex::build(schema, rule, &plan, table)?;
            self.world
                .violation_indexes
                .insert(key.clone(), Arc::new(built));
        }
        Ok(key)
    }

    /// Applies a delta to a base table and keeps its maintained violation
    /// indexes in sync, patched cell-by-cell (`O(|delta|)`).
    /// `absorb_delta` itself refuses the patch — leaving the index stale
    /// for the next rebuild to replace — when it did not reflect the
    /// pre-delta table.  This is the single write path through which
    /// engine repairs reach registered tables; the table and its indexes
    /// detach copy-on-write from any concurrent sharer first, so other
    /// sessions keep observing their consistent pre-delta world.
    ///
    /// When staged-delta recording is on (sessions), the delta is also
    /// appended to the session's overlay log for publication at commit.
    pub(crate) fn apply_delta_patching(
        &mut self,
        table_name: &str,
        delta: &Delta,
    ) -> Result<usize> {
        let table = self.world.catalog.table_mut(table_name)?;
        let applied = table.apply_delta(delta)?;
        for (key, index) in self.world.violation_indexes.iter_mut() {
            if key.0 == table_name {
                Arc::make_mut(index).absorb_delta(table, delta)?;
            }
        }
        if self.record_deltas {
            self.delta_log.push((table_name.to_string(), delta.clone()));
        }
        Ok(applied)
    }

    /// Records `filter columns × all rows` reads; any column that does not
    /// resolve against the schema degrades the footprint to the whole table
    /// (conservative, never unsound).  A filter that references no column
    /// (an unfiltered scan) reads the whole relation — its answer depends
    /// on the table's *extent*, so a commit that appends rows must
    /// invalidate it.
    fn record_filter_columns(&mut self, table: &str, schema: &Schema, filter: &BoolExpr) {
        let columns = filter.columns();
        if columns.is_empty() {
            self.reads.record_table(table);
            return;
        }
        for column in columns {
            match schema.index_of(&column) {
                Ok(idx) => self
                    .reads
                    .record_columns(table, [ColumnId::new(idx as u64)]),
                Err(_) => {
                    self.reads.record_table(table);
                    return;
                }
            }
        }
    }

    /// Records a rule's attribute columns (across all rows) as read;
    /// unresolved attributes degrade to a whole-table read.
    fn record_rule_columns(&mut self, table: &str, attributes: &[String]) {
        let Ok(schema) = self.world.catalog.table(table).map(|t| t.schema().clone()) else {
            self.reads.record_table(table);
            return;
        };
        for attr in attributes {
            match schema.index_of(attr) {
                Ok(idx) => self
                    .reads
                    .record_columns(table, [ColumnId::new(idx as u64)]),
                Err(_) => {
                    self.reads.record_table(table);
                    return;
                }
            }
        }
    }
}

/// The part of the WHERE clause relevant before joining: for the driving
/// table we apply the whole filter when the query has no joins or when the
/// filter does not reference joined tables; otherwise the filter is applied
/// after the joins and the driving table is scanned unfiltered.
fn filter_for_table(query: &Query, _table: &str, allow_whole_filter: bool) -> BoolExpr {
    let references_joined = query.joins.iter().any(|j| {
        query
            .filter
            .columns()
            .iter()
            .any(|c| c.starts_with(&format!("{}.", j.table)))
    });
    if references_joined && !allow_whole_filter {
        BoolExpr::True
    } else {
        query.filter.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{canonicalize_violations, BUILDS};
    use daisy_common::DataType;
    use daisy_expr::Violation;

    fn cities_table() -> Table {
        Table::from_rows(
            "cities",
            Schema::from_pairs(&[("zip", DataType::Int), ("city", DataType::Str)]).unwrap(),
            vec![
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(9001), Value::from("San Francisco")],
                vec![Value::Int(9001), Value::from("Los Angeles")],
                vec![Value::Int(10001), Value::from("San Francisco")],
                vec![Value::Int(10001), Value::from("New York")],
            ],
        )
        .unwrap()
    }

    fn engine_with_cities() -> DaisyEngine {
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(cities_table());
        engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
        engine
    }

    #[test]
    fn example_1_query_returns_relaxed_probabilistic_result() {
        let mut engine = engine_with_cities();
        let outcome = engine
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        // The dirty answer had 2 tuples; after cleaning, the (9001, SF)
        // tuple is a candidate Los Angeles tuple and is included.
        assert_eq!(outcome.result.len(), 3);
        assert!(outcome.report.errors_repaired > 0);
        assert_eq!(outcome.report.strategy, CleaningStrategy::Incremental);
        // The base table was updated in place (gradually probabilistic).
        assert!(engine.table("cities").unwrap().probabilistic_tuple_count() >= 3);
        // The untouched 10001 cluster stays deterministic.
        assert!(!engine
            .table("cities")
            .unwrap()
            .tuple(TupleId::new(4))
            .unwrap()
            .is_probabilistic());
    }

    #[test]
    fn queries_not_overlapping_rules_skip_cleaning() {
        let mut engine = engine_with_cities();
        let outcome = engine
            .execute_sql("SELECT city FROM cities WHERE zip = 123456")
            .unwrap();
        assert_eq!(outcome.result.len(), 0);
        // Cleaning still ran for the (empty) answer under the overlapping
        // rule, but repaired nothing new.
        assert_eq!(outcome.report.errors_repaired, 0);
    }

    #[test]
    fn group_by_query_cleans_before_aggregation() {
        let mut engine = engine_with_cities();
        let outcome = engine
            .execute_sql("SELECT city, COUNT(*) FROM cities WHERE zip = 9001 GROUP BY city")
            .unwrap();
        // After cleaning, grouping happens over expected values; the result
        // has at most one row per distinct expected city.
        assert!(!outcome.result.is_empty());
        assert!(outcome.report.errors_repaired > 0);
    }

    #[test]
    fn repeated_queries_converge_to_stable_results() {
        let mut engine = engine_with_cities();
        let first = engine
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        let second = engine
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        assert_eq!(first.result.len(), second.result.len());
        assert_eq!(engine.session().queries.len(), 2);
    }

    #[test]
    fn incremental_rule_addition_merges_candidates() {
        let mut engine = engine_with_cities();
        engine
            .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            .unwrap();
        let repaired = engine
            .add_rule_incrementally(
                "cities",
                DenialConstraint::parse("phi2", "t1.city = t2.city & t1.zip != t2.zip").unwrap(),
            )
            .unwrap();
        assert!(repaired > 0);
        // The provenance store now holds evidence from both rules for some cell.
        let prov = engine.provenance("cities").unwrap();
        assert!(!prov.is_empty());
    }

    #[test]
    fn unrelated_padding_rows_leave_every_output_unchanged() {
        // The same workload over the five cities rows alone and padded with
        // rows that share no zip and no city with them.  The padding can
        // neither violate a rule nor match a filter, so every output over
        // the original rows must be the same.
        let padded = {
            let mut rows: Vec<Vec<Value>> = cities_table()
                .tuples()
                .iter()
                .map(|t| (0..2).map(|c| t.value(c).unwrap()).collect())
                .collect();
            rows.extend(
                (0..256i64).map(|i| vec![Value::Int(20_000 + i), Value::from(format!("town {i}"))]),
            );
            Table::from_rows("cities", cities_table().schema().as_ref().clone(), rows).unwrap()
        };
        let run = |table: Table| {
            let mut engine = DaisyEngine::new(
                DaisyConfig::default()
                    .with_worker_threads(2)
                    .with_cost_model(false),
            )
            .unwrap();
            engine.register_table(table);
            engine.add_fd(&FunctionalDependency::new(&["zip"], "city"), "phi");
            let first = engine
                .execute_sql("SELECT zip FROM cities WHERE city = 'Los Angeles'")
                .unwrap();
            let second = engine
                .execute_sql("SELECT city FROM cities WHERE zip = 9001")
                .unwrap();
            let repaired = engine
                .add_rule_incrementally(
                    "cities",
                    DenialConstraint::parse("phi2", "t1.city = t2.city & t1.zip != t2.zip")
                        .unwrap(),
                )
                .unwrap();
            let original = engine.table("cities").unwrap().tuples()[..5].to_vec();
            (
                first.result.tuples,
                second.result.tuples,
                repaired,
                original,
                engine.provenance("cities").unwrap().dump(),
            )
        };
        let small = run(cities_table());
        let large = run(padded);
        assert!(small.2 > 0);
        assert_eq!(small, large);
    }

    #[test]
    fn rules_without_an_index_plan_leave_queries_uncleaned() {
        // A one-tuple and a three-tuple rule over the queried columns: no
        // detector checks them, so the query answers over the dirty data
        // and repairs nothing.
        let mut engine = DaisyEngine::new(DaisyConfig::default().with_worker_threads(2)).unwrap();
        let table = Table::from_rows(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("y", DataType::Int)]).unwrap(),
            (0..6)
                .map(|i| vec![Value::Int(i), Value::Int(9 - i)])
                .collect(),
        )
        .unwrap();
        engine.register_table(table.clone());
        engine.add_constraint_text("one", "t1.y > 5").unwrap();
        engine
            .add_constraint_text("three", "t1.k < t2.k & t2.k < t3.k & t1.y < t3.y")
            .unwrap();
        let outcome = engine
            .execute_sql("SELECT k, y FROM t WHERE k >= 0")
            .unwrap();
        assert_eq!(outcome.report.errors_repaired, 0);
        assert_eq!(outcome.report.strategy, CleaningStrategy::NotNeeded);
        assert_eq!(outcome.result.tuples, table.tuples());
        assert_eq!(engine.table("t").unwrap().tuples(), table.tuples());

        // Registering such a rule for incremental cleaning is refused up
        // front, before it joins the constraint set.
        let rules = engine.constraints().len();
        let err = engine
            .add_rule_incrementally("t", DenialConstraint::parse("again", "t1.y > 7").unwrap())
            .unwrap_err();
        assert!(matches!(err, DaisyError::Plan(_)), "{err}");
        assert_eq!(engine.constraints().len(), rules);
    }

    /// Ingests `rows` into `cities` and checks the engine against the
    /// brute-force reference: append the batch, compare every pair of rows
    /// that touches it, and repair what violates.  Also checks that the
    /// maintained index tracked the append and the repairs through the
    /// write path.  Returns the errors the ingest repaired.
    fn ingest_matches_the_kernel(engine: &mut DaisyEngine, rows: Vec<Vec<Value>>) -> usize {
        let rule = engine.constraints().rules()[0].clone();
        let plan = rule.index_plan().unwrap();
        let ctx = ExecContext::new(2);
        let mut expected = engine.table("cities").unwrap().clone();
        let mut provenance = engine.provenance("cities").cloned().unwrap_or_default();
        let mut append = Delta::new();
        let base = expected.next_tuple_id().raw();
        for (k, row) in rows.iter().enumerate() {
            append.push_append(TupleId::new(base + k as u64), row.clone());
        }
        expected.apply_delta(&append).unwrap();
        let schema = Arc::clone(expected.schema());
        let tuples = expected.tuples();
        let batch = tuples.len() - rows.len();
        let mut found = Vec::new();
        for (i, a) in tuples.iter().enumerate() {
            for (j, b) in tuples.iter().enumerate() {
                if i != j
                    && (i >= batch || j >= batch)
                    && rule.violated_by(&schema, &[a, b]).unwrap()
                {
                    found.push(Violation::pair(rule.id, a.id, b.id));
                }
            }
        }
        let violations = canonicalize_violations(found);
        let by_id = crate::index::id_index(&ctx, expected.tuples());
        let repair =
            repair_dc_violations(&ctx, &schema, &rule, &violations, &by_id, &mut provenance)
                .unwrap();
        drop(by_id);
        expected.apply_delta(&repair.delta).unwrap();

        let outcome = engine.ingest_rows("cities", rows).unwrap();
        assert_eq!(outcome.report.errors_repaired, repair.errors_detected);
        let table = engine.table("cities").unwrap();
        assert_eq!(table.tuples(), expected.tuples());
        assert_eq!(
            engine.provenance("cities").unwrap().dump(),
            provenance.dump()
        );
        let key = ("cities".to_string(), rule.id.raw());
        let maintained = engine.world.violation_indexes.get(&key).expect("cached");
        assert!(maintained.is_current(table));
        let fresh = MaintainedIndex::build(&schema, &rule, &plan, table).unwrap();
        assert_eq!(maintained.partition_count(), fresh.partition_count());
        let all: Vec<usize> = (0..table.len()).collect();
        assert_eq!(
            maintained
                .detect_delta(&ctx, &schema, table.tuples(), &all)
                .unwrap(),
            fresh
                .detect_delta(&ctx, &schema, table.tuples(), &all)
                .unwrap()
        );
        outcome.report.errors_repaired
    }

    #[test]
    fn ingest_rows_cleans_incrementally_and_matches_rebuild_mode() {
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(cities_table());
        engine
            .add_constraint_text("phi", "t1.zip = t2.zip & t1.city != t2.city")
            .unwrap();
        // The new 10001 row conflicts with the existing cluster; the 777
        // rows conflict with each other only once the second batch lands.
        let batches = [
            vec![
                vec![Value::Int(10001), Value::from("Boston")],
                vec![Value::Int(777), Value::from("Quincy")],
            ],
            vec![vec![Value::Int(777), Value::from("Milton")]],
        ];
        for rows in batches {
            assert!(ingest_matches_the_kernel(&mut engine, rows) > 0);
        }
        assert_eq!(engine.table("cities").unwrap().len(), 8);
    }

    #[test]
    fn ingest_batch_larger_than_the_table_matches_the_kernel() {
        // A table on a single key with a live index (built by a first,
        // one-row ingest), then a batch larger than the table:
        // the maintained index absorbs it and detection must still match
        // the kernel's rebuild-and-sweep reference.
        let on_key = |count: usize, city: &str| -> Vec<Vec<Value>> {
            (0..count)
                .map(|_| vec![Value::Int(1), Value::from(city)])
                .collect()
        };
        let mut engine = DaisyEngine::new(
            DaisyConfig::default()
                .with_worker_threads(2)
                .with_cost_model(false),
        )
        .unwrap();
        engine.register_table(
            Table::from_rows(
                "cities",
                cities_table().schema().as_ref().clone(),
                on_key(256, "Springfield"),
            )
            .unwrap(),
        );
        engine
            .add_constraint_text("phi", "t1.zip = t2.zip & t1.city != t2.city")
            .unwrap();
        assert_eq!(
            ingest_matches_the_kernel(&mut engine, on_key(1, "Springfield")),
            0
        );

        let batch = 256 + 8;
        let mut rows = on_key(batch - 3, "Springfield");
        rows.extend(on_key(3, "Shelbyville"));
        assert!(ingest_matches_the_kernel(&mut engine, rows) > 0);
    }

    #[test]
    fn a_theta_check_after_an_ingest_sweeps_the_maintained_index() {
        // A DC query builds the rule's violation index and an ingest
        // appends rows past the θ-matrix's blocks; the second query's check
        // sweeps that same index, skips the appended positions, and ends
        // where the serial session replay of `CleaningService::run_serial`
        // ends.  The table is clean below salary 1300 and inverted above.
        let queries = [
            "SELECT salary, tax FROM emp WHERE salary < 1100",
            "SELECT salary, tax FROM emp WHERE salary >= 1000",
        ];
        let rows: Vec<Vec<Value>> = (0..6)
            .map(|i| vec![Value::Int(1005 + i * 50), Value::Int(39 - i)])
            .collect();
        let engine = || {
            let config = DaisyConfig::default().with_worker_threads(2);
            let mut engine = DaisyEngine::new(config.with_cost_model(false)).unwrap();
            let schema = Schema::from_pairs(&[("salary", DataType::Int), ("tax", DataType::Int)]);
            let data = (0..40)
                .map(|i| {
                    vec![
                        Value::Int(1000 + i * 10),
                        Value::Int(if i < 30 { i } else { 69 - i }),
                    ]
                })
                .collect();
            engine.register_table(Table::from_rows("emp", schema.unwrap(), data).unwrap());
            engine
                .add_constraint_text("phi", "t1.salary < t2.salary & t1.tax > t2.tax")
                .unwrap();
            engine
        };

        let mut live = engine();
        let key = ("emp".to_string(), live.constraints().rules()[0].id.raw());
        live.execute_sql(queries[0]).unwrap();
        assert!(live.world.violation_indexes.contains_key(&key));
        live.ingest_rows("emp", rows.clone()).unwrap();
        let extent: usize = live.world.theta_matrices[&key]
            .blocks
            .iter()
            .map(|b| b.members.len())
            .sum();
        assert!(live.table("emp").unwrap().len() > extent);
        let index = Arc::as_ptr(&live.world.violation_indexes[&key]);
        let builds = BUILDS.with(|b| b.get());
        assert!(live.execute_sql(queries[1]).unwrap().report.errors_repaired > 0);
        assert_eq!(
            BUILDS.with(|b| b.get()),
            builds,
            "the θ-check built an index"
        );
        let after = &live.world.violation_indexes[&key];
        assert!(Arc::as_ptr(after) == index, "the index was replaced");
        assert!(after.is_current(live.table("emp").unwrap()));

        let shared = engine().into_shared();
        for step in 0..3 {
            let mut session = shared.session();
            match step {
                1 => session.ingest_rows("emp", rows.clone()).map(|_| ()),
                _ => session.execute_sql(queries[step / 2]).map(|_| ()),
            }
            .unwrap();
            session.commit().unwrap();
        }
        let serial = shared.table("emp").unwrap();
        assert_eq!(serial.tuples(), live.table("emp").unwrap().tuples());
    }

    #[test]
    fn ingest_into_unknown_table_errors_and_empty_batch_is_a_noop() {
        let mut engine = engine_with_cities();
        assert!(engine
            .ingest_rows("nope", vec![vec![Value::Int(1)]])
            .is_err());
        let outcome = engine.ingest_rows("cities", Vec::new()).unwrap();
        assert_eq!(outcome.report.errors_repaired, 0);
        assert_eq!(engine.table("cities").unwrap().len(), 5);
    }

    #[test]
    fn sql_errors_are_reported() {
        let mut engine = engine_with_cities();
        assert!(engine.execute_sql("SELECT FROM").is_err());
        assert!(engine.execute_sql("SELECT * FROM unknown_table").is_err());
    }
}
