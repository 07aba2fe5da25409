//! The cleaning-aware logical planner (§5.1).
//!
//! The planner inspects a parsed query and the registered constraints and
//! decides, per table, which rules "affect query correctness" (their
//! attributes overlap the query's attributes) and where the corresponding
//! cleaning operator is placed:
//!
//! * cleaning is pushed **below joins and group-bys** (closer to the data)
//!   so that errors are fixed before they propagate (`push_down_cleaning`),
//! * for group-by queries, cleaning always happens before the aggregation,
//! * rules that do not overlap the query are skipped entirely.
//!
//! The plan produced here is descriptive: the engine interprets it, reusing
//! the physical operators of `daisy-query` and the cleaning operators of
//! this crate.

use daisy_common::{DaisyConfig, Result, RuleId};
use daisy_expr::{ConstraintSet, FunctionalDependency};
use daisy_query::{Catalog, Query};

use crate::cost::{planned_detection, DetectionStrategy};
use crate::relaxation::FilterTarget;
use crate::world::SNAPSHOT_MIN_ROWS;

/// Where a cleaning step is placed relative to the query operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleaningPlacement {
    /// Directly above the table's scan/filter, before any join (push-down).
    BeforeJoin,
    /// After the joins, on the joined result (only used when push-down is
    /// disabled for ablation).
    AfterJoin,
}

/// One cleaning step the engine must perform for a query.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningStep {
    /// The base table the step cleans.
    pub table: String,
    /// The rule to enforce.
    pub rule: RuleId,
    /// The FD form of the rule, when it is an FD.
    pub fd: Option<FunctionalDependency>,
    /// Which FD side the query's filter restricts (drives relaxation
    /// iterations); meaningless for general DCs.
    pub filter_target: FilterTarget,
    /// Where the step sits in the plan.
    pub placement: CleaningPlacement,
    /// The detection strategy for general-DC steps, from the rule's shape
    /// ([`planned_detection`]: constraints without an index plan, or
    /// equality-free ones, are pinned to pairwise here; a surviving `Auto`
    /// is resolved against key selectivity when the theta matrix is
    /// built).  FD steps always detect via hash grouping, so the field is
    /// informational for them.
    pub detection: DetectionStrategy,
    /// `true` when the engine will run this step's detection over the
    /// table's columnar snapshot, i.e. the table has at least
    /// [`SNAPSHOT_MIN_ROWS`] rows.  The theta build feeds the snapshot into
    /// the detection cost model: the columnar index build is cheaper,
    /// which can tip a borderline `Auto` towards the indexed kernel.
    pub snapshot: bool,
}

/// The cleaning-aware plan for one query.
#[derive(Debug, Clone, Default)]
pub struct CleaningPlan {
    /// The cleaning steps, in the order the engine should perform them
    /// (driving table first, then joined tables in join order).
    pub steps: Vec<CleaningStep>,
}

impl CleaningPlan {
    /// Builds the plan for a query given the registered constraints.
    pub fn build(
        query: &Query,
        constraints: &ConstraintSet,
        catalog: &Catalog,
        config: &DaisyConfig,
    ) -> Result<CleaningPlan> {
        let query_attrs = query.referenced_attributes();
        let query_attr_refs: Vec<&str> = query_attrs.iter().map(String::as_str).collect();
        let placement = if config.push_down_cleaning {
            CleaningPlacement::BeforeJoin
        } else {
            CleaningPlacement::AfterJoin
        };
        let mut steps = Vec::new();
        for table_name in query.tables() {
            let table = catalog.table(table_name)?;
            for rule in constraints.rules() {
                // The rule must be expressible over this table's schema.
                let applies_to_table = rule.attributes().iter().all(|a| table.schema().contains(a));
                if !applies_to_table {
                    continue;
                }
                // And it must overlap the query's attributes ((X ∪ Y) ∩
                // (P ∪ W) ≠ ∅, §4.1).  Joined tables are considered touched
                // through their join keys, so a rule on a joined table whose
                // attributes include the join key also applies.
                let overlaps_query = query_attr_refs.iter().any(|a| rule.references(a));
                if !overlaps_query {
                    continue;
                }
                let fd = rule.as_fd();
                let filter_target = match &fd {
                    Some(fd) => classify_filter(query, fd),
                    None => FilterTarget::Other,
                };
                steps.push(CleaningStep {
                    table: table_name.to_string(),
                    rule: rule.id,
                    fd,
                    filter_target,
                    placement,
                    detection: planned_detection(rule),
                    snapshot: table.len() >= SNAPSHOT_MIN_ROWS,
                });
            }
        }
        Ok(CleaningPlan { steps })
    }

    /// The steps that clean a specific table.
    pub fn steps_for(&self, table: &str) -> Vec<&CleaningStep> {
        self.steps.iter().filter(|s| s.table == table).collect()
    }

    /// `true` when no rule overlaps the query.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Classifies which side of an FD the query's filter restricts (Lemmas 1–2).
fn classify_filter(query: &Query, fd: &FunctionalDependency) -> FilterTarget {
    let filter_columns = query.filter.columns();
    let mentions = |attr: &str| {
        filter_columns.iter().any(|c| {
            c == attr || c.ends_with(&format!(".{attr}")) || attr.ends_with(&format!(".{c}"))
        })
    };
    if mentions(&fd.rhs) {
        FilterTarget::Rhs
    } else if fd.lhs.iter().any(|l| mentions(l)) {
        FilterTarget::Lhs
    } else {
        FilterTarget::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_common::{DataType, Schema, Value};
    use daisy_expr::DenialConstraint;
    use daisy_query::parse_query;
    use daisy_storage::Table;

    fn setup() -> (Catalog, ConstraintSet) {
        let mut catalog = Catalog::new();
        catalog.add(Table::new(
            "lineorder",
            Schema::from_pairs(&[
                ("orderkey", DataType::Int),
                ("suppkey", DataType::Int),
                ("revenue", DataType::Int),
            ])
            .unwrap(),
        ));
        catalog.add(Table::new(
            "supplier",
            Schema::from_pairs(&[("suppkey", DataType::Int), ("address", DataType::Str)]).unwrap(),
        ));
        let mut constraints = ConstraintSet::new();
        constraints.add_fd(&FunctionalDependency::new(&["orderkey"], "suppkey"), "phi");
        constraints.add_fd(&FunctionalDependency::new(&["address"], "suppkey"), "psi");
        (catalog, constraints)
    }

    #[test]
    fn overlapping_fd_yields_step_with_filter_side() {
        let (catalog, constraints) = setup();
        let config = DaisyConfig::default();
        // Filter on the rhs (suppkey) of phi.
        let q = parse_query("SELECT orderkey FROM lineorder WHERE suppkey = 5").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].table, "lineorder");
        assert_eq!(plan.steps[0].filter_target, FilterTarget::Rhs);
        assert_eq!(plan.steps[0].placement, CleaningPlacement::BeforeJoin);

        // Filter on the lhs (orderkey) of phi.
        let q = parse_query("SELECT suppkey FROM lineorder WHERE orderkey < 100").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        assert_eq!(plan.steps[0].filter_target, FilterTarget::Lhs);
    }

    #[test]
    fn non_overlapping_queries_need_no_cleaning() {
        let (catalog, constraints) = setup();
        let config = DaisyConfig::default();
        let q = parse_query("SELECT revenue FROM lineorder WHERE revenue > 10").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn join_query_cleans_both_tables_with_their_rules() {
        let (catalog, constraints) = setup();
        let config = DaisyConfig::default();
        let q = parse_query(
            "SELECT lineorder.orderkey, supplier.address FROM lineorder \
             JOIN supplier ON lineorder.suppkey = supplier.suppkey \
             WHERE orderkey < 100",
        )
        .unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        assert_eq!(plan.steps_for("lineorder").len(), 1);
        assert_eq!(plan.steps_for("supplier").len(), 1);
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn general_dcs_get_other_filter_target() {
        let (catalog, mut constraints) = setup();
        constraints.add(
            DenialConstraint::parse("dc", "t1.revenue < t2.revenue & t1.suppkey > t2.suppkey")
                .unwrap(),
        );
        let config = DaisyConfig::default().with_cost_model(false);
        let q = parse_query("SELECT * FROM lineorder WHERE revenue > 5").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        let dc_step = plan
            .steps
            .iter()
            .find(|s| s.fd.is_none())
            .expect("general DC step");
        assert_eq!(dc_step.filter_target, FilterTarget::Other);
    }

    #[test]
    fn steps_carry_shape_refined_detection() {
        let (catalog, mut constraints) = setup();
        // Equality-free inequality DC: pinned to pairwise.
        constraints.add(
            DenialConstraint::parse("dc", "t1.revenue < t2.revenue & t1.suppkey > t2.suppkey")
                .unwrap(),
        );
        let config = DaisyConfig::default();
        let q = parse_query("SELECT suppkey FROM lineorder WHERE revenue > 5").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        let dc_step = plan.steps.iter().find(|s| s.fd.is_none()).unwrap();
        assert_eq!(dc_step.detection, DetectionStrategy::Pairwise);
        // FD-shaped rules keep their equality key, so Auto survives for the
        // cost model to resolve against the data.
        let fd_step = plan.steps.iter().find(|s| s.fd.is_some()).unwrap();
        assert_eq!(fd_step.detection, DetectionStrategy::Auto);
    }

    #[test]
    fn steps_record_the_snapshot_decision() {
        let (mut catalog, constraints) = setup();
        let q = parse_query("SELECT suppkey FROM lineorder WHERE orderkey < 100").unwrap();
        let config = DaisyConfig::default();
        let plan_with_rows = |catalog: &mut Catalog, rows: usize| {
            let schema = catalog.table("lineorder").unwrap().schema().clone();
            let rows = (0..rows as i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i)])
                .collect();
            catalog.add(Table::from_rows("lineorder", Schema::clone(&schema), rows).unwrap());
            CleaningPlan::build(&q, &constraints, catalog, &config).unwrap()
        };
        // Tables below the size threshold stay on the row path; from the
        // threshold on, every step reads through the snapshot.
        for (rows, expected) in [
            (0, false),
            (SNAPSHOT_MIN_ROWS - 1, false),
            (SNAPSHOT_MIN_ROWS, true),
        ] {
            let plan = plan_with_rows(&mut catalog, rows);
            assert!(!plan.steps.is_empty());
            assert!(
                plan.steps.iter().all(|s| s.snapshot == expected),
                "{rows} rows"
            );
        }
    }

    #[test]
    fn push_down_can_be_disabled() {
        let (catalog, constraints) = setup();
        let config = DaisyConfig {
            push_down_cleaning: false,
            ..DaisyConfig::default()
        };
        let q = parse_query("SELECT suppkey FROM lineorder WHERE orderkey < 100").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        assert_eq!(plan.steps[0].placement, CleaningPlacement::AfterJoin);
    }
}
