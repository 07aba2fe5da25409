//! The cleaning-aware logical planner (§5.1).
//!
//! The planner inspects a parsed query and the registered constraints and
//! decides, per table, which rules "affect query correctness" (their
//! attributes overlap the query's attributes):
//!
//! * the engine cleans each table's qualifying part **below joins and
//!   group-bys** (closer to the data), so that errors are fixed before they
//!   propagate,
//! * rules that do not overlap the query are skipped entirely, and so are
//!   general DCs without an index plan (rules that do not quantify exactly
//!   two tuples): no detector checks them, the same rules streaming ingest
//!   skips.
//!
//! The plan produced here is descriptive: the engine interprets it, reusing
//! the physical operators of `daisy-query` and the cleaning operators of
//! this crate.

use daisy_common::{DaisyConfig, Result, RuleId};
use daisy_expr::{ConstraintSet, FunctionalDependency};
use daisy_query::{Catalog, Query};

use crate::relaxation::FilterTarget;

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
}

/// The cleaning-aware plan for one query.
#[derive(Debug, Clone, Default)]
pub struct CleaningPlan {
    /// The cleaning steps, in the order the engine should perform them
    /// (driving table first, then joined tables in join order).
    pub steps: Vec<CleaningStep>,
}

impl CleaningPlan {
    /// Builds the plan for a query given the registered constraints.  No
    /// configuration knob changes the plan; the engine passes its
    /// configuration so one can without a signature change.
    pub fn build(
        query: &Query,
        constraints: &ConstraintSet,
        catalog: &Catalog,
        _config: &DaisyConfig,
    ) -> Result<CleaningPlan> {
        let query_attrs = query.referenced_attributes();
        let query_attr_refs: Vec<&str> = query_attrs.iter().map(String::as_str).collect();
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
                if !overlaps_query || rule.index_plan().is_none() {
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
    use daisy_common::{DataType, Schema};
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
    fn rules_without_an_index_plan_get_no_step() {
        let (catalog, mut constraints) = setup();
        constraints.add(DenialConstraint::parse("single", "t1.revenue > 5").unwrap());
        constraints.add(
            DenialConstraint::parse(
                "triple",
                "t1.revenue < t2.revenue & t2.revenue < t3.revenue & t1.suppkey < t3.suppkey",
            )
            .unwrap(),
        );
        let config = DaisyConfig::default();
        let q = parse_query("SELECT suppkey FROM lineorder WHERE revenue > 5").unwrap();
        let plan = CleaningPlan::build(&q, &constraints, &catalog, &config).unwrap();
        // Only the FD over suppkey remains.
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].fd.is_some());
    }
}
