//! The cost model of §5.2: traditional (offline) cleaning cost, incremental
//! cleaning cost, and the decision between them.
//!
//! The engine keeps a [`CostTracker`] per (table, rule).  After each query
//! it records the observed quantities (result size, extra tuples, errors,
//! candidate counts) and evaluates Inequality (1): if the projected cost of
//! continuing incrementally exceeds the cost of cleaning the remaining dirty
//! part of the dataset now, the engine switches strategy — the behaviour of
//! Fig. 7 and Fig. 12.
//!
//! The module also hosts the **detection** cost model: the selectivity-driven
//! choice between pairwise (theta-join) and indexed (hash-equality +
//! sort-sweep) candidate enumeration for general DCs (see
//! [`DetectionEstimate`] and [`crate::index`]).

use daisy_expr::DenialConstraint;
use daisy_storage::KeyStatistics;
use serde::{Deserialize, Serialize};

/// How general-DC violation detection enumerates candidate tuple pairs.
///
/// * `Pairwise` — the classic partitioned theta-join: every tuple pair of a
///   surviving block pair is compared (`O(n²)` worst case).
/// * `Indexed` — hash-partition on the constraint's equality predicates and
///   sweep each partition in sort order of its inequality predicate, so only
///   near-violating pairs are ever materialised.
/// * `Auto` — leave the choice to [`DetectionEstimate::recommend`] over the
///   equality key's selectivity.
///
/// The engine resolves it per rule with [`planned_detection`]; the explicit
/// forms exist for [`crate::theta::ThetaMatrix::build_with_strategy`], whose
/// callers (kernel differentials, detection benchmarks) pin one kernel.
/// Both kernels emit identical, canonically ordered violations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DetectionStrategy {
    /// Let the cost model decide from the data.
    #[default]
    Auto,
    /// Enumerate tuple pairs exhaustively.
    Pairwise,
    /// Use the hash-equality / sort-sweep violation index when the
    /// constraint has an index plan (two quantified tuples).
    Indexed,
}

/// The concrete detection kernel a [`crate::theta::ThetaMatrix`] runs with,
/// after a [`DetectionStrategy`] and the cost model have been resolved
/// against a specific constraint and dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// Enumerate every tuple pair of surviving block pairs.
    Pairwise,
    /// Enumerate candidates through the [`crate::index::ViolationIndex`].
    Indexed,
}

/// Inputs below which the indexed path cannot recoup its build cost: for a
/// handful of tuples the pairwise scan is effectively free.
const SMALL_INPUT_ROWS: usize = 128;

/// Selectivity-driven inputs of the pairwise-vs-indexed decision.
///
/// The estimates are in the same abstract "tuple visit" units as the rest of
/// the cost model: pairwise detection visits every pair once, indexed
/// detection pays a build (hash + sort) pass plus one visit per candidate
/// pair that survives the equality partitioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionEstimate {
    /// Dataset size `n`.
    pub rows: usize,
    /// Equality-key statistics over the dataset (`distinct` drives the
    /// expected partition size `n / distinct`).
    pub key: KeyStatistics,
    /// `true` when detection would read through a columnar snapshot, which
    /// roughly halves the per-visit constant of the index build (no `Value`
    /// clones, no per-read schema lookups).
    pub columnar: bool,
}

/// The build-cost discount of the columnar read path: sorting and hashing
/// `Copy` column codes costs about half a row visit.
const COLUMNAR_BUILD_FACTOR: f64 = 0.5;

impl DetectionEstimate {
    /// Builds the estimate from the dataset's equality-key statistics,
    /// assuming the row-store read path.
    pub fn new(rows: usize, key: KeyStatistics) -> Self {
        DetectionEstimate {
            rows,
            key,
            columnar: false,
        }
    }

    /// Marks the estimate as reading through a columnar snapshot.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// Cost of pairwise enumeration: the upper-diagonal pair count.
    pub fn pairwise_cost(&self) -> f64 {
        let n = self.rows as f64;
        n * n / 2.0
    }

    /// Cost of indexed enumeration: one hash + sort pass over the dataset
    /// plus the candidate pairs inside the equality partitions.  The
    /// candidate term combines the mean partition size (`Σ |g|² ≈ n · n/d`
    /// for `d` distinct keys of even size) with the worst single partition
    /// (`max_group²`), so a skewed key — one giant group hiding behind many
    /// singletons — is charged its true near-quadratic cost.  The columnar
    /// read path halves the build pass (sorting and hashing `Copy` codes),
    /// shifting the break-even towards the index for snapshot-backed
    /// tables.
    pub fn indexed_cost(&self) -> f64 {
        let n = self.rows as f64;
        let mut build = n * (n.max(2.0)).log2();
        if self.columnar {
            build *= COLUMNAR_BUILD_FACTOR;
        }
        let mean_group = self.key.mean_group().max(1.0);
        let max_group = self.key.max_group as f64;
        build + (n * mean_group).max(max_group * max_group)
    }

    /// The recommended kernel for this dataset under `Auto`: indexed when
    /// the projected candidate enumeration is cheaper than the pairwise
    /// scan, pairwise for tiny inputs where setup cost dominates.
    pub fn recommend(&self) -> DetectionMode {
        if self.rows < SMALL_INPUT_ROWS {
            return DetectionMode::Pairwise;
        }
        if self.indexed_cost() < self.pairwise_cost() {
            DetectionMode::Indexed
        } else {
            DetectionMode::Pairwise
        }
    }

    /// Cost of detecting a batch of `delta_rows` against a **maintained**
    /// index: per delta row, an `O(log group)` membership update plus one
    /// visit per candidate inside its equality partition (`mean_group`,
    /// vetoed by the worst partition like [`DetectionEstimate::indexed_cost`]).
    /// The table-sized build term of the rebuild path is entirely absent —
    /// that is the point of maintaining the index.
    pub fn incremental_cost(&self, delta_rows: usize) -> f64 {
        let d = delta_rows as f64;
        let mean_group = self.key.mean_group().max(1.0);
        let max_group = self.key.max_group as f64;
        let maintenance = d * mean_group.max(2.0).log2();
        maintenance + (d * mean_group).max(d.min(1.0) * max_group)
    }

    /// `true` when detecting a `delta_rows`-row batch through the
    /// maintained index is projected to beat rebuilding the index and
    /// restricting detection to the batch — the choice streaming ingest
    /// makes for every batch over a live index.  Both
    /// paths enumerate the same `Δ × (T ∪ Δ)` candidates, so the decision
    /// reduces to the maintenance term against the per-batch rebuild pass:
    /// maintenance wins for any batch meaningfully smaller than the table
    /// and only loses for near-table-sized batches over skew-free keys.
    pub fn prefers_incremental(&self, delta_rows: usize) -> bool {
        let n = self.rows as f64;
        let mut rebuild = n * (n.max(2.0)).log2();
        if self.columnar {
            rebuild *= COLUMNAR_BUILD_FACTOR;
        }
        let d = delta_rows as f64;
        let mean_group = self.key.mean_group().max(1.0);
        d * mean_group.max(2.0).log2() < rebuild
    }
}

/// The engine's detection choice for a constraint, from its *shape*
/// (data-independent): constraints without an index plan can only be
/// checked pairwise, and equality-free constraints gain nothing from the
/// index.  The returned strategy is what the planner records on a
/// [`crate::planner::CleaningStep`]; `Auto` survives only when the final,
/// data-dependent decision belongs to [`DetectionEstimate::recommend`].
pub fn planned_detection(constraint: &DenialConstraint) -> DetectionStrategy {
    refine_detection(constraint, DetectionStrategy::Auto)
}

/// Refines a requested [`DetectionStrategy`] against a constraint's shape:
/// `Pairwise` stays, `Indexed` holds whenever an index plan exists, and
/// `Auto` resolves as in [`planned_detection`].
pub(crate) fn refine_detection(
    constraint: &DenialConstraint,
    requested: DetectionStrategy,
) -> DetectionStrategy {
    match constraint.index_plan() {
        None => DetectionStrategy::Pairwise,
        Some(plan) => match requested {
            DetectionStrategy::Pairwise => DetectionStrategy::Pairwise,
            DetectionStrategy::Indexed => DetectionStrategy::Indexed,
            DetectionStrategy::Auto if plan.has_equality_key() => DetectionStrategy::Auto,
            DetectionStrategy::Auto => DetectionStrategy::Pairwise,
        },
    }
}

/// Cost-model constants describing one (table, rule) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParameters {
    /// Dataset size `n`.
    pub n: usize,
    /// Estimated number of erroneous entities `ε` (tuples in dirty groups).
    pub epsilon: usize,
    /// Estimated number of candidate values per erroneous cell `p`.
    pub p: f64,
    /// `true` for functional dependencies (group-by detection, `O(n)`),
    /// `false` for general DCs (theta-join detection, `O(n²/p)`).
    pub is_fd: bool,
}

impl CostParameters {
    /// The traditional (offline) cleaning cost of §5.2.1:
    /// detection + repair + update, in abstract "tuple visit" units.
    pub fn offline_cost(&self) -> f64 {
        let n = self.n as f64;
        let detection = if self.is_fd { n } else { n * n / 2.0 };
        let repairing = self.epsilon as f64 * n;
        let update = n + self.epsilon as f64 * self.p;
        detection + repairing + update
    }
}

/// Observed per-query quantities, accumulated across a workload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostTracker {
    /// The static parameters.
    pub params: CostParameters,
    /// Σ qᵢ — total result tuples returned so far.
    pub total_result_tuples: usize,
    /// Σ eᵢ — total relaxation extras fetched so far.
    pub total_extra_tuples: usize,
    /// Σ εᵢ — total erroneous cells repaired so far.
    pub total_errors_repaired: usize,
    /// Σ candidate values written so far (the update-cost driver).
    pub total_candidates_written: usize,
    /// Accumulated incremental cost (abstract units) actually paid.
    pub accumulated_incremental_cost: f64,
    /// Number of queries executed.
    pub queries: usize,
}

impl Default for CostParameters {
    fn default() -> Self {
        CostParameters {
            n: 0,
            epsilon: 0,
            p: 0.0,
            is_fd: true,
        }
    }
}

impl CostTracker {
    /// Creates a tracker for a table/rule with the given parameters.
    pub fn new(params: CostParameters) -> Self {
        CostTracker {
            params,
            ..CostTracker::default()
        }
    }

    /// The incremental cost of one query per §5.2.2, in the same abstract
    /// units as [`CostParameters::offline_cost`]:
    ///
    /// * relaxation scans the unknown part of the dataset (`u`),
    /// * error detection covers the enhanced result (`qᵢ + eᵢ` for FDs,
    ///   `n·qᵢ/p` for DCs, approximated by the blocks actually compared),
    /// * repairing touches `εᵢ · (qᵢ + eᵢ)`,
    /// * the in-place update pays for the probabilistic values written.
    #[allow(clippy::too_many_arguments)]
    pub fn query_cost(
        &self,
        result_size: usize,
        extra_tuples: usize,
        scanned_unvisited: usize,
        errors: usize,
        candidates_written: usize,
        detection_pairs: usize,
    ) -> f64 {
        let enhanced = (result_size + extra_tuples) as f64;
        let detection = if self.params.is_fd {
            enhanced
        } else {
            detection_pairs as f64
        };
        scanned_unvisited as f64
            + detection
            + errors as f64 * enhanced
            + candidates_written as f64
            + result_size as f64
    }

    /// Records the observed quantities of one query.
    #[allow(clippy::too_many_arguments)]
    pub fn record_query(
        &mut self,
        result_size: usize,
        extra_tuples: usize,
        scanned_unvisited: usize,
        errors: usize,
        candidates_written: usize,
        detection_pairs: usize,
    ) {
        let cost = self.query_cost(
            result_size,
            extra_tuples,
            scanned_unvisited,
            errors,
            candidates_written,
            detection_pairs,
        );
        self.total_result_tuples += result_size;
        self.total_extra_tuples += extra_tuples;
        self.total_errors_repaired += errors;
        self.total_candidates_written += candidates_written;
        self.accumulated_incremental_cost += cost;
        self.queries += 1;
    }

    /// Fraction of the estimated dirty entities already repaired.
    pub fn repaired_fraction(&self) -> f64 {
        if self.params.epsilon == 0 {
            return 1.0;
        }
        (self.total_errors_repaired as f64 / self.params.epsilon as f64).min(1.0)
    }

    /// Estimated cost of cleaning the *remaining* dirty part of the dataset
    /// in one offline pass (what switching to full cleaning would cost now).
    pub fn remaining_full_cost(&self) -> f64 {
        let remaining_errors =
            (self.params.epsilon as f64 * (1.0 - self.repaired_fraction())).max(0.0);
        let n = self.params.n as f64;
        let detection = if self.params.is_fd { n } else { n * n / 2.0 };
        // Remaining repairs are computed with relaxation-style grouping, so
        // the per-error scan is over the dirty groups rather than the whole
        // dataset — a single extra pass plus the update.
        detection + remaining_errors * self.params.p + n
    }

    /// Projected cost of continuing incrementally until the workload has
    /// touched the whole dataset, extrapolated from the average per-query
    /// cost observed so far and the fraction of dirty entities still
    /// unrepaired.
    pub fn projected_incremental_cost(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let avg = self.accumulated_incremental_cost / self.queries as f64;
        let remaining_fraction = 1.0 - self.repaired_fraction();
        if remaining_fraction <= 0.0 {
            return 0.0;
        }
        // Expected number of future queries needed to cover the remaining
        // dirty entities, assuming each future query repairs errors at the
        // observed average rate.
        let avg_errors_per_query =
            (self.total_errors_repaired as f64 / self.queries as f64).max(1.0);
        let remaining_errors = self.params.epsilon as f64 * remaining_fraction;
        let projected_queries = (remaining_errors / avg_errors_per_query).ceil();
        avg * projected_queries
    }

    /// Evaluates the strategy decision of §5.2.3: `true` when the engine
    /// should switch to cleaning the remaining dirty part of the dataset in
    /// one pass because continuing incrementally is projected to cost more.
    pub fn should_switch_to_full(&self) -> bool {
        if self.queries == 0 || self.params.epsilon == 0 {
            return false;
        }
        self.projected_incremental_cost() > self.remaining_full_cost()
    }

    /// Degenerate check of §5.2.3: with a single query accessing the whole
    /// dataset, the incremental cost equals the offline cost (no relaxation
    /// extras, one full pass).
    pub fn single_full_scan_cost(&self) -> f64 {
        let n = self.params.n as f64;
        let detection = if self.params.is_fd { n } else { n * n / 2.0 };
        n + detection + self.params.epsilon as f64 * n + self.params.epsilon as f64 * self.params.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParameters {
        CostParameters {
            n: 100_000,
            epsilon: 10_000,
            p: 3.0,
            is_fd: true,
        }
    }

    #[test]
    fn offline_cost_scales_with_errors_and_size() {
        let small = CostParameters {
            epsilon: 100,
            ..params()
        };
        assert!(params().offline_cost() > small.offline_cost());
        let dc = CostParameters {
            is_fd: false,
            ..params()
        };
        assert!(dc.offline_cost() > params().offline_cost());
    }

    #[test]
    fn incremental_stays_cheaper_for_selective_workloads() {
        // 50 queries with 2% selectivity, few candidates per error: the
        // accumulated incremental cost must stay below offline cleaning —
        // the situation of Fig. 5/6 where Daisy wins.
        let mut tracker = CostTracker::new(params());
        for _ in 0..50 {
            tracker.record_query(2_000, 200, 2_000, 200, 600, 0);
        }
        assert!(tracker.accumulated_incremental_cost < tracker.params.offline_cost());
        assert!(!tracker.should_switch_to_full());
    }

    #[test]
    fn wide_fanout_workload_triggers_the_switch() {
        // Each query repairs few errors but writes very many candidate
        // values (low suppkey selectivity: each dirty value fans out to many
        // candidates) — the Fig. 7 situation where switching pays off.
        let mut tracker = CostTracker::new(CostParameters {
            n: 100_000,
            epsilon: 80_000,
            p: 40.0,
            is_fd: true,
        });
        for _ in 0..10 {
            tracker.record_query(1_000, 5_000, 60_000, 300, 120_000, 0);
        }
        assert!(tracker.should_switch_to_full());
    }

    #[test]
    fn repaired_fraction_saturates_at_one() {
        let mut tracker = CostTracker::new(CostParameters {
            n: 100,
            epsilon: 10,
            p: 2.0,
            is_fd: true,
        });
        tracker.record_query(50, 5, 50, 20, 40, 0);
        assert_eq!(tracker.repaired_fraction(), 1.0);
        assert!(!tracker.should_switch_to_full());
        assert_eq!(tracker.projected_incremental_cost(), 0.0);
    }

    #[test]
    fn single_full_scan_matches_offline_shape() {
        let tracker = CostTracker::new(params());
        let full = tracker.single_full_scan_cost();
        let offline = tracker.params.offline_cost();
        // Same order of magnitude: both are dominated by ε·n.
        assert!(full / offline < 1.5 && offline / full < 1.5);
    }

    #[test]
    fn detection_estimate_prefers_indexed_for_selective_keys() {
        let selective = DetectionEstimate::new(
            10_000,
            daisy_storage::KeyStatistics {
                rows: 10_000,
                distinct: 100,
                max_group: 150,
            },
        );
        assert_eq!(selective.recommend(), DetectionMode::Indexed);
        assert!(selective.indexed_cost() < selective.pairwise_cost());

        // One giant partition degenerates to the pairwise cost and loses.
        let degenerate = DetectionEstimate::new(
            10_000,
            daisy_storage::KeyStatistics {
                rows: 10_000,
                distinct: 1,
                max_group: 10_000,
            },
        );
        assert_eq!(degenerate.recommend(), DetectionMode::Pairwise);

        // Tiny inputs never pay the index setup.
        let tiny = DetectionEstimate::new(
            20,
            daisy_storage::KeyStatistics {
                rows: 20,
                distinct: 20,
                max_group: 1,
            },
        );
        assert_eq!(tiny.recommend(), DetectionMode::Pairwise);

        // Skew blindness: many singleton keys around one giant group keep
        // the mean low, but the giant group alone is near-quadratic — the
        // max_group term must veto the index.
        let skewed = DetectionEstimate::new(
            10_000,
            daisy_storage::KeyStatistics {
                rows: 10_000,
                distinct: 100,
                max_group: 9_901,
            },
        );
        assert_eq!(skewed.recommend(), DetectionMode::Pairwise);
    }

    #[test]
    fn incremental_detection_beats_rebuilds_for_small_batches() {
        let estimate = DetectionEstimate::new(
            100_000,
            daisy_storage::KeyStatistics {
                rows: 100_000,
                distinct: 1_000,
                max_group: 150,
            },
        );
        // A 1% batch is far cheaper through the maintained index than the
        // 100k-row rebuild the baseline pays per batch.
        assert!(estimate.incremental_cost(1_000) < estimate.indexed_cost());
        assert!(estimate.prefers_incremental(1_000));
        // Cost grows with the batch; an empty batch is free.
        assert!(estimate.incremental_cost(2_000) > estimate.incremental_cost(1_000));
        assert_eq!(estimate.incremental_cost(0), 0.0);
        assert!(estimate.prefers_incremental(0));
        // A batch much larger than the table loses to one rebuild.
        assert!(!estimate.prefers_incremental(10_000_000));
        // The columnar discount shifts the break-even towards rebuilding.
        let columnar = estimate.clone().with_columnar(true);
        assert!(columnar.prefers_incremental(1_000));
    }

    #[test]
    fn columnar_estimates_discount_the_build_pass() {
        let key = daisy_storage::KeyStatistics {
            rows: 10_000,
            distinct: 100,
            max_group: 150,
        };
        let row = DetectionEstimate::new(10_000, key.clone());
        let columnar = DetectionEstimate::new(10_000, key).with_columnar(true);
        // Candidate enumeration is unchanged; only the build term shrinks.
        assert!(columnar.indexed_cost() < row.indexed_cost());
        assert_eq!(columnar.pairwise_cost(), row.pairwise_cost());
        // A borderline input where the build term tips the scale: one
        // near-quadratic skewed group puts the candidate term just below
        // the pairwise cost (50M), so the full row build (≈133k) loses but
        // the discounted columnar build (≈66k) wins.
        let borderline_key = daisy_storage::KeyStatistics {
            rows: 10_000,
            distinct: 100,
            max_group: 7_065,
        };
        let row = DetectionEstimate::new(10_000, borderline_key.clone());
        let columnar = DetectionEstimate::new(10_000, borderline_key).with_columnar(true);
        assert_eq!(row.recommend(), DetectionMode::Pairwise);
        assert_eq!(columnar.recommend(), DetectionMode::Indexed);
    }

    #[test]
    fn planned_detection_refines_by_constraint_shape() {
        use daisy_expr::DenialConstraint;

        let with_eq =
            DenialConstraint::parse("a", "t1.x = t2.x & t1.y < t2.y & t1.z > t2.z").unwrap();
        let no_eq = DenialConstraint::parse("b", "t1.y < t2.y & t1.z > t2.z").unwrap();
        let single = DenialConstraint::parse("c", "t1.y > 5").unwrap();

        // The engine keeps its options open only when an equality key exists.
        assert_eq!(planned_detection(&with_eq), DetectionStrategy::Auto);
        assert_eq!(planned_detection(&no_eq), DetectionStrategy::Pairwise);
        assert_eq!(planned_detection(&single), DetectionStrategy::Pairwise);
        // An explicit indexed request is honoured whenever a plan exists at
        // all; constraints without a plan are always pairwise.
        assert_eq!(
            refine_detection(&no_eq, DetectionStrategy::Indexed),
            DetectionStrategy::Indexed
        );
        assert_eq!(
            refine_detection(&single, DetectionStrategy::Indexed),
            DetectionStrategy::Pairwise
        );
        assert_eq!(
            refine_detection(&with_eq, DetectionStrategy::Pairwise),
            DetectionStrategy::Pairwise
        );
    }

    #[test]
    fn clean_dataset_never_switches() {
        let mut tracker = CostTracker::new(CostParameters {
            n: 1000,
            epsilon: 0,
            p: 0.0,
            is_fd: true,
        });
        tracker.record_query(100, 0, 900, 0, 0, 0);
        assert!(!tracker.should_switch_to_full());
        assert_eq!(tracker.repaired_fraction(), 1.0);
    }
}
