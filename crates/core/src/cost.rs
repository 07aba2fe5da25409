//! The cost model of §5.2: traditional (offline) cleaning cost, incremental
//! cleaning cost, and the decision between them.
//!
//! The engine keeps a [`CostTracker`] per (table, rule).  After each query
//! it records the observed quantities (result size, extra tuples, errors,
//! candidate counts) and evaluates Inequality (1): if the projected cost of
//! continuing incrementally exceeds the cost of cleaning the remaining dirty
//! part of the dataset now, the engine switches strategy — the behaviour of
//! Fig. 7 and Fig. 12.

use serde::{Deserialize, Serialize};

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
