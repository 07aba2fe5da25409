//! Ablation: the pre-computed dirty-group statistics (FD index) that let
//! Daisy skip violation checks for clean groups (the Fig. 9 explanation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use daisy_core::fd_index::FdIndex;
use daisy_data::errors::inject_fd_errors;
use daisy_data::ssb::{generate_lineorder, SsbConfig};
use daisy_expr::FunctionalDependency;

fn bench_statistics(c: &mut Criterion) {
    let mut group = c.benchmark_group("statistics_pruning");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let rows = 10_000usize;
    for dirty_fraction in [0.2f64, 0.8] {
        let config = SsbConfig {
            lineorder_rows: rows,
            distinct_orderkeys: rows / 10,
            distinct_suppkeys: 100,
            ..SsbConfig::default()
        };
        let mut table = generate_lineorder(&config).unwrap();
        inject_fd_errors(&mut table, "orderkey", "suppkey", dirty_fraction, 0.1, 1).unwrap();
        let fd = FunctionalDependency::new(&["orderkey"], "suppkey");

        group.bench_with_input(
            BenchmarkId::new("build_fd_index", format!("{dirty_fraction}")),
            &dirty_fraction,
            |b, _| b.iter(|| FdIndex::build(&table, &fd).unwrap()),
        );
        let index = FdIndex::build(&table, &fd).unwrap();
        group.bench_with_input(
            BenchmarkId::new("dirty_lookup_per_tuple", format!("{dirty_fraction}")),
            &dirty_fraction,
            |b, _| {
                b.iter(|| {
                    let mut dirty = 0usize;
                    for t in table.tuples() {
                        if index.lhs_is_dirty(&index.lhs_key(t).unwrap()) {
                            dirty += 1;
                        }
                    }
                    dirty
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pairwise_check_without_stats", format!("{dirty_fraction}")),
            &dirty_fraction,
            |b, _| {
                // The naive alternative: group and compare without the
                // pre-computed dirty flags (scan + rebuild every time).
                b.iter(|| FdIndex::build(&table, &fd).unwrap().dirty_group_count())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_statistics);
criterion_main!(benches);
