//! Columnar-snapshot lifecycle costs: cold build vs `O(|delta|)` patching.
//!
//! The delta-maintenance protocol only pays if absorbing a repair delta is
//! orders of magnitude cheaper than rebuilding the snapshot — this bench
//! pins the build/patch gap.

use criterion::{criterion_group, criterion_main, Criterion};

use daisy_common::{ColumnId, TupleId, Value};
use daisy_data::errors::inject_inequality_errors;
use daisy_data::ssb::{generate_lineorder, SsbConfig};
use daisy_storage::{Cell, CellUpdate, ColumnSnapshot, Delta, Table};

fn dirty_lineorder(rows: usize) -> Table {
    let config = SsbConfig {
        lineorder_rows: rows,
        distinct_orderkeys: rows / 10,
        distinct_suppkeys: 100,
        ..SsbConfig::default()
    };
    let mut table = generate_lineorder(&config).unwrap();
    inject_inequality_errors(&mut table, "extended_price", "discount", 0.05, 0.5, 7).unwrap();
    table
}

/// Cold snapshot build vs patching a ~1% repair delta into a warm one.
fn bench_build_vs_absorb(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_maintenance");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let table = dirty_lineorder(8_000);
    group.bench_function("build_8k", |b| {
        b.iter(|| ColumnSnapshot::build(&table).unwrap())
    });

    // A repair-shaped delta: 1% of the discount cells overwritten.
    let snap = ColumnSnapshot::build(&table).unwrap();
    let mut delta = Delta::new();
    for i in (0..table.len()).step_by(100) {
        delta.push(CellUpdate {
            tuple: TupleId::new(i as u64),
            column: ColumnId::new(7),
            cell: Cell::Determinate(Value::Float(i as f64 / 10_000.0)),
        });
    }
    let mut patched = table.clone();
    patched.apply_delta(&delta).unwrap();
    group.bench_function("absorb_delta_80_of_8k", |b| {
        b.iter_batched(
            || snap.clone(),
            |mut s| s.absorb_delta(&patched, &delta).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_build_vs_absorb);
criterion_main!(benches);
