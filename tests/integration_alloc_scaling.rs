//! The deterministic guard against a deep copy creeping back into the
//! service path: one request through a session — open, a 1-row ingest, a
//! 2-key cleaning `SELECT`, commit — must allocate (about) the same number
//! of times whether the table it touches has 300 rows or 3 000.
//!
//! Versions of the world share rows, provenance entries and index
//! partitions, so opening a session, its first write and the
//! retirement of the version it supersedes copy a fixed number of pointer
//! tables, not one heap object per row.  A row-by-row copy of the 3 000-row
//! table alone would add 3 000 allocations, which is what the bound below
//! catches.
//!
//! This file is a test binary of its own because it installs a counting
//! `#[global_allocator]`; it holds one test, so nothing else allocates on
//! the counted thread while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use daisy::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test thread while a request is being measured.  Const
    /// initialised and without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const ROWS_PER_KEY: usize = 10;

/// `hot`: `rows` rows in groups of ten per key, `rhs` a function of the key
/// except in the groups of keys 0 and 2, which carry one conflicting row
/// each — the same two dirty groups at every size, so the cleaning work of
/// a request does not depend on the table's size, only its copying could.
fn hot(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("key", DataType::Int),
        ("rhs", DataType::Int),
        ("note", DataType::Str),
    ])
    .unwrap();
    let data = (0..rows)
        .map(|i| {
            let key = (i / ROWS_PER_KEY) as i64;
            let dirty = (key == 0 || key == 2) && i % ROWS_PER_KEY == 3;
            let rhs = if dirty { -1 - key } else { key * 7 };
            vec![
                Value::Int(key),
                Value::Int(rhs),
                Value::from(format!("row {i}")),
            ]
        })
        .collect();
    Table::from_rows("hot", schema, data).unwrap()
}

/// One request: open a session, ingest one clean row under a fresh key,
/// clean and read two keys, commit.
fn request(shared: &std::sync::Arc<EngineShared>, fresh_key: i64, low_key: i64) {
    let mut session = shared.session_named("req");
    session
        .ingest_rows(
            "hot",
            vec![vec![
                Value::Int(fresh_key),
                Value::Int(fresh_key * 7),
                Value::from("ingested"),
            ]],
        )
        .unwrap();
    let outcome = session
        .execute_sql(&format!(
            "SELECT key, rhs FROM hot WHERE key >= {low_key} AND key <= {}",
            low_key + 1
        ))
        .unwrap();
    assert!(outcome.result.len() >= 2 * ROWS_PER_KEY);
    let receipt = session.commit().unwrap();
    assert!(receipt.cells_committed > 0);
}

/// Allocations of the second request against a `rows`-row `hot` (the first
/// builds the FD index and the maintained violation index).
fn allocations_of_one_request(rows: usize) -> usize {
    let mut engine = DaisyEngine::new(
        DaisyConfig::default()
            .with_worker_threads(1)
            .with_data_partitions(1)
            .with_cost_model(false),
    )
    .unwrap();
    engine.register_table(hot(rows));
    engine.add_fd(&FunctionalDependency::new(&["key"], "rhs"), "phi");
    let shared = engine.into_shared();
    let fresh = (rows / ROWS_PER_KEY) as i64;
    request(&shared, fresh, 0);

    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    request(&shared, fresh + 1, 2);
    COUNTING.with(|c| c.set(false));
    let counted = ALLOCATIONS.load(Ordering::Relaxed);

    // The measured request did clean: the dirty group of key 2 is repaired.
    assert!(shared.table("hot").unwrap().probabilistic_tuple_count() >= 2);
    counted
}

#[test]
fn a_request_allocates_the_same_on_a_300_and_a_3000_row_table() {
    let small = allocations_of_one_request(300);
    let large = allocations_of_one_request(3_000);
    println!("allocations per request: {small} at 300 rows, {large} at 3 000 rows");
    assert!(small > 0, "the counting allocator is not installed");
    // A copy of the larger table, its provenance store or its index
    // contributions would each add ≥ 2 700.
    assert!(
        large < small + 400,
        "a request on 3 000 rows allocates {large} times against {small} on 300 rows: \
         something copies per row again"
    );
}
