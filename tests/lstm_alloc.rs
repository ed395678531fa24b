//! Zero-allocation pinning for the LSTM training hot path.
//!
//! ISSUE/ROADMAP item: "LSTM training still allocates per-gate `Vec`s
//! per timestep". The scratch rework retires that — after one warm-up
//! batch has sized the reusable buffers, further same-shaped
//! `train_batch`/`mean_ce` calls must not touch the heap at all. A
//! counting global allocator asserts exactly that for the classifier
//! trainer ([`LstmTrainer`]).
//!
//! This file holds a single test on purpose: the allocator counter is
//! process-global, and a sibling test running on another thread would
//! pollute the count.

use aps_repro::ml::lstm::{LstmConfig, LstmTrainer, SeqDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counting is scoped to the measuring thread: harness/runtime
    /// threads allocating concurrently must not pollute the count.
    /// `const`-initialized so reading it never allocates.
    static COUNTING_HERE: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING_HERE.try_with(|c| c.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread only;
/// returns the count.
fn count_allocations(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING_HERE.with(|c| c.set(true));
    f();
    COUNTING_HERE.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn classifier_data() -> SeqDataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..24 {
        let v = (i % 7) as f64 / 3.0 - 1.0;
        x.push((0..6).map(|t| vec![v + 0.1 * t as f64, -v]).collect());
        y.push(usize::from(v > 0.0));
    }
    SeqDataset::new(x, y)
}

#[test]
fn steady_state_lstm_training_performs_zero_heap_allocations() {
    let data = classifier_data();
    let config = LstmConfig {
        hidden: vec![8, 5],
        batch_size: 8,
        ..LstmConfig::default()
    };
    let mut trainer = LstmTrainer::new(&data, &config);
    let idx: Vec<usize> = (0..data.len()).collect();
    // Warm-up sizes every scratch buffer.
    trainer.train_batch(&data, &idx[..8]);
    trainer.mean_ce(&data, &idx);

    let during_batches = count_allocations(|| {
        for _ in 0..5 {
            trainer.train_batch(&data, &idx[..8]);
            trainer.train_batch(&data, &idx[8..16]);
        }
    });
    assert_eq!(
        during_batches, 0,
        "classifier train_batch allocated {during_batches} times in steady state"
    );
    let during_eval = count_allocations(|| {
        trainer.mean_ce(&data, &idx);
    });
    assert_eq!(
        during_eval, 0,
        "classifier mean_ce allocated {during_eval} times in steady state"
    );
}
