//! Allocation gate: in steady state a simulated task costs no heap
//! allocation on any engine. A counting global allocator (it serves only
//! this test binary) counts the allocations made inside `Engine::run` on
//! the calling thread, and every row must average below one per task.
//! Formatting a metric name or growing a fresh buffer per task shows here
//! as two or more per task.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use parallelxl::apps::{by_name, Scale};
use parallelxl::{DesignPoint, EngineKind, PointArch, RunSpec, SimulationBuilder, Workload};

/// Forwards to the system allocator and counts every allocation, zeroed
/// allocation and reallocation made while the calling thread is armed.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: a thread being torn down has no flag left to read.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations inside `Engine::run` and the tasks it executed, for the
/// Small-scale `bench` on `point`.
fn allocations_and_tasks(bench_name: &str, point: DesignPoint) -> (u64, u64) {
    let bench = by_name(bench_name, Scale::Small).expect("known benchmark");
    let spec = RunSpec::new(bench_name, Scale::Small, point);
    let mut engine = SimulationBuilder::from_run_spec(&spec)
        .and_then(|b| b.build())
        .expect("valid point");
    let (out, allocs) = if engine.kind() == EngineKind::Lite {
        let inst = bench.lite(engine.mem_mut()).expect("lite mapping");
        let (mut worker, mut driver) = (inst.worker, inst.driver);
        armed(|| engine.run(Workload::rounds(worker.as_mut(), driver.as_mut())))
    } else {
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        armed(|| engine.run(Workload::dynamic(worker.as_mut(), inst.root)))
    };
    let out = out.unwrap_or_else(|e| panic!("{bench_name} on {spec:?}: {e}"));
    let tasks = out.metrics.get("accel.tasks") + out.metrics.get("cpu.tasks");
    (allocs, tasks)
}

/// `f`'s result and the allocations this thread made while running it.
fn armed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_task_costs_under_one_allocation_on_every_engine() {
    let points = [
        ("flex 2x2", DesignPoint::accel(PointArch::Flex, 2, 2)),
        ("lite 2x2", DesignPoint::accel(PointArch::Lite, 2, 2)),
        ("cpu 4", DesignPoint::cpu(4)),
    ];
    let mut rows = Vec::new();
    for bench in ["uts", "queens"] {
        for (label, point) in &points {
            let (allocs, tasks) = allocations_and_tasks(bench, point.clone());
            assert!(tasks > 0, "{bench} on {label} ran no task");
            rows.push((bench, label, allocs, tasks, allocs as f64 / tasks as f64));
        }
    }
    let table: String = rows
        .iter()
        .map(|(bench, label, allocs, tasks, per)| {
            format!("{bench} {label}: {allocs} allocations / {tasks} tasks = {per:.2}\n")
        })
        .collect();
    println!("{table}");
    for (bench, label, _, _, per) in &rows {
        assert!(
            *per < 1.0,
            "{bench} on {label}: {per:.2} allocations per task\n{table}"
        );
    }
}
