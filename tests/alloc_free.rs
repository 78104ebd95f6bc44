//! The steady-state tick hot loop and the PAPI read path must not
//! allocate.
//!
//! A counting global allocator wraps `System`; after a warm-up (scratch
//! buffers and scheduler queues grow to their working capacity), windows of
//! pure compute ticks, or of PAPI calls, are measured. At least one window
//! must be completely allocation-free — per-call `vec![...]`/`clone()`
//! churn would show up in *every* window. The measuring tests hold one
//! lock, so the count is attributable to the code under test.

use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{ExecMode, Kernel, KernelConfig};
use simos::task::Op;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the two measurement tests: the counter is global, so a
/// concurrently running sibling test would pollute the windows.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_tick_is_allocation_free() {
    // Serial explicitly: the guarantee is the serial path's, while the
    // opt-in parallel path's `thread::scope` allocates per tick by design.
    measure_steady_state(KernelConfig {
        exec_mode: ExecMode::Serial,
        ..Default::default()
    });
}

/// The flight recorder must keep the guarantee when enabled: the ring is
/// preallocated at boot and `record` overwrites in place, so a traced
/// steady-state window is still allocation-free.
#[test]
fn steady_state_tick_is_allocation_free_with_tracing() {
    measure_steady_state(KernelConfig {
        exec_mode: ExecMode::Serial,
        trace: simtrace::TraceConfig::enabled_with_cap(4096),
        ..Default::default()
    });
}

/// Causal-span recording with tracing off (`SIM_TRACE` unset) must cost
/// one branch and zero allocations: every hop in the request path calls
/// `record` unconditionally, so a disabled sink that allocated would
/// tax untraced production runs.
#[test]
fn disabled_span_recording_is_allocation_free() {
    use simtrace::{span, EventKind, TraceConfig, TraceSink};
    let _guard = MEASURE.lock().unwrap();
    let mut sink = TraceSink::new(&TraceConfig::default());
    assert!(!sink.enabled());
    // Min over several windows, like the tick-loop tests: sibling test
    // threads spinning up allocate against the same global counter, so
    // any single window can be polluted — but a `record` that allocated
    // would show in *every* window.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..100_000u64 {
            let trace_id = span::rpc_trace_id(0xfeed, i);
            sink.record(i, EventKind::SpanBegin, span::CLIENT, trace_id, 0);
            sink.record(i, EventKind::SpanBegin, span::SHARD, trace_id, 1);
            sink.record(i + 1, EventKind::SpanEnd, span::SHARD, trace_id, 1);
            sink.record(i + 1, EventKind::SpanEnd, span::CLIENT, trace_id, 0);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "disabled span recording allocated in every 400k-record window"
    );
    assert!(sink.events().is_empty(), "disabled sink recorded events");
}

/// And with the recorder on, the ring is preallocated at construction:
/// recording past the cap overwrites in place, never grows.
#[test]
fn enabled_span_recording_is_allocation_free_after_construction() {
    use simtrace::{span, EventKind, TraceConfig, TraceSink};
    let _guard = MEASURE.lock().unwrap();
    let mut sink = TraceSink::new(&TraceConfig::enabled_with_cap(1024));
    // Warm-up: fill the ring once so wrap-around is the steady state.
    for i in 0..2048u64 {
        sink.record(i, EventKind::SpanBegin, span::CLIENT, i | 2, 0);
    }
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..100_000u64 {
            sink.record(i, EventKind::SpanBegin, span::CLIENT, i | 2, 0);
            sink.record(i + 1, EventKind::SpanEnd, span::CLIENT, i | 2, 0);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "ring-buffer span recording allocated in every window"
    );
}

/// The PAPI read path: on a started P-core + E-core + RAPL EventSet
/// attached to a running task, `read_into`, `read_fast` and `reset`
/// reuse the library's row buffer and walk the kernel's group lists in
/// place, so they allocate nothing; `read` allocates exactly its
/// returned `Values` — the vector plus one label per entry — and so does
/// a `stop`+`start` round, whose start checks each group's counter fit
/// in place.
#[test]
fn steady_state_papi_reads_are_allocation_free() {
    use papi::{Attach, Papi};
    let _guard = MEASURE.lock().unwrap();
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        KernelConfig {
            exec_mode: ExecMode::Serial,
            ..Default::default()
        },
    );
    let pid = kernel.lock().spawn(
        "app",
        Box::new(|_: &simos::task::ProgCtx| Op::Compute(Phase::scalar(50_000_000))),
        CpuMask::from_cpus([0]),
        0,
    );
    let mut papi = Papi::init(kernel.clone()).unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    for ev in [
        "adl_glc::INST_RETIRED:ANY",
        "adl_grt::INST_RETIRED:ANY",
        "rapl::RAPL_ENERGY_PKG",
    ] {
        papi.add_named(es, ev).unwrap();
    }
    papi.start(es).unwrap();
    assert_eq!(papi.num_groups(es).unwrap(), 3);
    let entries = papi.num_events(es).unwrap();
    let mut values = vec![0u64; entries];
    // Warm-up: the row buffer grows to the EventSet's size.
    for _ in 0..20 {
        kernel.lock().tick();
        papi.read_into(es, &mut values).unwrap();
    }
    assert!(
        values[0] > 0 && values[2] > 0,
        "task and package counted: {values:?}"
    );
    const CALLS: u64 = 100;
    let mut quiet = u64::MAX;
    let mut read = u64::MAX;
    let mut restart = u64::MAX;
    for _ in 0..5 {
        kernel.lock().tick();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            papi.read_into(es, &mut values).unwrap();
            for entry in 0..entries {
                papi.read_fast(es, entry).unwrap();
            }
            papi.reset(es).unwrap();
        }
        let mid = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            drop(papi.read(es).unwrap());
        }
        let after_read = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..CALLS {
            drop(papi.stop(es).unwrap());
            papi.start(es).unwrap();
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        quiet = quiet.min(mid - before);
        read = read.min(after_read - mid);
        restart = restart.min(after - after_read);
    }
    assert_eq!(quiet, 0, "read_into/read_fast/reset allocated");
    assert_eq!(
        read,
        CALLS * (1 + entries as u64),
        "read must allocate its Values and nothing else"
    );
    assert_eq!(
        restart,
        CALLS * (1 + entries as u64),
        "stop+start must allocate stop's Values and nothing else"
    );
}

fn measure_steady_state(cfg: KernelConfig) {
    let _guard = MEASURE.lock().unwrap();
    let mut k = Kernel::boot(MachineSpec::raptor_lake_i7_13700(), cfg);
    let n = k.machine().n_cpus();
    // One immortal compute-bound worker per CPU, pinned so the scheduler
    // reaches a fixed point (no migrations, no run-queue churn).
    for i in 0..n {
        k.spawn(
            &format!("w{i}"),
            Box::new(move |_: &simos::task::ProgCtx| Op::Compute(Phase::scalar(50_000_000))),
            CpuMask::from_cpus([i]),
            0,
        );
    }
    // Warm-up: grow every scratch buffer to steady-state capacity.
    for _ in 0..100 {
        k.tick();
    }
    // Measure several windows; accept the minimum so an unlucky one-off
    // (e.g. a phase boundary pulling the next op) cannot flake the test.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..50 {
            k.tick();
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        min_window = min_window.min(after - before);
    }
    assert_eq!(
        min_window, 0,
        "the steady-state tick loop allocated (min over 5×50-tick windows)"
    );
}
