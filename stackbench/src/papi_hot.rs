//! `papi_hot`: an instrumented application.
//!
//! The §V.5 three-group EventSet (P-core, E-core and RAPL events) is
//! attached to a running task. Each round advances the kernel one tick,
//! issues a batch of `Papi::read`, and issues `read_fast`, `reset` and
//! `stop`+`start` at fixed ratios. The seed sets the kernel seed and, in
//! every `stop`+`start` window, the round at which the task is moved
//! between its P core and its E core, so both per-core-type rows count.
//! At every stop the rows must equal the scheduler's per-core-type ground
//! truth since the last start or reset.

use crate::stats::{Hist, Rng};
use crate::trace::Tracer;
use crate::{
    kernel_config, kernel_ratios, layer_median, measure, pass_medians, pass_metrics, trace_metrics,
};
use crate::{Measured, Metric, Ops, Run, Step};
use papi::{Attach, EventSetId, Papi, PapiConfig};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask};
use simos::kernel::{Kernel, KernelHandle};
use simos::perf::{EventFd, PmuKind, Target};
use simos::task::{Op, Pid, ScriptedProgram};
use std::time::Instant;

pub const WHY: &str = "papi calls, the simos perf-syscall layer inside them, take 0.91 of run_s \
in traced runs and the tick 0.07: 64 hybrid three-group reads per simulated tick, with resets, \
rdpmc reads and restarts at fixed ratios";

/// `papi_cost`'s tick (the kernel default).
const TICK_NS: u64 = 1_000_000;
const EVENTS: [&str; 3] = [
    "adl_glc::INST_RETIRED:ANY",
    "adl_grt::INST_RETIRED:ANY",
    "rapl::RAPL_ENERGY_PKG",
];
const P_CPU: usize = 0;
const E_CPU: usize = 16;
const READS_PER_ROUND: usize = 64;
const READ_FAST_PER_ROUND: usize = 8;
const RESET_EVERY: usize = 4;
const RESTART_EVERY: usize = 16;
const ROUNDS_PER_PASS: usize = 1024;

struct State {
    kernel: KernelHandle,
    papi: Papi,
    es: EventSetId,
    pid: Pid,
    /// The benchmark's own perf groups with the EventSet's events, one
    /// group per event like PAPI's, read directly in traced passes.
    groups: Vec<EventFd>,
    /// Ground truth `[P, E]` instructions at the last start or reset.
    base: [u64; 2],
    on_e: bool,
}

fn truth(kernel: &KernelHandle, pid: Pid) -> [u64; 2] {
    let t = kernel
        .lock()
        .task_stats(pid)
        .expect("the measured task exists")
        .instructions_by_type;
    [t[0], t[1]]
}

fn build(seed: u64, ops: &mut Ops) -> State {
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        kernel_config(seed, TICK_NS),
    );
    let pid = kernel.lock().spawn(
        "app",
        Box::new(ScriptedProgram::new([
            Op::Compute(Phase::scalar(u64::MAX / 2)),
            Op::Exit,
        ])),
        CpuMask::from_cpus([P_CPU]),
        0,
    );
    let mut papi = Papi::init_with(
        kernel.clone(),
        PapiConfig {
            overhead_instructions: 0,
            ..Default::default()
        },
    )
    .expect("PAPI initializes on a freshly booted kernel");
    let es = papi.create_eventset();
    ops.result(papi.attach(es, Attach::Task(pid)), "PAPI_attach");
    for ev in EVENTS {
        ops.result(papi.add_named(es, ev), ev);
    }
    let mut groups = Vec::new();
    {
        let mut k = kernel.lock();
        for ev in EVENTS {
            let enc = papi.pfm().encode(ev).expect("the EventSet's events encode");
            let pmu = k
                .pmu_by_id(enc.attr.pmu_type)
                .expect("encoded PMU exists")
                .clone();
            let target = match pmu.kind {
                PmuKind::Rapl | PmuKind::Uncore => {
                    Target::Cpu(pmu.cpus.iter().next().unwrap_or(CpuId(0)))
                }
                _ => Target::Thread(pid),
            };
            if let Some(fd) =
                ops.result(k.perf_event_open(enc.attr, target, None), "perf_event_open")
            {
                ops.result(k.ioctl_enable(fd, true), "PERF_EVENT_IOC_ENABLE");
                groups.push(fd);
            }
        }
    }
    ops.result(papi.start(es), "PAPI_start");
    // Warm-up: the task is running and every fd has been read once.
    for _ in 0..RESTART_EVERY {
        kernel.lock().tick();
        ops.result(papi.read(es), "PAPI_read");
    }
    ops.result(papi.reset(es), "PAPI_reset");
    let base = truth(&kernel, pid);
    State {
        kernel,
        papi,
        es,
        pid,
        groups,
        base,
        on_e: false,
    }
}

/// Compare the EventSet's per-core-type rows at stop with ground truth.
pub fn check_rows(ops: &mut Ops, rows: [u64; 2], base: [u64; 2], now: [u64; 2]) -> bool {
    let want = [now[0] - base[0], now[1] - base[1]];
    ops.check(rows == want, || {
        format!("rows at stop {rows:?} != task_stats delta {want:?}")
    })
}

#[derive(Default)]
struct Samples {
    /// Host ns per `Papi::read`, one sample per untraced batch.
    read_ns: Hist,
    /// Host ns per `stop`+`start` pair, untraced.
    start_stop_ns: Hist,
    syscalls: u64,
    sim_latency_ns: u64,
    reads: u64,
    row_checks_with_both_types: u64,
}

pub fn run(run: &Run, tr: &mut Tracer) -> Measured {
    let mut ops = Ops::default();
    let mut state = None;
    let mut rng = Rng::new(run.seed);
    let mut s = Samples::default();
    let mut flip_at = 0;
    let passes = measure(run, tr, |tr, step| {
        if step == Step::Setup {
            let fresh = build(run.seed, &mut ops);
            state.get_or_insert(fresh);
            return;
        }
        let st = state.as_mut().expect("set-up runs before the first pass");
        let traced = tr.on();
        for round in 0..ROUNDS_PER_PASS {
            let phase = round % RESTART_EVERY;
            if phase == 0 {
                flip_at = rng.below(RESTART_EVERY as u64) as usize;
            }
            if phase == flip_at {
                st.on_e = !st.on_e;
                let cpu = if st.on_e { E_CPU } else { P_CPU };
                let r = st
                    .kernel
                    .lock()
                    .set_affinity(st.pid, CpuMask::from_cpus([cpu]));
                ops.result(r, "sched_setaffinity");
            }
            tr.begin("simos.tick");
            st.kernel.lock().tick();
            tr.end("simos.tick", 1);

            let before = traced.then(|| st.papi.syscall_stats());
            tr.begin("papi.read");
            let t = Instant::now();
            let mut ok = 0;
            for _ in 0..READS_PER_ROUND {
                ok += u64::from(st.papi.read(st.es).is_ok());
            }
            let dt = t.elapsed().as_nanos() as f64;
            tr.end("papi.read", READS_PER_ROUND as u64);
            let n = READS_PER_ROUND as u64;
            ops.tally(n, n - ok, || format!("{} PAPI_read calls failed", n - ok));
            if let Some(b) = before {
                let a = st.papi.syscall_stats();
                s.syscalls += a.reads - b.reads;
                s.sim_latency_ns += a.total_latency_ns - b.total_latency_ns;
                s.reads += READS_PER_ROUND as u64;
            } else {
                s.read_ns.record(dt / READS_PER_ROUND as f64);
            }
            if traced {
                let n = (READS_PER_ROUND * st.groups.len()) as u64;
                tr.begin("probe.read_group");
                let mut k = st.kernel.lock();
                let mut ok = 0;
                for _ in 0..READS_PER_ROUND {
                    for &fd in &st.groups {
                        ok += u64::from(k.read_group(fd).is_ok());
                    }
                }
                drop(k);
                tr.end("probe.read_group", n);
                ops.tally(n, n - ok, || format!("{} read_group calls failed", n - ok));
            }

            tr.begin("papi.read_fast");
            for i in 0..READ_FAST_PER_ROUND {
                let r = st.papi.read_fast(st.es, i % 2);
                ops.result(r, "PAPI_read_fast");
            }
            tr.end("papi.read_fast", READ_FAST_PER_ROUND as u64);

            if round % RESET_EVERY == RESET_EVERY - 1 && phase != RESTART_EVERY - 1 {
                tr.begin("papi.reset");
                let r = st.papi.reset(st.es);
                tr.end("papi.reset", 1);
                ops.result(r, "PAPI_reset");
                st.base = truth(&st.kernel, st.pid);
            }
            if phase == RESTART_EVERY - 1 {
                tr.begin("papi.stop_start");
                let t = Instant::now();
                let stopped = st.papi.stop(st.es);
                let started = st.papi.start(st.es);
                let dt = t.elapsed().as_nanos() as f64;
                tr.end("papi.stop_start", 1);
                if !traced {
                    s.start_stop_ns.record(dt);
                }
                if let Some(v) = ops.result(stopped, "PAPI_stop") {
                    let now = truth(&st.kernel, st.pid);
                    let rows = [v[0].1, v[1].1];
                    check_rows(&mut ops, rows, st.base, now);
                    s.row_checks_with_both_types += u64::from(rows[0] > 0 && rows[1] > 0);
                    st.base = now;
                }
                ops.result(started, "PAPI_start");
            }
        }
    });
    ops.check(s.row_checks_with_both_types > 0, || {
        "no stop saw counts on both core types".into()
    });

    let st = state.expect("set-up ran");
    let mut end_to_end = pass_metrics(&passes);
    let read_ns = s.read_ns.quantile(0.5);
    let n = s.read_ns.count();
    end_to_end.push(Metric::new(
        "op_p90_us",
        "us",
        s.read_ns.quantile(0.9) / 1e3,
        n,
    ));
    let mut detail = pass_medians(&passes);
    detail.extend([
        Metric::new("papi_read_ns", "ns", read_ns, n),
        Metric::new(
            "papi_start_stop_ns",
            "ns",
            s.start_stop_ns.quantile(0.5),
            s.start_stop_ns.count(),
        ),
    ]);
    let mut per_layer = Vec::new();
    if run.traced {
        let ratios = {
            let k = st.kernel.lock();
            kernel_ratios(k.plan_cache_stats(), k.macro_stats())
        };
        let (tick_us, tick_n) = layer_median(tr, "simos.tick", 1e3);
        let read = tr.layer("papi.read");
        let traced_read_ns = read.ns_per_op.quantile(0.5);
        per_layer.extend([
            Metric::new("tick_us", "us", tick_us, tick_n),
            Metric::new(
                "sim_ticks",
                "count",
                ROUNDS_PER_PASS as f64,
                passes.traced.len(),
            ),
        ]);
        per_layer.extend(ratios);
        per_layer.extend([Metric::new(
            "op_p99_us",
            "us",
            read.ns_per_op.quantile(0.99) / 1e3,
            read.ns_per_op.count(),
        )]);
        per_layer.extend(trace_metrics(&passes, tr));
        let (group_ns, group_n) = layer_median(tr, "probe.read_group", 1.0);
        let (reset_ns, reset_n) = layer_median(tr, "papi.reset", 1.0);
        let (fast_ns, fast_n) = layer_median(tr, "papi.read_fast", 1.0);
        let groups = st.groups.len() as f64;
        detail.extend([
            Metric::new("perf_read_group_ns", "ns", group_ns, group_n),
            Metric::new(
                "papi_overhead_ns",
                "ns",
                traced_read_ns - groups * group_ns,
                read.ns_per_op.count(),
            ),
            Metric::new(
                "syscalls_per_read",
                "count",
                s.syscalls as f64 / s.reads.max(1) as f64,
                s.reads as usize,
            ),
            Metric::new(
                "sim_read_latency_ns",
                "ns",
                s.sim_latency_ns as f64 / s.reads.max(1) as f64,
                s.reads as usize,
            ),
            Metric::new("papi_reset_ns", "ns", reset_ns, reset_n),
            Metric::new("papi_read_fast_ns", "ns", fast_ns, fast_n),
            Metric::new(
                "papi_read_p99_ns",
                "ns",
                read.ns_per_op.quantile(0.99),
                read.ns_per_op.count(),
            ),
        ]);
    }
    Measured {
        end_to_end,
        per_layer,
        detail,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_row_trips_the_ground_truth_check() {
        let (base, now) = ([100, 50], [1_100, 550]);
        let mut ops = Ops::default();
        assert!(check_rows(&mut ops, [1_000, 500], base, now));
        assert!(!check_rows(&mut ops, [1_000, 501], base, now));
        assert!(
            !check_rows(&mut ops, [500, 1_000], base, now),
            "swapped rows"
        );
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }
}
