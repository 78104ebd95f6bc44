//! Cross-path agreement for the PAPI read path.
//!
//! `Papi::read`, `read_into`, `read_with_quality` and `accum` share one
//! implementation: one `Kernel::read_group_into` per group leader into a
//! reused row buffer, unwrapped against the wrap base held on each native
//! event. Each of them is checked here, value for value and quality for
//! quality, against a reference rebuilt independently from
//! `Kernel::read_group` plus the unwrap/scale rules documented on the
//! library's `entry_value`. The faults are seeded: transient read failures
//! inside and beyond `TRANSIENT_RETRY_BUDGET`, an armed 48-bit wrap bias
//! on every core counter, and NMI-watchdog theft of the fixed
//! instructions counter that forces the multiplex fallback.

use papi::{Attach, EventSetId, Papi, PapiConfig, ReadQuality, TRANSIENT_RETRY_BUDGET};
use simcpu::events::ArchEvent;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::pmu::COUNTER_MASK;
use simcpu::types::CpuMask;
use simos::faults::{FaultKind, FaultPlan, TransientErrno};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::perf::ReadValue;
use simos::task::{Op, Pid, ScriptedProgram};

const P_CPU: usize = 0;
const E_CPU: usize = 16;
/// Attempts one group read gets before it counts as failed.
const ATTEMPTS: u32 = TRANSIENT_RETRY_BUDGET + 1;

/// The faults in force at a checkpoint: a wrap bias on every core counter
/// opened (counters start at most 2 M counts below the 48-bit limit),
/// optionally NMI theft of the fixed instructions counter, and the next
/// `read_failures` read syscalls failing with EBUSY. Installing a plan
/// applies its time-0 faults at once, so re-installing it before each
/// read path gives every path the same fault state.
fn plan(theft: bool, read_failures: u32) -> FaultPlan {
    let mut p = FaultPlan::new(23).at(
        0,
        FaultKind::CounterWrap {
            headroom: 2_000_000,
        },
    );
    if theft {
        p = p.at(
            0,
            FaultKind::NmiWatchdog {
                steal: ArchEvent::Instructions,
                hold_ns: None,
            },
        );
    }
    if read_failures > 0 {
        p = p.at(
            0,
            FaultKind::TransientRead {
                errno: TransientErrno::Ebusy,
                count: read_failures,
            },
        );
    }
    p
}

/// What a read must return, rebuilt without the library's read path.
struct Expected {
    /// Per entry, in add order.
    values: Vec<(u64, ReadQuality)>,
    /// Some group failed every attempt (strict reads must error).
    failed: bool,
    /// Some core counter had wrapped past its base.
    wrapped: bool,
}

fn reference(kernel: &KernelHandle, papi: &Papi, es: EventSetId) -> Expected {
    let set = papi.eventset(es).unwrap();
    let mut rows: Vec<ReadValue> = Vec::new();
    let mut failed = false;
    {
        let mut k = kernel.lock();
        for &leader in &set.group_leaders {
            let mut attempt = 1;
            loop {
                match k.read_group(leader) {
                    Ok(group) => {
                        rows.extend(group);
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_transient(), "unexpected hard error {e}");
                        if attempt == ATTEMPTS {
                            failed = true;
                            break;
                        }
                        attempt += 1;
                    }
                }
            }
        }
    }
    let mut wrapped = false;
    let values = set
        .entries
        .iter()
        .map(|entry| {
            let mut total = 0u64;
            let mut quality = ReadQuality::Ok;
            for &ni in &entry.native_indices {
                let native = &set.natives[ni];
                let fd = native.fd.expect("a started EventSet has every fd open");
                let Some(rv) = rows.iter().find(|r| r.fd == fd) else {
                    quality = quality.max(ReadQuality::Lost);
                    continue;
                };
                let delta = match native.wrap_base {
                    Some(base) => {
                        wrapped |= rv.value < base;
                        rv.value.wrapping_sub(base) & COUNTER_MASK
                    }
                    None => rv.value,
                };
                if rv.time_running == 0 {
                    if rv.time_matched > 0 {
                        quality = quality.max(ReadQuality::Lost);
                    }
                } else if rv.time_running < rv.time_matched {
                    let scaled = delta as f64 * rv.time_matched as f64 / rv.time_running as f64;
                    total += scaled as u64;
                    quality = quality.max(ReadQuality::Scaled);
                } else {
                    total += delta;
                }
            }
            (total, quality)
        })
        .collect();
    Expected {
        values,
        failed,
        wrapped,
    }
}

/// What the checkpoints of one scenario saw, for its non-vacuity asserts.
#[derive(Default)]
struct Seen {
    wrapped: bool,
    scaled: bool,
    lost: bool,
    strict_failures: usize,
}

/// Run every read path at one checkpoint with `read_failures` armed
/// before each, and compare it with the reference. Returns whether
/// `accum` succeeded (and so reset the counters).
fn check_paths(
    kernel: &KernelHandle,
    papi: &mut Papi,
    es: EventSetId,
    theft: bool,
    read_failures: u32,
    seen: &mut Seen,
) -> bool {
    let arm = || kernel.lock().install_faults(&plan(theft, read_failures));
    let ctx = format!("{read_failures} armed read failures");
    arm();
    let want = reference(kernel, papi, es);
    let n = want.values.len();
    let values: Vec<u64> = want.values.iter().map(|v| v.0).collect();
    seen.wrapped |= want.wrapped;
    seen.scaled |= want.values.iter().any(|v| v.1 == ReadQuality::Scaled);
    seen.lost |= want.values.iter().any(|v| v.1 == ReadQuality::Lost);
    seen.strict_failures += usize::from(want.failed);

    arm();
    let mut into = vec![u64::MAX; n];
    match papi.read_into(es, &mut into) {
        Ok(()) => {
            assert!(!want.failed, "read_into succeeded past the budget ({ctx})");
            assert_eq!(into, values, "read_into ({ctx})");
        }
        Err(e) => assert!(want.failed && e.is_transient(), "read_into: {e} ({ctx})"),
    }

    arm();
    match papi.read(es) {
        Ok(v) => {
            assert!(!want.failed, "read succeeded past the budget ({ctx})");
            let got: Vec<u64> = v.iter().map(|(_, x)| *x).collect();
            assert_eq!(got, values, "read ({ctx})");
            assert_eq!(
                v.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>(),
                papi.event_labels(es).unwrap()
            );
        }
        Err(e) => assert!(want.failed && e.is_transient(), "read: {e} ({ctx})"),
    }

    arm();
    let q = papi
        .read_with_quality(es)
        .expect("read_with_quality degrades");
    let got: Vec<(u64, ReadQuality)> = q.iter().map(|(_, v, qq)| (*v, *qq)).collect();
    assert_eq!(got, want.values, "read_with_quality ({ctx})");

    arm();
    let before: Vec<u64> = (1..=n as u64).collect();
    let mut acc = before.clone();
    let ok = match papi.accum(es, &mut acc) {
        Ok(()) => {
            assert!(!want.failed, "accum succeeded past the budget ({ctx})");
            let sum: Vec<u64> = before.iter().zip(&values).map(|(a, v)| a + v).collect();
            assert_eq!(acc, sum, "accum ({ctx})");
            true
        }
        Err(e) => {
            assert!(want.failed && e.is_transient(), "accum: {e} ({ctx})");
            assert_eq!(
                acc, before,
                "a failed accum must not touch its array ({ctx})"
            );
            false
        }
    };
    kernel.lock().install_faults(&plan(theft, 0));
    ok
}

/// Boot raptor with the wrap fault (and theft) in force, spawn one
/// endless compute task on a P core, and start an EventSet of `events`.
fn setup(theft: bool, events: &[&str]) -> (KernelHandle, Papi, EventSetId, Pid) {
    let kernel = Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
    kernel.lock().install_faults(&plan(theft, 0));
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
    .unwrap();
    let es = papi.create_eventset();
    papi.attach(es, Attach::Task(pid)).unwrap();
    for ev in events {
        papi.add_named(es, ev).unwrap();
    }
    papi.start(es).unwrap();
    (kernel, papi, es, pid)
}

/// Failure counts to arm: none, inside the budget, exactly one group
/// lost, groups lost with the next absorbing some retries, every group
/// lost.
fn failure_counts(groups: u32) -> [u32; 5] {
    [
        0,
        ATTEMPTS - 1,
        ATTEMPTS,
        2 * ATTEMPTS + 3,
        groups * ATTEMPTS,
    ]
}

/// Tick, moving the task P → E → P so both core-type rows count.
fn advance(kernel: &KernelHandle, pid: Pid, step: usize) {
    let cpu = if (2..4).contains(&step) { E_CPU } else { P_CPU };
    let mut k = kernel.lock();
    k.set_affinity(pid, CpuMask::from_cpus([cpu])).unwrap();
    for _ in 0..3 {
        k.tick();
    }
}

#[test]
fn read_paths_agree_under_transient_failures_and_wrap() {
    let (kernel, mut papi, es, pid) = setup(
        false,
        &[
            "adl_glc::INST_RETIRED:ANY",
            "adl_grt::INST_RETIRED:ANY",
            "rapl::RAPL_ENERGY_PKG",
        ],
    );
    assert_eq!(papi.num_groups(es).unwrap(), 3, "the §V.5 P + E + RAPL set");
    let truth = |k: &KernelHandle| {
        let t = k.lock().task_stats(pid).unwrap().instructions_by_type;
        [t[0], t[1]]
    };
    let mut base = truth(&kernel);
    let mut seen = Seen::default();
    for step in 0..6 {
        advance(&kernel, pid, step);
        for n in failure_counts(3) {
            // Independent of the stored wrap bases: the unwrapped core
            // rows equal the scheduler's per-core-type instructions since
            // the last successful accum (which resets).
            kernel.lock().install_faults(&plan(false, 0));
            let want = reference(&kernel, &papi, es);
            let now = truth(&kernel);
            for (row, core) in [(0, 0), (1, 1)] {
                assert_eq!(want.values[row].1, ReadQuality::Ok);
                assert_eq!(want.values[row].0, now[core] - base[core], "step {step}");
            }
            if check_paths(&kernel, &mut papi, es, false, n, &mut seen) {
                base = now;
            }
        }
    }
    assert!(
        seen.wrapped,
        "no core counter wrapped: the unwrap went untested"
    );
    assert!(seen.lost, "no group was lost past the retry budget");
    assert!(seen.strict_failures > 0);
    let stats = truth(&kernel);
    assert!(
        stats[0] > 0 && stats[1] > 0,
        "both core types ran: {stats:?}"
    );
}

#[test]
fn read_paths_agree_after_theft_forces_multiplexing() {
    let mut events = vec!["adl_glc::INST_RETIRED:ANY"];
    events.extend(["adl_glc::BR_INST_RETIRED:ALL_BRANCHES"; 8]);
    events.extend(["adl_grt::INST_RETIRED:ANY", "rapl::RAPL_ENERGY_PKG"]);
    let (kernel, mut papi, es, pid) = setup(true, &events);
    // Nine P-core events with the fixed instructions counter stolen need
    // nine of eight GP counters: start() re-opens every event alone.
    assert_eq!(papi.num_groups(es).unwrap(), events.len());
    let mut seen = Seen::default();
    for step in 0..6 {
        advance(&kernel, pid, step);
        for n in failure_counts(events.len() as u32) {
            check_paths(&kernel, &mut papi, es, true, n, &mut seen);
        }
    }
    assert!(seen.scaled, "no multiplexed value was scaled");
    assert!(seen.wrapped, "no core counter wrapped");
    assert!(seen.lost && seen.strict_failures > 0);
}
