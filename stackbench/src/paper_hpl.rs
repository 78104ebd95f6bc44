//! `paper_hpl`: the paper-regeneration path.
//!
//! One pass runs three cells on fresh machines through
//! `telemetry::monitored_hpl_run`, the function every table and figure
//! binary calls: the Raptor Lake Table II P+E cell with each HPL variant,
//! and the OrangePi Fig. 4 all-6 cell. A traced pass runs the same cells
//! through a copy of that function's loop with a span around each layer
//! call, and reads a hybrid PAPI EventSet at every poll. Both kinds of
//! pass must reproduce the pinned Gflops, tick counts and per-core-type
//! instruction totals bit for bit.
//!
//! Only traced passes read the EventSet: `monitored_hpl_run` has no
//! per-poll hook, and an untraced pass calls it unchanged. So `run_s` and
//! `op_p90_us` leave the PAPI reads out, and `trace_overhead` counts the
//! EventSet's set-up and reads as well as the spans.

use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::{
    kernel_config, kernel_ratios, layer_median, measure, pass_medians, pass_metrics, trace_metrics,
};
use crate::{Measured, Metric, Ops, Run, Step};
use papi::{Attach, EventSetId, Papi, PapiConfig};
use simcpu::machine::MachineSpec;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelHandle};
use simos::task::Pid;
use telemetry::{monitored_hpl_run, settle, DriverConfig, Poller};
use workloads::hpl::{spawn_hpl, HplConfig, HplVariant};

pub const WHY: &str = "the tick pipeline does nearly all the work (simcpu exec, single simos \
ticks, HPL programs) on 24 Raptor Lake CPUs and on 6 thermally throttled OrangePi CPUs; \
metricsd does none";

/// The figure binaries' tick (`TICK_NS` default).
const TICK_NS: u64 = 200_000;

/// What a cell must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    pub gflops: f64,
    pub ticks: u64,
    /// `[Performance, Efficiency, Mid, Uniform]`.
    pub instructions_by_type: [u64; 4],
}

pub struct Cell {
    pub label: &'static str,
    spec: fn() -> MachineSpec,
    cpus: &'static str,
    variant: HplVariant,
    hpl: fn() -> HplConfig,
    /// The two core-PMU events of the hybrid EventSet, in
    /// `[Performance, Efficiency]` order.
    events: [&'static str; 2],
    pub expect: Expect,
}

fn raptor_hpl() -> HplConfig {
    HplConfig::scaled(3)
}

/// Fig. 4's OrangePi size (β approach, 80 % of 4 GB) at half N.
fn opi_hpl() -> HplConfig {
    HplConfig {
        n: (HplConfig::n_for_memory_fraction(4, 0.80) / 2).max(192 * 4),
        nb: 192,
        p: 1,
        q: 1,
    }
}

const RAPTOR_PE: &str = "0,2,4,6,8,10,12,14,16-23";
const RAPTOR_EVENTS: [&str; 2] = ["adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY"];

pub const CELLS: [Cell; 3] = [
    Cell {
        label: "raptor P+E OpenBLAS",
        spec: MachineSpec::raptor_lake_i7_13700,
        cpus: RAPTOR_PE,
        variant: HplVariant::OpenBlas,
        hpl: raptor_hpl,
        events: RAPTOR_EVENTS,
        expect: Expect {
            gflops: 372.41464735624703,
            ticks: 61_952,
            instructions_by_type: [2_022_225_768_192, 754_341_768_192, 0, 0],
        },
    },
    Cell {
        label: "raptor P+E Intel",
        spec: MachineSpec::raptor_lake_i7_13700,
        cpus: RAPTOR_PE,
        variant: HplVariant::IntelMkl,
        hpl: raptor_hpl,
        events: RAPTOR_EVENTS,
        expect: Expect {
            gflops: 652.9470475564682,
            ticks: 35_328,
            instructions_by_type: [988_078_075_904, 342_697_652_224, 0, 0],
        },
    },
    Cell {
        label: "orangepi all-6 OpenBLAS",
        spec: MachineSpec::orangepi_800,
        cpus: "0-5",
        variant: HplVariant::OpenBlas,
        hpl: opi_hpl,
        events: ["arm_ac72::INST_RETIRED", "arm_ac53::INST_RETIRED"],
        expect: Expect {
            gflops: 15.421915967415373,
            ticks: 239_616,
            instructions_by_type: [364_387_892_066, 167_119_784_132, 0, 0],
        },
    },
];

fn driver() -> DriverConfig {
    DriverConfig {
        n_runs: 1,
        settle_temp_c: 35.0,
        poll_interval_ns: 1_000_000_000,
        max_run_ns: 3_600_000_000_000,
        fast_settle: true,
    }
}

/// One cell's outputs.
#[derive(Debug, Clone, Copy)]
pub struct CellOut {
    pub got: Expect,
    /// Host seconds inside the HPL run (boot excluded).
    pub run_s: f64,
    pub plan: (u64, u64),
    pub macro_ticks: (u64, u64),
}

fn boot(cell: &Cell, seed: u64) -> KernelHandle {
    Kernel::boot_handle((cell.spec)(), kernel_config(seed, TICK_NS))
}

/// The cell as the figure binaries run it.
fn run_plain(cell: &Cell, kernel: &KernelHandle) -> CellOut {
    let cpus = CpuMask::parse_cpulist(cell.cpus).expect("valid cpulist");
    let t = std::time::Instant::now();
    let r = monitored_hpl_run(kernel, &(cell.hpl)(), cell.variant, cpus, &driver(), 0);
    let run_s = t.elapsed().as_secs_f64();
    finish(kernel, r.gflops, r.instructions_by_type, run_s)
}

fn finish(kernel: &KernelHandle, gflops: Option<f64>, by_type: [u64; 4], run_s: f64) -> CellOut {
    let k = kernel.lock();
    let macro_ticks = k.macro_stats();
    CellOut {
        got: Expect {
            gflops: gflops.unwrap_or(f64::NAN),
            ticks: macro_ticks.1,
            instructions_by_type: by_type,
        },
        run_s,
        plan: k.plan_cache_stats(),
        macro_ticks,
    }
}

/// PAPI on `kernel` with the cell's hybrid EventSet attached to `pid` and
/// started; `None` (with the failure counted) if any step fails.
fn hybrid_eventset(
    cell: &Cell,
    kernel: &KernelHandle,
    pid: Pid,
    ops: &mut Ops,
) -> Option<(Papi, EventSetId)> {
    let mut papi = Papi::init_with(
        kernel.clone(),
        PapiConfig {
            // No measurement-library instructions injected into the task:
            // the traced pass must simulate exactly what the plain one does.
            overhead_instructions: 0,
            ..Default::default()
        },
    )
    .expect("PAPI initializes on a freshly booted kernel");
    let es = papi.create_eventset();
    ops.result(papi.attach(es, Attach::Task(pid)), "PAPI_attach")?;
    for ev in cell.events {
        ops.result(papi.add_named(es, ev), ev)?;
    }
    ops.result(papi.start(es), "PAPI_start")?;
    Some((papi, es))
}

/// `monitored_hpl_run`'s loop with a span around each layer call and a
/// hybrid PAPI read at every poll. Any change to the simulation it makes
/// shows as a failed pinned-output check.
fn run_traced(cell: &Cell, kernel: &KernelHandle, tr: &mut Tracer, ops: &mut Ops) -> CellOut {
    let cpus = CpuMask::parse_cpulist(cell.cpus).expect("valid cpulist");
    let d = driver();
    let t = std::time::Instant::now();
    settle(kernel, d.settle_temp_c, d.fast_settle);
    let t0 = kernel.lock().time_ns();
    tr.begin("workloads.spawn_hpl");
    let run = spawn_hpl(kernel, (cell.hpl)(), cell.variant, cpus);
    tr.end("workloads.spawn_hpl", 1);

    tr.begin("papi.setup");
    let watched = run.pids[0];
    let mut hybrid = hybrid_eventset(cell, kernel, watched, ops);
    tr.end("papi.setup", 1);

    let mut poller = Poller::new(kernel.clone(), d.poll_interval_ns);
    let deadline = t0 + d.max_run_ns;
    let batch = {
        let tick = kernel.lock().config().tick_ns.max(1);
        ((d.poll_interval_ns / tick / 4).max(1) as usize).min(256)
    };
    loop {
        {
            let mut k = kernel.lock();
            if k.time_ns() >= deadline {
                break;
            }
            tr.begin("simos.tick");
            for _ in 0..batch {
                k.tick();
            }
            tr.end("simos.tick", batch as u64);
        }
        let polled = poller.trace.samples.len();
        tr.begin("telemetry.poll");
        poller.poll();
        tr.end("telemetry.poll", 1);
        if let (Some((papi, es)), true) = (hybrid.as_mut(), poller.trace.samples.len() > polled) {
            tr.begin("papi.read");
            let r = papi.read(*es);
            tr.end("papi.read", 1);
            ops.result(r, "PAPI_read at poll");
        }
        if run.finished() {
            break;
        }
    }
    let mut by_type = [0u64; 4];
    {
        let k = kernel.lock();
        for &pid in &run.pids {
            if let Some(st) = k.task_stats(pid) {
                for (slot, v) in by_type.iter_mut().zip(st.instructions_by_type) {
                    *slot += v;
                }
            }
        }
    }
    let run_s = t.elapsed().as_secs_f64();
    if let Some((mut papi, es)) = hybrid {
        // The hybrid EventSet's rows split the watched rank's instructions
        // by core type exactly as the scheduler's ground truth does.
        if let Some(v) = ops.result(papi.stop(es), "PAPI_stop") {
            let truth = kernel
                .lock()
                .task_stats(watched)
                .map(|s| s.instructions_by_type);
            let rows = [v[0].1, v[1].1];
            ops.check(truth.map(|t| [t[0], t[1]]) == Some(rows), || {
                format!("{}: PAPI rows {rows:?} != task_stats {truth:?}", cell.label)
            });
        }
    }
    finish(kernel, run.gflops(), by_type, run_s)
}

/// Compare a cell's outputs with its pinned values (bit-exact Gflops).
pub fn check_cell(ops: &mut Ops, label: &str, want: &Expect, got: &Expect) {
    ops.check(got.gflops.to_bits() == want.gflops.to_bits(), || {
        format!(
            "{label}: Gflops {:?} != pinned {:?}",
            got.gflops, want.gflops
        )
    });
    ops.check(got.ticks == want.ticks, || {
        format!("{label}: {} ticks != pinned {}", got.ticks, want.ticks)
    });
    ops.check(
        got.instructions_by_type == want.instructions_by_type,
        || {
            format!(
                "{label}: instructions by type {:?} != pinned {:?}",
                got.instructions_by_type, want.instructions_by_type
            )
        },
    );
}

pub fn run(run: &Run, tr: &mut Tracer) -> Measured {
    let mut ops = Ops::default();
    // The seed sets the kernel seed and the order of the cells in each
    // pass; the cells themselves are the paper's.
    let mut rng = Rng::new(run.seed);
    let mut us_per_tick = Vec::new();
    let mut ticks_per_s = Vec::new();
    let mut sim_ticks = Vec::new();
    let (mut plan, mut macro_ticks) = ((0u64, 0u64), (0u64, 0u64));
    let passes = measure(run, tr, |tr, step| {
        if step == Step::Setup {
            // Each cell's machine ready to run: booted, settled, HPL
            // spawned and the hybrid EventSet started.
            for c in &CELLS {
                let kernel = boot(c, run.seed);
                settle(&kernel, 35.0, true);
                let cpus = CpuMask::parse_cpulist(c.cpus).expect("valid cpulist");
                let hpl = spawn_hpl(&kernel, (c.hpl)(), c.variant, cpus);
                hybrid_eventset(c, &kernel, hpl.pids[0], &mut ops);
            }
            return;
        }
        let mut order = [0usize, 1, 2];
        rng.shuffle(&mut order);
        let traced = tr.on();
        let (mut ticks, mut run_s) = (0u64, 0.0);
        for i in order {
            let cell = &CELLS[i];
            tr.begin("simos.boot");
            let kernel = boot(cell, run.seed);
            tr.end("simos.boot", 1);
            let out = if traced {
                run_traced(cell, &kernel, tr, &mut ops)
            } else {
                run_plain(cell, &kernel)
            };
            drop(kernel);
            check_cell(&mut ops, cell.label, &cell.expect, &out.got);
            if !traced {
                us_per_tick.push(out.run_s * 1e6 / out.got.ticks.max(1) as f64);
            }
            ticks += out.got.ticks;
            run_s += out.run_s;
            plan = (plan.0 + out.plan.0, plan.1 + out.plan.1);
            macro_ticks = (
                macro_ticks.0 + out.macro_ticks.0,
                macro_ticks.1 + out.macro_ticks.1,
            );
        }
        if !traced {
            ticks_per_s.push(ticks as f64 / run_s);
        }
        sim_ticks.push(ticks as f64);
    });

    let mut end_to_end = pass_metrics(&passes);
    let n = us_per_tick.len();
    end_to_end.push(Metric::new(
        "op_p90_us",
        "us",
        quantile(&us_per_tick, 0.9),
        n,
    ));
    let mut per_layer = Vec::new();
    let mut detail = pass_medians(&passes);
    detail.extend([
        Metric::new(
            "ticks_per_s",
            "1/s",
            median(&ticks_per_s),
            ticks_per_s.len(),
        ),
        Metric::new("op_p50_us", "us", median(&us_per_tick), n),
    ]);
    if run.traced {
        let (tick_us, tick_n) = layer_median(tr, "simos.tick", 1e3);
        let (poll_us, poll_n) = layer_median(tr, "telemetry.poll", 1e3);
        let (read_ns, read_n) = layer_median(tr, "papi.read", 1.0);
        let l = tr.layer("simos.tick");
        per_layer.extend([
            Metric::new("tick_us", "us", tick_us, tick_n),
            Metric::new("sim_ticks", "count", median(&sim_ticks), sim_ticks.len()),
        ]);
        per_layer.extend(kernel_ratios(plan, macro_ticks));
        per_layer.extend([Metric::new(
            "op_p99_us",
            "us",
            l.ns_per_op.quantile(0.99) / 1e3,
            l.ns_per_op.count(),
        )]);
        per_layer.extend(trace_metrics(&passes, tr));
        detail.extend([
            Metric::new("poll_us", "us", poll_us, poll_n),
            Metric::new("papi_read_at_poll_ns", "ns", read_ns, read_n),
        ]);
    }
    detail.push(Metric::new(
        "sim_ticks_per_pass",
        "count",
        median(&sim_ticks),
        sim_ticks.len(),
    ));
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
    fn a_perturbed_pin_trips_each_check() {
        let want = CELLS[0].expect;
        let mut ops = Ops::default();
        check_cell(&mut ops, "same", &want, &want);
        assert_eq!((ops.attempted, ops.failed), (3, 0));
        let perturbed = [
            Expect {
                gflops: f64::from_bits(want.gflops.to_bits() + 1),
                ..want
            },
            Expect {
                ticks: want.ticks + 1,
                ..want
            },
            Expect {
                instructions_by_type: {
                    let mut t = want.instructions_by_type;
                    t[1] += 1;
                    t
                },
                ..want
            },
        ];
        for (i, p) in perturbed.iter().enumerate() {
            let mut ops = Ops::default();
            check_cell(&mut ops, "perturbed", p, &want);
            assert_eq!(
                ops.failed, 1,
                "perturbation {i} must trip exactly one check"
            );
        }
    }
}
