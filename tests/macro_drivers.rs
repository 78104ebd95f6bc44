//! Every run-until-done driver fast-forwards quiescent spans through
//! `Kernel::tick_batch` or `Kernel::run_to_completion`. Each driver must
//! stay bit-identical to its single-tick reference (`MacroTicks::Off`),
//! across task exits, a deadline that ends inside a span, and a CPU
//! hotplugged mid-run. Every `Auto` run must also have replayed ticks, so
//! no comparison can pass vacuously.

use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::power::RaplDomain;
use simcpu::types::{CpuId, CpuMask};
use simos::kernel::{ExecMode, Kernel, KernelConfig, KernelHandle, MacroTicks};
use simos::task::ScriptedProgram;
use simos::{FaultKind, FaultPlan, Op, Pid, SchedName};
use telemetry::{monitored_hpl_run, DriverConfig, MonitoredRun};
use workloads::hpl::{run_to_completion, spawn_hpl_free, HplConfig, HplTuning, HplVariant};
use workloads::tournament::{orangepi_scenario, raptor_scenario, Scenario};

const SEED: u64 = 0x5eed_cafe;

fn config(macro_ticks: MacroTicks, tick_ns: u64, sched: SchedName) -> KernelConfig {
    KernelConfig {
        tick_ns,
        sched,
        seed: SEED,
        exec_mode: ExecMode::Serial,
        macro_ticks,
        ..Default::default()
    }
}

/// What a run leaves in the kernel, as bits: simulated time, tick count,
/// every task's stats and the RAPL energy ledger.
fn kernel_bits(k: &Kernel) -> Vec<u64> {
    let mut v = vec![k.time_ns(), k.macro_stats().1];
    let mut pid = 0;
    while let Some(s) = k.task_stats(Pid(pid)) {
        v.extend([
            s.instructions,
            s.cycles,
            s.runtime_ns,
            s.flops.to_bits(),
            s.migrations,
            s.core_type_migrations,
            s.page_faults,
        ]);
        v.extend(s.instructions_by_type);
        v.extend(s.runtime_ns_by_type);
        pid += 1;
    }
    assert!(pid > 0, "no task was spawned");
    for dom in [
        RaplDomain::Package,
        RaplDomain::Cores,
        RaplDomain::Dram,
        RaplDomain::Psys,
    ] {
        v.push(k.machine().energy_uj(dom));
    }
    v
}

/// Runs `drive` once per mode on identically booted kernels and asserts
/// bit equality of what it returns plus [`kernel_bits`]. Returns the
/// `Auto` run's `(replayed, total)` ticks.
fn off_equals_auto<T: PartialEq + std::fmt::Debug>(
    what: &str,
    drive: impl Fn(MacroTicks) -> (T, KernelHandle),
) -> (u64, u64) {
    let (off, k_off) = drive(MacroTicks::Off);
    let (auto, k_auto) = drive(MacroTicks::Auto);
    let (k_off, k_auto) = (k_off.lock(), k_auto.lock());
    assert_eq!(k_off.macro_stats().0, 0, "{what}: Off replayed ticks");
    assert_eq!(off, auto, "{what}: driver output differs");
    assert_eq!(kernel_bits(&k_off), kernel_bits(&k_auto), "{what}: kernel");
    // `thermal` never certifies a span: temperature keeps evolving under
    // a frozen assignment. Every other run must have replayed ticks.
    let stats = k_auto.macro_stats();
    let replays = k_auto.config().sched != SchedName::Thermal;
    assert_eq!(stats.0 > 0, replays, "{what}: Auto replayed {stats:?}");
    stats
}

/// Every field of a [`MonitoredRun`], poller samples included, as bits.
fn run_bits(r: &MonitoredRun) -> Vec<u64> {
    let mut v = vec![
        r.gflops.map_or(u64::MAX, f64::to_bits),
        r.flops.to_bits(),
        r.wall_s.to_bits(),
        r.trace.interval_ns,
        r.trace.missed as u64,
        r.trace.samples.len() as u64,
    ];
    v.extend(r.instructions_by_type);
    for s in &r.trace.samples {
        v.push(s.t_s.to_bits());
        v.extend(&s.freq_khz);
        v.push(s.temp_mc as u64);
        let (pkg, cores, dram) = s.rapl_uj.unwrap_or((u64::MAX, u64::MAX, u64::MAX));
        v.extend([pkg, cores, dram, s.meter_w.to_bits()]);
    }
    v
}

/// A CPU that goes offline at `at_ns` and comes back `down_ns` later.
fn hotplug(cpu: usize, at_ns: u64, down_ns: u64) -> FaultPlan {
    FaultPlan::new(7).at(
        at_ns,
        FaultKind::CpuOffline {
            cpu: CpuId(cpu),
            down_ns: Some(down_ns),
        },
    )
}

/// One scaled paper cell for `monitored_hpl_run`.
struct Cell {
    label: &'static str,
    spec: fn() -> MachineSpec,
    cpus: &'static str,
    variant: HplVariant,
    n: u64,
    faults: Option<FaultPlan>,
}

/// `telemetry::monitored_hpl_run` on scaled versions of the paper's
/// Raptor Lake P+E cells (both HPL builds) and the OrangePi all-6 cell,
/// the first with a P core hotplugged mid-solve.
#[test]
fn monitored_hpl_run_is_bit_identical_with_macro_ticks() {
    const RAPTOR_PE: &str = "0,2,4,6,8,10,12,14,16-23";
    let cells = [
        Cell {
            label: "raptor P+E OpenBLAS",
            spec: MachineSpec::raptor_lake_i7_13700,
            cpus: RAPTOR_PE,
            variant: HplVariant::OpenBlas,
            n: 6912,
            faults: Some(hotplug(4, 300_000_000, 100_000_000)),
        },
        Cell {
            label: "raptor P+E Intel",
            spec: MachineSpec::raptor_lake_i7_13700,
            cpus: RAPTOR_PE,
            variant: HplVariant::IntelMkl,
            n: 6912,
            faults: None,
        },
        Cell {
            label: "orangepi all-6 OpenBLAS",
            spec: MachineSpec::orangepi_800,
            cpus: "0-5",
            variant: HplVariant::OpenBlas,
            n: 2304,
            faults: None,
        },
    ];
    let driver = DriverConfig {
        n_runs: 1,
        // Several samples per run, and batches of 25 ticks between polls.
        poll_interval_ns: 20_000_000,
        ..Default::default()
    };
    for cell in cells {
        let label = cell.label;
        let cfg = HplConfig {
            n: cell.n,
            nb: 192,
            p: 1,
            q: 1,
        };
        let (replayed, total) = off_equals_auto(label, |macro_ticks| {
            let kernel = Kernel::boot_handle(
                (cell.spec)(),
                config(macro_ticks, 200_000, SchedName::default()),
            );
            if let Some(plan) = &cell.faults {
                kernel.lock().install_faults(plan);
            }
            let cpus = CpuMask::parse_cpulist(cell.cpus).unwrap();
            let run = monitored_hpl_run(&kernel, &cfg, cell.variant, cpus, &driver, 0);
            assert!(run.gflops.is_some(), "{label}: run finished");
            assert!(run.trace.samples.len() > 2, "{label}: poller sampled");
            let log = kernel.lock().fault_log().to_vec();
            assert_eq!(
                log.iter().any(|r| r.desc.contains("offline")),
                cell.faults.is_some(),
                "{label}: hotplug fired: {log:?}"
            );
            ((run_bits(&run), log), kernel)
        });
        eprintln!("{label}: {replayed}/{total} ticks replayed");
    }
}

/// `workloads::hpl::run_to_completion` under three schedulers whose
/// `Scheduler::quiescent` answers differ, on the tournament scenarios
/// (each with a CPU hotplugged mid-solve), plus one run that times out.
#[test]
fn hpl_run_to_completion_is_bit_identical_with_macro_ticks() {
    let run = |sc: &Scenario, sched: SchedName, max_ns: u64| {
        let what = format!("{}/{}", sc.name, sched.as_str());
        off_equals_auto(&what, |macro_ticks| {
            let kernel =
                Kernel::boot_handle((sc.machine)(), config(macro_ticks, sc.tick_ns, sched));
            if let Some(t) = sc.start_temp_c {
                kernel.lock().settle_temperature(t);
            }
            if let Some(plan) = &sc.faults {
                kernel.lock().install_faults(plan);
            }
            let run = spawn_hpl_free(
                &kernel,
                sc.hpl.clone(),
                HplVariant::OpenBlas,
                HplTuning::default(),
                sc.cpus,
                sc.nthreads,
            );
            let gflops = run_to_completion(&kernel, &run, max_ns);
            let log = kernel.lock().fault_log().to_vec();
            assert!(
                log.iter().any(|r| r.desc.contains("offline")),
                "{what}: hotplug fired: {log:?}"
            );
            ((gflops.map(f64::to_bits), log), kernel)
        })
    };
    let raptor = raptor_scenario(8);
    let orangepi = orangepi_scenario(4);
    for (sc, sched) in [
        (&raptor, SchedName::Cfs),
        (&raptor, SchedName::Capacity),
        (&orangepi, SchedName::Thermal),
    ] {
        let (replayed, total) = run(sc, sched, sc.max_ns);
        eprintln!("{}/{}: {replayed}/{total}", sc.name, sched.as_str());
    }
    // Timed out: the deadline lands between two 256-tick batches.
    let (_, total) = run(&orangepi, SchedName::Cfs, 2_500_000_000);
    assert_eq!(
        total, 12_544,
        "stopped at the first batch past the deadline"
    );
}

/// `Kernel::run_to_completion`: tasks that exit at different times on a
/// machine that loses a CPU mid-run, and a deadline that ends inside a
/// quiescent span.
#[test]
fn kernel_run_to_completion_is_bit_identical_with_macro_ticks() {
    let boot = |macro_ticks: MacroTicks| {
        let kernel = Kernel::boot_handle(
            MachineSpec::skylake_quad(),
            config(macro_ticks, 1_000_000, SchedName::default()),
        );
        let mut k = kernel.lock();
        for (i, (cpus, inst)) in [
            (&[0][..], 9_000_000_000u64),
            (&[1, 3][..], 6_000_000_000),
            (&[2][..], 4_000_000_000),
        ]
        .into_iter()
        .enumerate()
        {
            k.spawn(
                &format!("w{i}"),
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(inst)),
                    Op::Compute(Phase::scalar(inst / 3)),
                ])),
                CpuMask::from_cpus(cpus.iter().copied()),
                0,
            );
        }
        k.install_faults(&hotplug(1, 400_000_000, 100_000_000));
        drop(k);
        kernel
    };
    let run = |max_ns: u64| {
        move |macro_ticks| {
            let kernel = boot(macro_ticks);
            let mut k = kernel.lock();
            k.run_to_completion(max_ns);
            let out = (k.all_exited(), k.fault_log().to_vec());
            drop(k);
            (out, kernel)
        }
    };
    // To completion: the run stops on the tick the last task exits.
    let (_, total) = off_equals_auto("to completion", run(10_000_000_000));
    // A deadline well inside the run.
    let deadline = total / 2 * 1_000_000;
    let (replayed, total_d) = off_equals_auto("deadline", run(deadline));
    assert_eq!(total_d, total / 2, "stopped at the deadline");
    // One tick more replays one tick more: the span that reached the
    // deadline was cut short by it, not by its own end.
    let (replayed_next, _) = off_equals_auto("deadline + 1 tick", run(deadline + 1_000_000));
    assert_eq!(replayed_next, replayed + 1, "deadline falls inside a span");
}
