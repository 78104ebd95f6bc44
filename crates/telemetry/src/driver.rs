//! Multi-run orchestration: the artifact's T1 (acquire) → T2 (process)
//! pipeline.
//!
//! The paper's methodology: run the benchmark N times (N = 10), waiting
//! before each run for the package temperature to settle at 35 °C so
//! thermal history does not bias later runs, polling telemetry at 1 Hz
//! during each run, then aggregate the runs into an averaged trace.

use crate::poller::{Poller, Sample, Trace};
use simcpu::types::{CpuMask, Nanos};
use simos::kernel::KernelHandle;
use workloads::hpl::{spawn_hpl, HplConfig, HplRun, HplVariant};

/// Orchestration parameters (mirrors `mon_hpl.py`'s arguments).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// `--n_runs`.
    pub n_runs: u32,
    /// `--settled_temps` (the paper: x86_pkg_temp at 35 °C).
    pub settle_temp_c: f64,
    /// Poll interval (1 Hz in the paper).
    pub poll_interval_ns: Nanos,
    /// Per-run wall-clock cap (simulated).
    pub max_run_ns: Nanos,
    /// When true, cool-down is fast-forwarded instead of simulated tick
    /// by tick (equivalent end state; hours faster).
    pub fast_settle: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            n_runs: 10,
            settle_temp_c: 35.0,
            poll_interval_ns: 1_000_000_000,
            max_run_ns: 3_600_000_000_000,
            fast_settle: true,
        }
    }
}

/// One monitored run's outcome.
#[derive(Debug, Clone)]
pub struct MonitoredRun {
    pub run_idx: u32,
    pub trace: Trace,
    /// HPL figure of merit (None if the run timed out).
    pub gflops: Option<f64>,
    /// Total wall time including setup, seconds.
    pub wall_s: f64,
    /// Per-core-type instruction totals [P, E, Mid, Uniform].
    pub instructions_by_type: [u64; 4],
    /// Total FLOPs performed.
    pub flops: f64,
}

/// Wait (simulated) until the package cools to the settle temperature.
pub fn settle(kernel: &KernelHandle, temp_c: f64, fast: bool) {
    if fast {
        kernel.lock().settle_temperature(temp_c);
        return;
    }
    loop {
        let mut k = kernel.lock();
        if k.machine().thermal().temp_c() <= temp_c {
            return;
        }
        k.tick_batch(1024);
    }
}

/// Run one monitored HPL execution on an already-booted kernel.
pub fn monitored_hpl_run(
    kernel: &KernelHandle,
    cfg: &HplConfig,
    variant: HplVariant,
    cpus: CpuMask,
    driver: &DriverConfig,
    run_idx: u32,
) -> MonitoredRun {
    settle(kernel, driver.settle_temp_c, driver.fast_settle);
    let t0 = kernel.lock().time_ns();
    let run: HplRun = spawn_hpl(kernel, cfg.clone(), variant, cpus);
    let mut poller = Poller::new(kernel.clone(), driver.poll_interval_ns);
    let deadline = t0 + driver.max_run_ns;
    // Batch ticks per lock acquisition, but never so coarsely that the
    // poller undersamples its interval. Quiescent spans inside a batch
    // are fast-forwarded (`Kernel::tick_batch`).
    let batch = {
        let tick = kernel.lock().config().tick_ns.max(1);
        (driver.poll_interval_ns / tick / 4).clamp(1, 256)
    };
    loop {
        {
            let mut k = kernel.lock();
            if k.time_ns() >= deadline {
                break;
            }
            k.tick_batch(batch);
        }
        poller.poll();
        if run.finished() {
            break;
        }
    }
    let t1 = kernel.lock().time_ns();
    let mut by_type = [0u64; 4];
    let mut flops = 0.0;
    {
        let k = kernel.lock();
        for &pid in &run.pids {
            if let Some(st) = k.task_stats(pid) {
                for (slot, v) in by_type.iter_mut().zip(st.instructions_by_type) {
                    *slot += v;
                }
                flops += st.flops;
            }
        }
    }
    MonitoredRun {
        run_idx,
        trace: poller.trace,
        gflops: run.gflops(),
        wall_s: (t1 - t0) as f64 / 1e9,
        instructions_by_type: by_type,
        flops,
    }
}

/// The full T1 pipeline: N monitored runs on one machine, with settling
/// between runs. A fresh kernel per call keeps runs across *configurations*
/// independent; runs within a configuration share the machine, like the
/// paper's repeated runs on one desktop.
pub fn monitored_hpl_runs(
    kernel: &KernelHandle,
    cfg: &HplConfig,
    variant: HplVariant,
    cpus: CpuMask,
    driver: &DriverConfig,
) -> Vec<MonitoredRun> {
    (0..driver.n_runs)
        .map(|i| monitored_hpl_run(kernel, cfg, variant, cpus, driver, i))
        .collect()
}

/// Mean and sample standard deviation of the per-run Gflops — the paper
/// averages 10 runs; the spread says whether that was enough.
pub fn gflops_stats(runs: &[MonitoredRun]) -> Option<(f64, f64)> {
    let gfs: Vec<f64> = runs.iter().filter_map(|r| r.gflops).collect();
    if gfs.is_empty() {
        return None;
    }
    let mean = gfs.iter().sum::<f64>() / gfs.len() as f64;
    let var = if gfs.len() > 1 {
        gfs.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (gfs.len() - 1) as f64
    } else {
        0.0
    };
    Some((mean, var.sqrt()))
}

/// Aggregation failed — e.g. the acquire stage produced no runs at all
/// (every run CSV was missing or rejected), so there is nothing to average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// The input run set was empty.
    NoRuns,
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::NoRuns => write!(f, "no runs to aggregate"),
        }
    }
}

impl std::error::Error for AggregateError {}

/// Average raw per-run sample rows column-by-column, truncating to the
/// shortest run. The row-oriented core of T2, shared by `process_runs`.
///
/// Runs with zero rows are legal (the shared length is then zero); an
/// empty *run set* is not — that means the acquire stage produced nothing.
pub fn average_sample_rows(runs: &[Vec<Vec<f64>>]) -> Result<Vec<Vec<f64>>, AggregateError> {
    let min_len = runs
        .iter()
        .map(|r| r.len())
        .min()
        .ok_or(AggregateError::NoRuns)?;
    let mut avg: Vec<Vec<f64>> = Vec::with_capacity(min_len);
    for si in 0..min_len {
        let mut row = vec![0.0; runs[0][si].len()];
        for run in runs {
            for (c, v) in row.iter_mut().zip(&run[si]) {
                *c += v / runs.len() as f64;
            }
        }
        avg.push(row);
    }
    Ok(avg)
}

/// The T2 pipeline (`process_runs.py`): average several runs' traces into
/// one (truncated to the shortest), and average the scalar outcomes.
///
/// Errs (instead of panicking) when `runs` is empty — a timed-out or
/// fault-killed acquire stage can legitimately deliver zero runs.
pub fn average_runs(runs: &[MonitoredRun]) -> Result<MonitoredRun, AggregateError> {
    let min_len = runs
        .iter()
        .map(|r| r.trace.samples.len())
        .min()
        .ok_or(AggregateError::NoRuns)?;
    let interval = runs[0].trace.interval_ns;
    let n = runs.len() as f64;
    let mut avg = Trace::new(interval);
    for si in 0..min_len {
        let n_cpus = runs[0].trace.samples[si].freq_khz.len();
        let mut freq = vec![0u64; n_cpus];
        let mut temp = 0i64;
        let mut meter = 0.0;
        let mut rapl: Option<(u64, u64, u64)> = runs[0].trace.samples[si].rapl_uj;
        for r in runs {
            let s: &Sample = &r.trace.samples[si];
            for (f, v) in freq.iter_mut().zip(&s.freq_khz) {
                *f += v / runs.len() as u64;
            }
            temp += s.temp_mc / runs.len() as i64;
            meter += s.meter_w / n;
        }
        // Energy counters cannot be meaningfully averaged across runs
        // (they are monotonic per machine): keep the first run's and let
        // power series be averaged separately by consumers if needed.
        if runs.len() > 1 {
            rapl = runs[0].trace.samples[si].rapl_uj;
        }
        avg.samples.push(Sample {
            t_s: runs[0].trace.samples[si].t_s,
            freq_khz: freq,
            temp_mc: temp,
            rapl_uj: rapl,
            meter_w: meter,
        });
    }
    let gflops: Vec<f64> = runs.iter().filter_map(|r| r.gflops).collect();
    let mut by_type = [0u64; 4];
    for (i, slot) in by_type.iter_mut().enumerate() {
        *slot = runs.iter().map(|r| r.instructions_by_type[i]).sum::<u64>() / runs.len() as u64;
    }
    Ok(MonitoredRun {
        run_idx: u32::MAX,
        trace: avg,
        gflops: if gflops.is_empty() {
            None
        } else {
            Some(gflops.iter().sum::<f64>() / gflops.len() as f64)
        },
        wall_s: runs.iter().map(|r| r.wall_s).sum::<f64>() / n,
        instructions_by_type: by_type,
        flops: runs.iter().map(|r| r.flops).sum::<f64>() / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::machine::MachineSpec;
    use simos::kernel::{Kernel, KernelConfig};

    fn tiny_cfg() -> HplConfig {
        HplConfig {
            n: 1152,
            nb: 192,
            p: 1,
            q: 1,
        }
    }

    #[test]
    fn monitored_run_produces_trace_and_gflops() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let driver = DriverConfig {
            n_runs: 1,
            poll_interval_ns: 10_000_000, // 100 Hz for the tiny problem
            ..Default::default()
        };
        let r = monitored_hpl_run(
            &kernel,
            &tiny_cfg(),
            HplVariant::IntelMkl,
            CpuMask::parse_cpulist("0,2,16,17").unwrap(),
            &driver,
            0,
        );
        assert!(r.gflops.unwrap() > 0.5);
        assert!(!r.trace.samples.is_empty());
        assert!(r.wall_s > 0.0);
        // Hybrid core set: both types retire instructions.
        assert!(r.instructions_by_type[0] > 0);
        assert!(r.instructions_by_type[1] > 0);
    }

    #[test]
    fn settling_resets_temperature() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        kernel.lock().settle_temperature(80.0);
        settle(&kernel, 35.0, true);
        assert!(kernel.lock().machine().thermal().temp_c() <= 35.0);
    }

    #[test]
    fn slow_settling_cools_by_simulation() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        kernel.lock().settle_temperature(45.0);
        settle(&kernel, 35.0, false);
        assert!(kernel.lock().machine().thermal().temp_c() <= 35.0);
    }

    #[test]
    fn gflops_stats_mean_and_spread() {
        let mk = |g: f64| MonitoredRun {
            run_idx: 0,
            trace: crate::poller::Trace::new(1),
            gflops: Some(g),
            wall_s: 1.0,
            instructions_by_type: [0; 4],
            flops: 0.0,
        };
        let (mean, sd) = gflops_stats(&[mk(100.0), mk(110.0), mk(90.0)]).unwrap();
        assert!((mean - 100.0).abs() < 1e-9);
        assert!((sd - 10.0).abs() < 1e-9);
        assert_eq!(gflops_stats(&[]), None);
        let (m1, sd1) = gflops_stats(&[mk(42.0)]).unwrap();
        assert_eq!((m1, sd1), (42.0, 0.0));
    }

    #[test]
    fn averaging_runs() {
        let kernel =
            Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
        let driver = DriverConfig {
            n_runs: 2,
            poll_interval_ns: 10_000_000,
            ..Default::default()
        };
        let runs = monitored_hpl_runs(
            &kernel,
            &tiny_cfg(),
            HplVariant::IntelMkl,
            CpuMask::parse_cpulist("0,2").unwrap(),
            &driver,
        );
        assert_eq!(runs.len(), 2);
        let avg = average_runs(&runs).unwrap();
        assert!(avg.gflops.unwrap() > 0.0);
        assert!(!avg.trace.samples.is_empty());
        let g0 = runs[0].gflops.unwrap();
        let g1 = runs[1].gflops.unwrap();
        let ga = avg.gflops.unwrap();
        assert!((ga - (g0 + g1) / 2.0).abs() < 1e-9);
    }

    /// Regression: empty run sets used to panic on `.min().unwrap()`.
    #[test]
    fn averaging_empty_run_set_is_an_error_not_a_panic() {
        assert!(matches!(average_runs(&[]), Err(AggregateError::NoRuns)));
        assert!(matches!(
            average_sample_rows(&[]),
            Err(AggregateError::NoRuns)
        ));
        assert_eq!(
            format!("{}", AggregateError::NoRuns),
            "no runs to aggregate"
        );
    }

    /// Runs that produced zero samples are legal input: the averaged trace
    /// is simply empty (shortest-run truncation), no panic.
    #[test]
    fn averaging_runs_with_empty_traces_yields_empty_trace() {
        let mk = || MonitoredRun {
            run_idx: 0,
            trace: crate::poller::Trace::new(1_000_000_000),
            gflops: Some(1.0),
            wall_s: 1.0,
            instructions_by_type: [4, 0, 0, 0],
            flops: 8.0,
        };
        let avg = average_runs(&[mk(), mk()]).unwrap();
        assert!(avg.trace.samples.is_empty());
        assert_eq!(avg.gflops, Some(1.0));
        assert_eq!(avg.instructions_by_type, [4, 0, 0, 0]);
    }

    #[test]
    fn average_sample_rows_truncates_to_shortest() {
        let r1 = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let r2 = vec![vec![3.0, 30.0], vec![4.0, 40.0]];
        let avg = average_sample_rows(&[r1, r2]).unwrap();
        assert_eq!(avg.len(), 2);
        assert_eq!(avg[0], vec![2.0, 20.0]);
        assert_eq!(avg[1], vec![3.0, 30.0]);
        // One run with zero rows shortens everything to zero — still Ok.
        let avg = average_sample_rows(&[vec![vec![1.0]], vec![]]).unwrap();
        assert!(avg.is_empty());
    }
}
