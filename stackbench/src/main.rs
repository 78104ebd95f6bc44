//! stackbench — one benchmark for the whole stack, end to end and per
//! layer.
//!
//! ```text
//! stackbench --workload paper_hpl|papi_hot|serve_tcp|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--workload all` runs every workload in a child process of its own,
//! untraced and, with `--trace 1`, traced as well.
//!
//! Each workload runs in its own process from one thread (`serve_tcp`
//! adds metricsd's TCP reactor thread). The benchmark calls only the
//! public functions of `simos`, `telemetry`, `papi` and `metricsd`, and
//! builds every kernel from an explicit configuration ([`kernel_config`]);
//! no environment variable reaches the simulation.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` alternates
//! traced and untraced passes of the same work: the traced passes wrap each
//! layer call in a span and give the per-layer metrics, and the ratio of
//! the two pass medians is the tracing overhead. Spans are written to
//! `stackbench/out/` when the run ends.
//!
//! Every run checks its outputs. A failed check is a failed operation, and
//! any failed operation fails the run (exit code 1). The last stdout line
//! is the result object `{"correct", "attempted", "failed", "metrics"}`;
//! the line before it is a report with the host fingerprint, the seed,
//! sample counts and every layer's span totals. See `NOTES.md`.

mod host;
mod paper_hpl;
mod papi_hot;
mod serve_tcp;
mod stats;
mod trace;

use simos::kernel::{ExecMode, Firmware, KernelConfig, MacroTicks};
use simos::SchedName;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str =
    "usage: stackbench --workload paper_hpl|papi_hot|serve_tcp|all --seed N --seconds S --trace 0|1";

/// Set-up is repeated `SETUP_REPS` times before the first pass and then
/// between passes whenever it has taken less than `SETUP_SHARE` of the
/// run, so that its repetitions sample the host over the whole run like
/// the passes do.
const SETUP_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.05;
const SETUP_MAX_REPS: usize = 10_000;

/// Measured passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 4;

/// What one run was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (passes, batches, replies …).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Operations attempted and failed; a failed output check is a failed
/// operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count `n` attempted operations, `failed` of which failed.
    pub fn tally(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Count one attempted operation that failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.tally(1, u64::from(!ok), what);
        ok
    }

    /// Count one attempted operation that returned a result.
    pub fn result<T, E: std::fmt::Debug>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.tally(1, 1, || format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// A workload's outcome.
pub struct Measured {
    /// The end-to-end metrics, from untraced passes.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics, from traced passes (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The workload's own metrics under the names it is discussed by
    /// (`papi_read_ns`, `rpc_p50_ms`, `pump_us` …); printed, not gated.
    pub detail: Vec<Metric>,
    pub ops: Ops,
}

/// The pinned kernel configuration. Every field is set here so that
/// `SIM_*` variables cannot change what is measured (see `NOTES.md` for
/// why `ExecMode::Serial`).
pub fn kernel_config(seed: u64, tick_ns: u64) -> KernelConfig {
    KernelConfig {
        tick_ns,
        sched: SchedName::Cfs,
        mux_interval_ns: 4_000_000,
        seed,
        firmware: Firmware::DeviceTree,
        exec_mode: ExecMode::Serial,
        plan_cache: true,
        macro_ticks: MacroTicks::Auto,
        trace: simtrace::TraceConfig::default(),
    }
}

/// What `measure` asks a workload to do.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Build the workload's state from nothing (and warm it up). The first
    /// state built is the one the passes use; later ones are dropped.
    Setup,
    /// One pass of the fixed measured work.
    Pass,
}

/// Wall times of one run's set-ups and passes (by whether traced).
pub struct Timing {
    pub setup: Vec<f64>,
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
}

/// Set the workload up, then run passes until `run.seconds` have elapsed
/// (at least `MIN_PASSES` of them), repeating set-up between passes. A
/// traced run alternates traced and untraced passes, so both see the same
/// host conditions. A traced pass's time leaves out its probes: extra
/// layer calls made only to time a layer on its own.
pub fn measure(run: &Run, tr: &mut Tracer, mut step: impl FnMut(&mut Tracer, Step)) -> Timing {
    let mut out = Timing {
        setup: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
    };
    // One timed set-up; returns its wall time.
    fn set_up(tr: &mut Tracer, out: &mut Timing, step: &mut dyn FnMut(&mut Tracer, Step)) -> f64 {
        let t = Instant::now();
        step(tr, Step::Setup);
        let dt = t.elapsed().as_secs_f64();
        out.setup.push(dt);
        dt
    }
    let mut total = 0.0;
    for _ in 0..SETUP_REPS {
        total += set_up(tr, &mut out, &mut step);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let mut i = 0;
    while i < MIN_PASSES || Instant::now() < deadline {
        let traced = run.traced && i % 2 == 0;
        tr.set_on(traced);
        let probes = tr.probe_ns();
        tr.begin("pass");
        let t = Instant::now();
        step(tr, Step::Pass);
        let dt = t.elapsed().as_secs_f64() - (tr.probe_ns() - probes) as f64 / 1e9;
        tr.end("pass", 1);
        tr.set_on(false);
        if traced {
            out.traced.push(dt);
        } else {
            out.plain.push(dt);
        }
        i += 1;
        while out.setup.len() < SETUP_MAX_REPS
            && total < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            total += set_up(tr, &mut out, &mut step);
        }
    }
    out
}

/// Quantile at which `setup_s` and `run_s` are reported. The host's speed
/// flips between a common slow level and fast spells lasting seconds to
/// minutes, so a median follows whichever level a run happened to meet;
/// the upper quartile stays on the slow level, and stalls that hit fewer
/// than a quarter of the repetitions do not move it.
const TIME_QUANTILE: f64 = 0.75;

/// The metrics every workload reports from its set-ups and passes.
pub fn pass_metrics(p: &Timing) -> Vec<Metric> {
    vec![
        Metric::new(
            "setup_s",
            "s",
            stats::quantile(&p.setup, TIME_QUANTILE),
            p.setup.len(),
        ),
        Metric::new(
            "run_s",
            "s",
            stats::quantile(&p.plain, TIME_QUANTILE),
            p.plain.len(),
        ),
        Metric::new("peak_rss_mb", "MB", host::peak_rss_mb(), 1),
    ]
}

/// The medians of the same repetitions, printed beside the gated figures.
pub fn pass_medians(p: &Timing) -> Vec<Metric> {
    vec![
        Metric::new(
            "setup_median_s",
            "s",
            stats::median(&p.setup),
            p.setup.len(),
        ),
        Metric::new("run_median_s", "s", stats::median(&p.plain), p.plain.len()),
    ]
}

/// Per-layer metrics every traced workload reports: the share of a pass
/// (probes left out) spent inside named layer calls, and the tracing
/// overhead.
pub fn trace_metrics(p: &Timing, tr: &Tracer) -> Vec<Metric> {
    let pass = tr.layer("pass");
    let work = pass.total_ns.saturating_sub(tr.probe_ns()).max(1) as f64;
    let named = 1.0 - pass.self_ns as f64 / work;
    vec![
        Metric::new("layer_share", "ratio", named, pass.calls as usize),
        Metric::new(
            "trace_overhead",
            "ratio",
            stats::median(&p.traced) / stats::median(&p.plain),
            p.traced.len().min(p.plain.len()),
        ),
    ]
}

/// `plan_hit_rate` and `macro_coverage` from a kernel's plan-cache
/// `(hits, misses)` and macro-tick `(replayed, total)` counts.
pub fn kernel_ratios(plan: (u64, u64), macro_ticks: (u64, u64)) -> [Metric; 2] {
    let (lookups, ticks) = (plan.0 + plan.1, macro_ticks.1);
    [
        Metric::new(
            "plan_hit_rate",
            "ratio",
            plan.0 as f64 / lookups.max(1) as f64,
            lookups as usize,
        ),
        Metric::new(
            "macro_coverage",
            "ratio",
            macro_ticks.0 as f64 / ticks.max(1) as f64,
            ticks as usize,
        ),
    ]
}

/// Median of per-op costs recorded for span `name`, scaled by `div`.
pub fn layer_median(tr: &Tracer, name: &str, div: f64) -> (f64, usize) {
    let l = tr.layer(name);
    (l.ns_per_op.quantile(0.5) / div, l.ns_per_op.count())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    PaperHpl,
    PapiHot,
    ServeTcp,
}

const ALL: [Workload; 3] = [Workload::PaperHpl, Workload::PapiHot, Workload::ServeTcp];

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_hpl" => Some(Workload::PaperHpl),
            "papi_hot" => Some(Workload::PapiHot),
            "serve_tcp" => Some(Workload::ServeTcp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperHpl => "paper_hpl",
            Workload::PapiHot => "papi_hot",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::PaperHpl => paper_hpl::WHY,
            Workload::PapiHot => papi_hot::WHY,
            Workload::ServeTcp => serve_tcp::WHY,
        }
    }
}

struct Args {
    /// One workload, or every workload for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(match val.as_str() {
                        "all" => ALL.to_vec(),
                        _ => vec![Workload::parse(&val)
                            .ok_or_else(|| format!("unknown workload {val:?}"))?],
                    })
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => {
                let s: u64 = val.parse().map_err(|_| format!("bad seconds {val:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metrics_obj(w: &mut jsonw::JsonWriter, ms: &[Metric], with_samples: bool) {
    w.begin_obj();
    for m in ms {
        w.key(m.name);
        w.begin_obj();
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        if with_samples {
            w.field_u64("samples", m.samples as u64);
        }
        w.end_obj();
    }
    w.end_obj();
}

/// Run each workload in a child process of its own and exit with
/// failure if any run failed.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let traces: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
    let mut failed = Vec::new();
    for w in &args.workloads {
        for t in traces {
            let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
            let status = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                ])
                .args(["--trace", t])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed.push(format!("{} --trace {t}", w.name()));
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("stackbench: failed runs: {}", failed.join(", "));
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = match args.workloads[..] {
        [w] => w,
        _ => run_all(&args),
    };
    let fp = host::fingerprint();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
    };
    let mut tr = Tracer::new(false);
    let m = match workload {
        Workload::PaperHpl => paper_hpl::run(&run, &mut tr),
        Workload::PapiHot => papi_hot::run(&run, &mut tr),
        Workload::ServeTcp => serve_tcp::run(&run, &mut tr),
    };

    let name = workload.name();
    let mut trace_file = String::new();
    if args.trace {
        let dir = host::repo_root().join("stackbench/out");
        let path = dir.join(format!("trace-{name}-seed{}.json", args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
            Ok(()) => trace_file = path.to_string_lossy().into_owned(),
            Err(e) => eprintln!("stackbench: cannot write {}: {e}", path.display()),
        }
    }

    println!(
        "stackbench {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  why: {}", workload.why());
    println!(
        "  host: nproc={} commit={} profile={}",
        fp.nproc, fp.commit, fp.profile
    );
    for (title, ms) in [
        ("end to end", &m.end_to_end),
        ("per layer", &m.per_layer),
        ("detail", &m.detail),
    ] {
        if ms.is_empty() {
            continue;
        }
        println!("  {title}:");
        for x in ms.iter() {
            println!(
                "    {:<22} {:>16.6} {:<6} (n={})",
                x.name, x.value, x.unit, x.samples
            );
        }
    }
    // A layer's share of run_s: its self time over the traced passes'
    // time, probes left out (a probe's own share is not part of run_s).
    let run_ns = tr
        .layer("pass")
        .total_ns
        .saturating_sub(tr.probe_ns())
        .max(1) as f64;
    let share = |n: &str, l: &trace::Layer| {
        if n.starts_with("probe.") {
            f64::NAN
        } else {
            l.self_ns as f64 / run_ns
        }
    };
    if args.trace {
        println!("  layers (traced passes): calls ops total_ms self_ms share_of_run_s");
        for (n, l) in tr.layers() {
            println!(
                "    {n:<22} {:>9} {:>10} {:>10.3} {:>10.3} {:>8.4}",
                l.calls,
                l.ops,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                share(n, l)
            );
        }
    }
    println!(
        "  operations: attempted={} failed={}",
        m.ops.attempted, m.ops.failed
    );
    for f in &m.ops.failures {
        println!("  FAILED: {f}");
    }

    let correct = m.ops.failed == 0;
    // Report line: everything above, machine-readable.
    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_str("workload", name);
    w.field_u64("seed", args.seed);
    w.field_u64("seconds", args.seconds);
    w.field_bool("trace", args.trace);
    w.field_str("why", workload.why());
    w.key("host");
    w.begin_obj();
    w.field_u64("nproc", fp.nproc as u64);
    w.field_str("commit", &fp.commit);
    w.field_str("profile", fp.profile);
    w.end_obj();
    w.field_u64("attempted", m.ops.attempted);
    w.field_u64("failed", m.ops.failed);
    w.key("failures");
    w.begin_arr();
    for f in &m.ops.failures {
        w.elem_str(f);
    }
    w.end_arr();
    w.key("end_to_end");
    metrics_obj(&mut w, &m.end_to_end, true);
    w.key("per_layer");
    metrics_obj(&mut w, &m.per_layer, true);
    w.key("detail");
    metrics_obj(&mut w, &m.detail, true);
    w.key("layers");
    w.begin_obj();
    for (n, l) in tr.layers() {
        w.key(n);
        w.begin_obj();
        w.field_u64("calls", l.calls);
        w.field_u64("ops", l.ops);
        w.field_u64("total_ns", l.total_ns);
        w.field_u64("self_ns", l.self_ns);
        w.field_f64("share_of_run_s", share(n, l));
        w.end_obj();
    }
    w.end_obj();
    w.field_str("trace_file", &trace_file);
    w.end_obj();
    println!("{}", w.finish());

    // The result line.
    let mut w = jsonw::JsonWriter::new();
    w.begin_obj();
    w.field_bool("correct", correct);
    w.field_u64("attempted", m.ops.attempted.max(1));
    w.field_u64("failed", m.ops.failed);
    w.key("metrics");
    let gated = if args.trace {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    metrics_obj(&mut w, gated, false);
    w.end_obj();
    println!("{}", w.finish());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload papi_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, [Workload::PapiHot]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        let a = args("--workload all --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, ALL);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload papi_hot --seed x --seconds 1 --trace 0",
            "--workload papi_hot --seed 1 --seconds 0 --trace 0",
            "--workload papi_hot --seed 1 --seconds 1 --trace 2",
            "--workload papi_hot --seed 1 --seconds 1",
            "--workload papi_hot --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_failed_check_is_a_failed_operation() {
        let mut ops = Ops::default();
        assert!(ops.check(true, || unreachable!()));
        assert!(!ops.check(false, || "boom".into()));
        assert!(ops.result::<u8, &str>(Err("io"), "read").is_none());
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.failures, ["boom", "read: \"io\""]);
    }
}
