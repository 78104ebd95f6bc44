//! `serve_tcp`: metricsd over TCP loopback.
//!
//! A Raptor Lake kernel carries the `metricsd` binary's load (one scalar
//! worker on every fourth CPU) under a `Daemon` with default shards and
//! one worker, behind a `tcp::Listener`. Up to `nproc` connections each
//! pipeline a window of `Read`, `LatestSample` and `QueryRange` requests
//! per round while subscribed to `StreamDeltas`; the benchmark thread pumps back to
//! back at the default `ticks_per_pump` until every reply is decoded.
//!
//! The client uses non-blocking std sockets with `wire::FrameDecoder` and
//! `Response::decode`. It never calls `MetricsClient::try_take` over
//! `TcpTransport`, which blocks for the 20 ms socket read timeout when no
//! reply is pending (see `NOTES.md`).
//!
//! The seed sets the kernel seed, the order of requests in each window and
//! the `QueryRange` series.

use crate::stats::{Hist, Rng};
use crate::trace::Tracer;
use crate::{
    kernel_config, kernel_ratios, layer_median, measure, pass_medians, pass_metrics, trace_metrics,
};
use crate::{Measured, Metric, Ops, Run, Step};
use metricsd::snapshot::Collector;
use metricsd::tcp::Listener;
use metricsd::wire::{agg, metrics, series};
use metricsd::{
    Daemon, DaemonConfig, FrameDecoder, MirrorOutcome, Request, Response, StreamMirror,
};
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::CpuMask;
use simos::kernel::{Kernel, KernelHandle};
use simos::task::{Op, ScriptedProgram};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

pub const WHY: &str = "the serving stack does the work: Daemon::pump (collector, shards) takes \
0.93 of run_s in traced runs, the wire and the TCP reactor the rest; macro-ticks cover 0.58-0.73 of \
its ticks; stream pushes share the sockets with replies";

/// The `metricsd` binary's tick (the kernel default).
const TICK_NS: u64 = 1_000_000;
const MAX_CONNS: usize = 8;
/// Requests per connection per round: `WINDOW_READS` reads, then
/// `LatestSample`s and `QueryRange`s in equal numbers, shuffled.
const WINDOW: usize = 16;
const WINDOW_READS: usize = 12;
const ROUNDS_PER_PASS: usize = 512;
const WARMUP_ROUNDS: usize = 16;
/// Pumps a round may take before its missing replies count as lost.
const MAX_PUMPS_PER_ROUND: usize = 2_000;
/// Pumps a session's outbox may stay full before it is evicted. The
/// client reads after every pump, so an outbox fills only while the
/// reactor thread does not run; it holds 64 frames, about 50 pumps of
/// stream pushes. The daemon counts this grace in pumps, not time, so the
/// default 8 pumps (40 ms at the `metricsd` binary's 5 ms pump period) is
/// 2 ms of back-to-back pumps, and reactor stalls evicted healthy clients
/// at 8 and at 160 (see `NOTES.md`). Runs reach a `max_quiet_pumps` of
/// 40-200; 1000 pumps, about 0.2 s, still fails the run on a longer stall.
const STALL_GRACE_PUMPS: u32 = 1_000;
/// `QueryRange` span, in snapshot ticks back from the latest.
const QUERY_SPAN: u64 = 64;

/// Valid `(series, aggregation)` pairs a `QueryRange` draws from.
const QUERIES: [(u8, u8); 5] = [
    (series::READS, agg::SUM),
    (series::READS, agg::RATE),
    (series::LATENCY_NS, agg::P50),
    (series::LATENCY_NS, agg::P99),
    (series::CLUSTER0_INSTRUCTIONS, agg::RATE),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hello,
    Subscribe,
    StreamDeltas,
    Read,
    LatestSample,
    QueryRange(u8, u8),
}

/// Whether `resp` is the right reply to a request of kind `kind`.
pub fn reply_fits(kind: Kind, resp: &Response, sub_id: u32) -> bool {
    match (kind, resp) {
        (Kind::Hello, Response::Welcome { .. }) => true,
        (Kind::Subscribe | Kind::StreamDeltas, Response::Subscribed { .. }) => true,
        (
            Kind::Read,
            Response::Counters {
                sub_id: s, quality, ..
            },
        ) => *s == sub_id && *quality == 0,
        (Kind::LatestSample, Response::Sample { .. }) => true,
        (Kind::QueryRange(s, a), Response::RangeReply { series, agg, .. }) => {
            *series == s && *agg == a
        }
        _ => false,
    }
}

fn load_kernel(seed: u64) -> KernelHandle {
    let kernel = Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        kernel_config(seed, TICK_NS),
    );
    let n = kernel.lock().machine().n_cpus();
    for cpu in (0..n).step_by(4) {
        kernel.lock().spawn(
            &format!("w{cpu}"),
            Box::new(ScriptedProgram::new([
                Op::Compute(Phase::scalar(u64::MAX / 4)),
                Op::Exit,
            ])),
            CpuMask::from_cpus([cpu]),
            0,
        );
    }
    kernel
}

struct Conn {
    sock: TcpStream,
    /// Socket read buffer, allocated once.
    rbuf: Vec<u8>,
    dec: FrameDecoder,
    unsent: Vec<u8>,
    pending: VecDeque<(Kind, Instant)>,
    mirror: StreamMirror,
    sub_id: u32,
    /// Snapshot tick the subscription started at; until the first stream
    /// frame lands, the latest tick this connection knows of.
    base_tick: u64,
    /// The daemon closed the connection (a failure; nothing more is sent).
    closed: bool,
    /// Consecutive pumps this connection has received no byte.
    quiet_pumps: u64,
}

/// Counts and latencies the client collects.
#[derive(Default)]
struct Tally {
    /// Wall latency post → decoded reply, ns, untraced rounds only.
    latency_ns: Hist,
    replies: u64,
    stream_frames: u64,
    /// Longest run of consecutive pumps in which a connection received no
    /// byte: a bound from below on how long the reactor thread left the
    /// daemon's outbox undrained.
    max_quiet_pumps: u64,
}

struct State {
    kernel: KernelHandle,
    daemon: Daemon,
    listener: Listener,
    conns: Vec<Conn>,
}

impl Conn {
    fn post(&mut self, tr: &mut Tracer, reqs: &[(Kind, Request)]) {
        tr.begin("wire.encode");
        for (_, r) in reqs {
            self.unsent.extend_from_slice(&r.encode());
        }
        tr.end("wire.encode", reqs.len() as u64);
        let now = Instant::now();
        self.pending.extend(reqs.iter().map(|(k, _)| (*k, now)));
    }

    /// Write what the socket takes; keep the rest for the next call.
    fn flush(&mut self, ops: &mut Ops) {
        while !self.unsent.is_empty() {
            match self.sock.write(&self.unsent) {
                Ok(0) => break,
                Ok(n) => {
                    self.unsent.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ops.check(false, || format!("socket write: {e}"));
                    self.unsent.clear();
                }
            }
        }
    }

    /// Read and decode everything that has arrived.
    fn drain(&mut self, tr: &mut Tracer, ops: &mut Ops, tally: &mut Tally) {
        if self.closed {
            return;
        }
        tr.begin("client.recv");
        let mut got = 0;
        loop {
            match self.sock.read(&mut self.rbuf) {
                Ok(0) => {
                    self.closed = true;
                    ops.check(false, || "daemon closed the connection".into());
                    break;
                }
                Ok(n) => {
                    self.dec.feed(&self.rbuf[..n]);
                    got += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ops.check(false, || format!("socket read: {e}"));
                    break;
                }
            }
        }
        tr.end("client.recv", got as u64);
        if got == 0 {
            self.quiet_pumps += 1;
            tally.max_quiet_pumps = tally.max_quiet_pumps.max(self.quiet_pumps);
            return;
        }
        self.quiet_pumps = 0;
        let now = Instant::now();
        let traced = tr.on();
        tr.begin("wire.decode");
        let mut frames = 0;
        loop {
            let frame = match self.dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    ops.check(false, || format!("framing: {e}"));
                    break;
                }
            };
            frames += 1;
            let Some(resp) = ops.result(Response::decode(&frame), "Response::decode") else {
                continue;
            };
            match self.mirror.apply(&resp) {
                MirrorOutcome::Applied => {
                    tally.stream_frames += 1;
                    ops.attempted += 1;
                }
                MirrorOutcome::NeedKeyframe => {
                    ops.check(false, || "stream frame failed its CRC or base tick".into());
                }
                MirrorOutcome::NotStream => {
                    let Some((kind, posted)) = self.pending.pop_front() else {
                        ops.check(false, || format!("unsolicited reply {resp:?}"));
                        continue;
                    };
                    if let Response::Subscribed { sub_id, base_tick } = &resp {
                        self.base_tick = *base_tick;
                        if kind == Kind::Subscribe {
                            self.sub_id = *sub_id;
                        }
                    }
                    let sub = self.sub_id;
                    if ops.check(reply_fits(kind, &resp, sub), || {
                        format!("{kind:?} answered with {resp:?}")
                    }) {
                        tally.replies += 1;
                        if !traced {
                            tally
                                .latency_ns
                                .record(now.duration_since(posted).as_nanos() as f64);
                        }
                    }
                }
            }
        }
        tr.end("wire.decode", frames);
        if self.closed {
            let lost = self.pending.len() as u64;
            ops.tally(lost, lost, || {
                format!("{lost} replies lost with the connection")
            });
            self.pending.clear();
        }
    }
}

impl State {
    /// Pump until every connection has its replies; returns the pumps.
    fn settle_round(&mut self, tr: &mut Tracer, ops: &mut Ops, tally: &mut Tally) -> u64 {
        let mut pumps = 0;
        for c in &mut self.conns {
            c.flush(ops);
        }
        while self.conns.iter().any(|c| !c.pending.is_empty()) {
            if pumps as usize == MAX_PUMPS_PER_ROUND {
                for c in &mut self.conns {
                    let lost = c.pending.len() as u64;
                    ops.tally(lost, lost, || format!("{lost} replies never arrived"));
                    c.pending.clear();
                }
                break;
            }
            tr.begin("metricsd.pump");
            self.daemon.pump();
            tr.end("metricsd.pump", 1);
            pumps += 1;
            for c in &mut self.conns {
                c.flush(ops);
                c.drain(tr, ops, tally);
            }
        }
        pumps
    }
}

fn build(seed: u64, nconns: usize, ops: &mut Ops, tally: &mut Tally) -> State {
    let kernel = load_kernel(seed);
    let daemon = Daemon::new(
        kernel.clone(),
        DaemonConfig {
            workers: 1,
            stall_grace_pumps: STALL_GRACE_PUMPS,
            ..DaemonConfig::default()
        },
    );
    let listener = Listener::spawn(daemon.connector(), "127.0.0.1:0").expect("bind loopback");
    let mut conns = Vec::with_capacity(nconns);
    for _ in 0..nconns {
        let sock = TcpStream::connect(listener.addr()).expect("connect to the listener");
        sock.set_nodelay(true).expect("TCP_NODELAY");
        sock.set_nonblocking(true).expect("non-blocking socket");
        conns.push(Conn {
            sock,
            rbuf: vec![0; 64 * 1024],
            dec: FrameDecoder::new(),
            unsent: Vec::new(),
            pending: VecDeque::new(),
            mirror: StreamMirror::new(),
            sub_id: 0,
            base_tick: 0,
            closed: false,
            quiet_pumps: 0,
        });
    }
    let mut st = State {
        kernel,
        daemon,
        listener,
        conns,
    };
    let mut off = Tracer::new(false);
    for c in &mut st.conns {
        c.post(
            &mut off,
            &[
                (
                    Kind::Hello,
                    Request::Hello {
                        proto: metricsd::PROTO_VERSION,
                    },
                ),
                (
                    Kind::Subscribe,
                    Request::Subscribe {
                        cpu_mask: u64::MAX,
                        metrics: metrics::ALL,
                    },
                ),
                (Kind::StreamDeltas, Request::StreamDeltas { every_pumps: 1 }),
            ],
        );
    }
    st.settle_round(&mut off, ops, tally);
    st
}

/// One round's requests for one connection.
fn window(rng: &mut Rng, sub_id: u32, last_tick: u64) -> Vec<(Kind, Request)> {
    let mut w: Vec<(Kind, Request)> = Vec::with_capacity(WINDOW);
    for _ in 0..WINDOW_READS {
        w.push((
            Kind::Read,
            Request::Read {
                sub_id,
                submit_ns: 0,
            },
        ));
    }
    for i in 0..WINDOW - WINDOW_READS {
        if i % 2 == 0 {
            w.push((Kind::LatestSample, Request::LatestSample));
        } else {
            let (s, a) = QUERIES[rng.below(QUERIES.len() as u64) as usize];
            w.push((
                Kind::QueryRange(s, a),
                Request::QueryRange {
                    series: s,
                    agg: a,
                    start_tick: last_tick.saturating_sub(QUERY_SPAN),
                    end_tick: last_tick,
                    max_points: 64,
                },
            ));
        }
    }
    rng.shuffle(&mut w);
    w
}

fn round(st: &mut State, rng: &mut Rng, tr: &mut Tracer, ops: &mut Ops, tally: &mut Tally) -> u64 {
    for c in st.conns.iter_mut().filter(|c| !c.closed) {
        let w = window(rng, c.sub_id, c.mirror.tick.max(c.base_tick));
        c.post(tr, &w);
    }
    st.settle_round(tr, ops, tally)
}

/// Checks at the end of the run: no evictions, every mirror in sync.
pub fn check_end(ops: &mut Ops, evictions: u64, mirrors: &[StreamMirror]) {
    ops.check(evictions == 0, || format!("{evictions} sessions evicted"));
    for (i, m) in mirrors.iter().enumerate() {
        ops.check(m.synced && m.desyncs == 0 && m.deltas > 0, || {
            format!(
                "connection {i}: stream mirror synced={} desyncs={} deltas={}",
                m.synced, m.desyncs, m.deltas
            )
        });
    }
}

pub fn run(run: &Run, tr: &mut Tracer) -> Measured {
    let mut ops = Ops::default();
    let mut tally = Tally::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nconns = nproc.clamp(1, MAX_CONNS);
    let mut rng = Rng::new(run.seed);
    let mut state = None;
    // Traced passes time the collector and the tick on twins of the
    // served kernel, advanced once per pump at the end of the pass so that
    // the probes do not overlap the pass's traffic.
    let ticks_per_pump = DaemonConfig::default().ticks_per_pump;
    let mut twins = run
        .traced
        .then(|| (Collector::new(load_kernel(run.seed)), load_kernel(run.seed)));
    // Untraced rounds' wall time and replies; every round's pumps.
    let (mut busy_s, mut decoded) = (0.0, 0u64);
    let (mut rounds, mut round_pumps) = (0u64, 0u64);
    let passes = measure(run, tr, |tr, step| {
        if step == Step::Setup {
            // Warm-up traffic has its own tally and request stream, so the
            // measured rounds do not depend on how many set-ups ran.
            let (mut warm, mut warm_rng) = (Tally::default(), Rng::new(!run.seed));
            let mut fresh = build(run.seed, nconns, &mut ops, &mut warm);
            for _ in 0..WARMUP_ROUNDS {
                let mut off = Tracer::new(false);
                round(&mut fresh, &mut warm_rng, &mut off, &mut ops, &mut warm);
            }
            state.get_or_insert(fresh);
            return;
        }
        let st = state.as_mut().expect("set-up runs before the first pass");
        let traced = tr.on();
        let mut pass_pumps = 0;
        for _ in 0..ROUNDS_PER_PASS {
            let t = Instant::now();
            let replies = tally.replies;
            let pumps = round(st, &mut rng, tr, &mut ops, &mut tally);
            if !traced {
                busy_s += t.elapsed().as_secs_f64();
                decoded += tally.replies - replies;
            }
            rounds += 1;
            round_pumps += pumps;
            pass_pumps += pumps;
        }
        if let (true, Some((collector, kernel))) = (traced, twins.as_mut()) {
            for _ in 0..pass_pumps {
                tr.begin("probe.collect");
                collector.advance(ticks_per_pump);
                tr.end("probe.collect", 1);
                tr.begin("probe.tick_batch");
                kernel.lock().tick_batch(ticks_per_pump as u64);
                tr.end("probe.tick_batch", ticks_per_pump as u64);
            }
        }
    });
    let mut st = state.expect("set-up ran");
    let evictions = st.daemon.stats().evictions;
    let mirrors: Vec<StreamMirror> = st.conns.iter().map(|c| c.mirror.clone()).collect();
    check_end(&mut ops, evictions, &mirrors);
    let stream_frames = tally.stream_frames;

    let mut end_to_end = pass_metrics(&passes);
    let lat = &tally.latency_ns;
    let rpc_per_s = decoded as f64 / busy_s;
    let pumps_per_round = round_pumps as f64 / rounds.max(1) as f64;
    end_to_end.push(Metric::new(
        "op_p90_us",
        "us",
        lat.quantile(0.9) / 1e3,
        lat.count(),
    ));
    let mut detail = pass_medians(&passes);
    detail.extend([
        Metric::new("rpc_per_s", "1/s", rpc_per_s, decoded as usize),
        Metric::new("rpc_p50_ms", "ms", lat.quantile(0.5) / 1e6, lat.count()),
        Metric::new("rpc_p90_ms", "ms", lat.quantile(0.9) / 1e6, lat.count()),
        Metric::new("rpc_p99_ms", "ms", lat.quantile(0.99) / 1e6, lat.count()),
        Metric::new("pumps_per_round", "count", pumps_per_round, rounds as usize),
        Metric::new("stream_frames", "count", stream_frames as f64, 1),
        Metric::new(
            "max_quiet_pumps",
            "count",
            tally.max_quiet_pumps as f64,
            rounds as usize,
        ),
        Metric::new("connections", "count", nconns as f64, 1),
    ]);
    let mut per_layer = Vec::new();
    if run.traced {
        let ratios = {
            let k = st.kernel.lock();
            kernel_ratios(k.plan_cache_stats(), k.macro_stats())
        };
        let (tick_us, tick_n) = layer_median(tr, "probe.tick_batch", 1e3);
        let (pump_us, pump_n) = layer_median(tr, "metricsd.pump", 1e3);
        let (collect_us, collect_n) = layer_median(tr, "probe.collect", 1e3);
        let (encode_ns, encode_n) = layer_median(tr, "wire.encode", 1.0);
        let decode = tr.layer("wire.decode");
        let pass_ticks = ROUNDS_PER_PASS as f64 * pumps_per_round * ticks_per_pump as f64;
        per_layer.extend([
            Metric::new("tick_us", "us", tick_us, tick_n),
            Metric::new("sim_ticks", "count", pass_ticks, rounds as usize),
        ]);
        per_layer.extend(ratios);
        per_layer.extend([Metric::new(
            "op_p99_us",
            "us",
            lat.quantile(0.99) / 1e3,
            lat.count(),
        )]);
        per_layer.extend(trace_metrics(&passes, tr));
        let (twin_replayed, twin_total) = twins
            .as_ref()
            .map_or((0, 0), |(_, k)| k.lock().macro_stats());
        detail.extend([
            Metric::new(
                "macro_coverage_uncollected",
                "ratio",
                twin_replayed as f64 / twin_total.max(1) as f64,
                twin_total as usize,
            ),
            Metric::new("pump_us", "us", pump_us, pump_n),
            Metric::new("collect_us", "us", collect_us, collect_n),
            Metric::new("encode_ns", "ns", encode_ns, encode_n),
            Metric::new(
                "decode_ns",
                "ns",
                decode.total_ns as f64 / decode.ops.max(1) as f64,
                decode.ops as usize,
            ),
        ]);
    }
    st.listener.stop();
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
    fn a_reply_of_the_wrong_type_or_subscription_trips_the_check() {
        let counters = |sub_id, quality| Response::Counters {
            sub_id,
            tick: 1,
            time_ns: 1,
            latency_ns: 0,
            quality,
            values: vec![],
        };
        assert!(reply_fits(Kind::Read, &counters(3, 0), 3));
        assert!(
            !reply_fits(Kind::Read, &counters(4, 0), 3),
            "other subscription"
        );
        assert!(!reply_fits(Kind::Read, &counters(3, 1), 3), "degraded read");
        assert!(!reply_fits(Kind::LatestSample, &counters(3, 0), 3));
        let range = Response::RangeReply {
            series: series::READS,
            agg: agg::SUM,
            tier: 0,
            count: 0,
            min: 0,
            max: 0,
            points: vec![],
        };
        assert!(reply_fits(
            Kind::QueryRange(series::READS, agg::SUM),
            &range,
            0
        ));
        assert!(!reply_fits(
            Kind::QueryRange(series::READS, agg::RATE),
            &range,
            0
        ));
    }

    #[test]
    fn an_eviction_or_a_desynced_mirror_trips_the_end_check() {
        let good = StreamMirror {
            synced: true,
            deltas: 5,
            ..StreamMirror::default()
        };
        let mut ops = Ops::default();
        check_end(&mut ops, 0, std::slice::from_ref(&good));
        assert_eq!(ops.failed, 0);
        check_end(&mut ops, 1, std::slice::from_ref(&good));
        assert_eq!(ops.failed, 1);
        let desynced = StreamMirror { desyncs: 1, ..good };
        check_end(&mut ops, 0, &[desynced]);
        assert_eq!(ops.failed, 2);
    }
}
