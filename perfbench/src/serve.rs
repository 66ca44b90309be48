//! The two serving workloads, driven against a live `PhiServer` from
//! outside, plus the set-up each of them pays before its timer starts.

use crate::host;
use crate::stats::{percentile, ping_pong, sorted};
use crate::traffic::{self, identical};
use phi_runtime::{
    CompiledModel, InferenceRequest, ModelRegistry, PhiServer, ResponseHandle, ServedResponse,
    ServerConfig, ServerResult,
};
use snn_core::Matrix;
use snn_workloads::Workload;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registry key of the served model.
pub const MODEL_KEY: &str = "vgg16-cifar10";
/// Width of the windows a measured phase is cut into, unless the phase is
/// too short to hold four of them.
const WINDOW: Duration = Duration::from_millis(500);
/// Lockstep steps the streaming driver keeps in flight.
const STEPS_IN_FLIGHT: usize = 2;

/// A server ready for its measured phase.
pub struct Ready {
    pub server: PhiServer,
    pub sessions: Vec<u64>,
    /// Seconds spent compiling the artifact.
    pub compile_s: f64,
    /// CPU time the process used from the start of compilation to the end
    /// of warm-up, seconds.
    pub setup_cpu_s: f64,
    /// Wall time of the same, seconds.
    pub setup_wall_s: f64,
}

impl Ready {
    pub fn model(&self) -> Arc<CompiledModel> {
        self.server.model(MODEL_KEY).expect("registered model")
    }
}

/// Compiles the artifact, starts the server, opens `sessions` streaming
/// sessions and runs `warm` (the traffic that fills the tile cache), all
/// under one wall timer and one reading of the process's CPU clock.
pub fn set_up(
    workload: &Workload,
    config: ServerConfig,
    sessions: usize,
    warm: impl FnOnce(&PhiServer, &[u64]),
) -> Ready {
    let start = Instant::now();
    let cpu = host::process_cpu_s();
    let model = traffic::compile(workload);
    let compile_s = start.elapsed().as_secs_f64();
    let mut registry = ModelRegistry::new();
    registry.register(MODEL_KEY, model);
    let server = PhiServer::start(registry, config);
    let ids: Vec<u64> =
        (0..sessions).map(|_| server.open_session(MODEL_KEY).expect("session admitted")).collect();
    warm(&server, &ids);
    Ready {
        server,
        sessions: ids,
        compile_s,
        setup_cpu_s: host::process_cpu_s() - cpu,
        setup_wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Serves every request of `pool` once, keeping up to `depth` outstanding.
pub fn warm_pool(server: &PhiServer, pool: &[InferenceRequest], depth: usize) {
    let mut outstanding = VecDeque::new();
    for request in pool {
        if outstanding.len() == depth {
            wait_warm(outstanding.pop_front());
        }
        outstanding.push_back(server.submit(MODEL_KEY, request.clone()).expect("warm-up admitted"));
    }
    outstanding.into_iter().for_each(|h| wait_warm(Some(h)));
}

/// Streams the first `steps` replay steps of every session in lockstep.
pub fn warm_streams(
    server: &PhiServer,
    ids: &[u64],
    frames: &[Vec<InferenceRequest>],
    steps: usize,
) {
    for step in 0..steps {
        let f = ping_pong(step, frames[0].len());
        let handles: Vec<ResponseHandle> = ids
            .iter()
            .zip(frames)
            .map(|(&id, stream)| {
                server.submit_stream(MODEL_KEY, id, stream[f].clone()).expect("warm-up admitted")
            })
            .collect();
        handles.into_iter().for_each(|h| wait_warm(Some(h)));
    }
}

fn wait_warm(handle: Option<ResponseHandle>) {
    handle.expect("outstanding warm-up request").wait().expect("warm-up served");
}

/// Per-response fields a traced run keeps (all in µs).
#[derive(Clone, Copy)]
pub struct Span {
    /// Time inside the `submit` call.
    pub submit_us: f64,
    pub queue_wait_us: f64,
    pub exec_us: f64,
    /// Submit return to observed response, minus queue wait and exec.
    pub handoff_us: f64,
    pub batch_size: usize,
}

/// Completions in one window of a measured phase.
#[derive(Clone, Copy)]
pub struct Window {
    /// When the window starts and ends.
    pub from: Instant,
    pub to: Instant,
    /// CPU time the whole process used per completion, µs.
    pub cpu_us_per_request: f64,
    /// Share of the machine's CPU time the host stole during the window.
    pub steal: f64,
    /// Completions per second.
    pub rate: f64,
    /// Latency percentiles of the requests completed in the window, µs.
    pub p50_us: f64,
    pub p90_us: f64,
}

/// What one measured phase saw.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests refused at admission (queue full, session limit, ...).
    pub shed: u64,
    /// Admitted requests whose handle resolved to an error.
    pub errors: u64,
    /// Served readouts that differ from the direct reference.
    pub mismatched: u64,
    /// Latency of every served request, µs.
    pub latencies_us: Vec<f64>,
    /// The phase cut into fixed windows by completion time.
    pub windows: Vec<Window>,
    /// Driver threads the workload used.
    pub driver_threads: usize,
    /// How late each submission was against the slot it refills, µs:
    /// from the response that freed the slot to the next `submit`.
    pub late_us: Vec<f64>,
    /// Largest share of wall time any driver thread was not blocked.
    pub busy_share: f64,
    /// CPU time the whole process used during the phase, seconds.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the host stole during the phase.
    pub steal_share: f64,
    /// Batches the served requests rode in: the sum of one over each
    /// response's batch size.
    pub batches: f64,
    /// Only when traced.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.mismatched
    }

    /// Mean size of the batches the server formed.
    pub fn mean_batch(&self) -> f64 {
        self.latencies_us.len() as f64 / self.batches.max(1e-9)
    }
}

/// Tallies responses and completion times for one driver.
struct Tally {
    start: Instant,
    completions: Vec<f64>,
    out: Outcome,
}

impl Tally {
    fn new(start: Instant, driver_threads: usize) -> Self {
        Tally {
            start,
            completions: Vec::new(),
            out: Outcome { driver_threads, ..Outcome::default() },
        }
    }

    /// Records one resolved handle of a request submitted at `submitted`;
    /// `submit_us` feeds the traced spans.
    fn observe(
        &mut self,
        result: ServerResult<ServedResponse>,
        expected: &Option<Matrix>,
        submitted: Instant,
        submit_us: Option<f64>,
    ) {
        let seen = Instant::now();
        let response = match result {
            Ok(response) => response,
            Err(_) => {
                self.out.errors += 1;
                return;
            }
        };
        if !identical(&response.readout, expected) {
            self.out.mismatched += 1;
        }
        self.out.latencies_us.push(us(seen - submitted));
        self.out.batches += 1.0 / response.batch_size.max(1) as f64;
        self.completions.push((seen - self.start).as_secs_f64());
        if let Some(submit_us) = submit_us {
            let wait_us = us(response.queue_wait);
            let exec_us = us(response.exec);
            self.out.spans.push(Span {
                submit_us,
                queue_wait_us: wait_us,
                exec_us,
                handoff_us: us(seen - submitted) - submit_us - wait_us - exec_us,
                batch_size: response.batch_size,
            });
        }
    }

    fn finish(mut self, span: Duration, busy_share: f64) -> Outcome {
        let width = WINDOW.min(span / 4).as_secs_f64();
        let count = (span.as_secs_f64() / width + 1e-9).floor() as usize;
        let mut grouped: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); count];
        for (&t, &latency) in self.completions.iter().zip(&self.out.latencies_us) {
            if let Some((times, latencies)) = grouped.get_mut((t / width) as usize) {
                times.push(t);
                latencies.push(latency);
            }
        }
        self.out.windows = grouped
            .into_iter()
            .enumerate()
            .filter(|(_, (times, _))| !times.is_empty())
            .map(|(k, (times, latencies))| {
                let latencies = sorted(latencies);
                Window {
                    from: self.start + Duration::from_secs_f64(k as f64 * width),
                    to: self.start + Duration::from_secs_f64((k + 1) as f64 * width),
                    cpu_us_per_request: 0.0,
                    steal: 0.0,
                    rate: times.len() as f64 / width,
                    p50_us: percentile(&latencies, 50.0).0,
                    p90_us: percentile(&latencies, 90.0).0,
                }
            })
            .collect();
        self.out.busy_share = busy_share;
        self.out
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Submits `request`, timing the call when traced.
fn timed<T>(trace: bool, submit: impl FnOnce() -> T) -> (T, Instant, Option<f64>) {
    let at = Instant::now();
    let result = submit();
    let submit_us = trace.then(|| us(at.elapsed()));
    (result, at, submit_us)
}

/// Closed loop: one driver thread keeps `depth` requests outstanding,
/// cycling `pool` in `order`, until `span` has passed.
pub fn closed_loop(
    server: &PhiServer,
    pool: &[InferenceRequest],
    expected: &[Option<Matrix>],
    order: &[usize],
    depth: usize,
    span: Duration,
    trace: bool,
) -> Outcome {
    let start = Instant::now();
    let mut tally = Tally::new(start, 1);
    let mut late_us = Vec::new();
    let mut blocked = Duration::ZERO;
    let mut outstanding: VecDeque<(usize, Instant, Option<f64>, ResponseHandle)> = VecDeque::new();
    let mut i = 0usize;
    let mut next = pool[order[0]].clone();
    let mut freed = start;
    loop {
        let running = start.elapsed() < span;
        if running && outstanding.len() < depth {
            let p = order[i % order.len()];
            let (result, at, submit_us) = timed(trace, || server.submit(MODEL_KEY, next));
            late_us.push(us(at.saturating_duration_since(freed)));
            tally.out.attempted += 1;
            match result {
                Ok(handle) => outstanding.push_back((p, at, submit_us, handle)),
                Err(_) => tally.out.shed += 1,
            }
            i += 1;
            next = pool[order[i % order.len()]].clone();
            continue;
        }
        let Some((p, at, submit_us, handle)) = outstanding.pop_front() else { break };
        let waited = Instant::now();
        let result = handle.wait();
        blocked += waited.elapsed();
        freed = Instant::now();
        tally.observe(result, &expected[p], at, submit_us);
    }
    let busy = 1.0 - blocked.as_secs_f64() / start.elapsed().as_secs_f64();
    let mut out = tally.finish(span, busy);
    out.late_us = late_us;
    out
}

/// Lockstep streaming: one driver thread advances every session one
/// replay step at a time, starting at `first_step`, until `span` has
/// passed. It keeps `STEPS_IN_FLIGHT` steps in flight: the server parks each
/// session's later frame until the earlier one resolves, so the next step
/// is already queued when a step completes and the driver's round trip
/// stays off the critical path. The next step's frames are copied while
/// the server works.
pub fn lockstep(
    server: &PhiServer,
    ids: &[u64],
    frames: &[Vec<InferenceRequest>],
    expected: &[Vec<Option<Matrix>>],
    first_step: usize,
    span: Duration,
    trace: bool,
) -> Outcome {
    type Sent = (usize, Instant, Option<f64>, ServerResult<ResponseHandle>);
    let per_session = frames[0].len();
    let copies = |step: usize| -> Vec<InferenceRequest> {
        frames.iter().map(|s| s[ping_pong(step, per_session)].clone()).collect()
    };
    let start = Instant::now();
    let mut tally = Tally::new(start, 1);
    let mut late_us = Vec::new();
    let mut blocked = Duration::ZERO;
    let mut in_flight: VecDeque<(usize, Vec<Sent>)> = VecDeque::new();
    let mut step = first_step;
    let mut next = copies(step);
    let mut freed = start;
    loop {
        if start.elapsed() < span && in_flight.len() < STEPS_IN_FLIGHT {
            let mut sent = Vec::with_capacity(ids.len());
            for (s, frame) in next.drain(..).enumerate() {
                let (result, at, submit_us) =
                    timed(trace, || server.submit_stream(MODEL_KEY, ids[s], frame));
                late_us.push(us(at.saturating_duration_since(freed)));
                sent.push((s, at, submit_us, result));
            }
            tally.out.attempted += sent.len() as u64;
            in_flight.push_back((ping_pong(step, per_session), sent));
            step += 1;
            next = copies(step);
            continue;
        }
        let Some((f, sent)) = in_flight.pop_front() else { break };
        for (s, at, submit_us, result) in sent {
            let Ok(handle) = result else {
                tally.out.shed += 1;
                continue;
            };
            let waited = Instant::now();
            let resolved = handle.wait();
            blocked += waited.elapsed();
            tally.observe(resolved, &expected[s][f], at, submit_us);
        }
        freed = Instant::now();
    }
    let busy = 1.0 - blocked.as_secs_f64() / start.elapsed().as_secs_f64();
    let mut out = tally.finish(span, busy);
    out.late_us = late_us;
    out
}
