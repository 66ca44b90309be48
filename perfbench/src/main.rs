//! Serving benchmark for the Phi runtime.
//!
//! Drives a `PhiServer` hosting a VGG-16/CIFAR-10 artifact from outside,
//! checks every served readout bit for bit against an uncached direct
//! `BatchExecutor`, and prints one JSON result as its last line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload saturate_64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, CPU time per request over
//! the CPU time of a host probe and CPU time per set-up (see `host`), as
//! the median over several fresh processes (see `processes`);
//! `--trace 1` is a separate run that reports per-layer metrics,
//! timed around the calls into each layer's public functions. The
//! workloads:
//!
//! * `saturate_64` — a closed loop keeping 64 4-row requests outstanding.
//!   Large fused batches make batch assembly, warm-cache decomposition
//!   and the readout matmul dominate.
//! * `stream_delta10` — 8 streaming sessions of 64-row frames advanced in
//!   lockstep, two steps in flight, each step resampling rows with
//!   probability 0.1: the only workload on the delta-decomposition and
//!   readout-replay path.

mod host;
mod layers;
mod processes;
mod serve;
mod stats;
mod traffic;

use phi_runtime::{available_cores, InferenceRequest, PhiServer, ServerConfig};
use serve::{Outcome, Ready};
use snn_core::Matrix;
use stats::{median, percentile, ping_pong, pool_order, sorted};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Distinct requests in a stateless workload's pool.
const POOL: usize = 512;
/// Rows per layer of a stateless request.
const REQUEST_ROWS: usize = 4;
/// Requests the closed loop keeps outstanding.
const DEPTH: usize = 64;
/// Streaming sessions, rows per frame, stored frames per session, churn.
const SESSIONS: usize = 8;
const FRAME_ROWS: usize = 64;
const FRAMES: usize = 24;
const DELTA: f64 = 0.1;
/// How long the batcher holds a partial batch: far longer than the driver
/// takes to refill a batch, even when the host takes the CPU away from it
/// for a few milliseconds, so every batch fills
/// (64 requests, or one frame of each session). With 5 ms, host stalls
/// dispatched partial batches (mean 7.2 of 8 frames), and each paid the
/// per-batch costs again. A parked stream frame's wait counts from its
/// submission, not from its promotion.
const MAX_WAIT: Duration = Duration::from_millis(50);
/// Set-ups per process, before and after the measured phase; `setup_s` is
/// the median of their CPU time. Set-ups at both ends of the measured
/// phase sample the host a phase apart, instead of during one burst.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 4;
/// Whether each serving phase of a traced run is traced.
const TRACE_PHASES: [bool; 8] = [false, true, true, false, true, false, false, true];

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Saturate,
    Stream,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] =
        [("saturate_64", Workload::Saturate), ("stream_delta10", Workload::Stream)];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|(_, w)| *w == self).map(|&(n, _)| n).expect("listed")
    }

    fn config(self) -> ServerConfig {
        let config = ServerConfig::default();
        match self {
            Workload::Saturate => config.with_max_batch(DEPTH).with_max_wait(MAX_WAIT),
            Workload::Stream => config.with_max_batch(SESSIONS).with_max_wait(MAX_WAIT),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One of the processes an untraced run measures in.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let child = argv.iter().any(|a| a == "--child");
    Ok(Args { workload, seed, seconds, trace, child })
}

/// The seeded inputs of one workload and their reference readouts.
enum Traffic {
    Pool { pool: Vec<InferenceRequest>, order: Vec<usize> },
    Streams { frames: Vec<Vec<InferenceRequest>> },
}

struct Run {
    args: Args,
    traffic: Traffic,
    /// Reference readouts: per pool entry, or per session and frame.
    expected: Vec<Vec<Option<Matrix>>>,
}

impl Run {
    fn measure(&self, ready: &Ready, span: Duration, trace: bool) -> Outcome {
        let cpu = host::CpuLog::start();
        let mut out = self.serve(ready, span, trace);
        let log = cpu.finish();
        let (first, last) = (log[0], log[log.len() - 1]);
        out.cpu_s = last.cpu_s - first.cpu_s;
        let secs = (last.at - first.at).as_secs_f64();
        out.steal_share =
            host::steal_share(Some(first.steal), Some(last.steal), secs, available_cores());
        for w in &mut out.windows {
            let (rate, steal) = host::rates(&log, w.from, w.to, available_cores())
                .expect("readings around the window");
            w.cpu_us_per_request = rate * 1e6 / w.rate;
            w.steal = steal;
        }
        out
    }

    fn serve(&self, ready: &Ready, span: Duration, trace: bool) -> Outcome {
        let server: &PhiServer = &ready.server;
        match &self.traffic {
            Traffic::Pool { pool, order } => {
                serve::closed_loop(server, pool, &self.expected[0], order, DEPTH, span, trace)
            }
            Traffic::Streams { frames } => {
                // Warm-up streamed the first FRAMES steps.
                serve::lockstep(
                    server,
                    &ready.sessions,
                    frames,
                    &self.expected,
                    FRAMES,
                    span,
                    trace,
                )
            }
        }
    }

    fn set_up(&self, workload: &snn_workloads::Workload) -> Ready {
        let config = self.args.workload.config();
        match &self.traffic {
            Traffic::Pool { pool, .. } => serve::set_up(workload, config, 0, |server, _| {
                serve::warm_pool(server, pool, DEPTH)
            }),
            Traffic::Streams { frames } => {
                serve::set_up(workload, config, SESSIONS, |server, ids| {
                    serve::warm_streams(server, ids, frames, FRAMES)
                })
            }
        }
    }

    /// The traced layers' view of the inputs: one ping-pong period of
    /// every session's frames, or the pool in cycling order cut into
    /// fused batches of the size the server forms.
    fn layer_inputs(&self) -> layers::Inputs<'_> {
        match &self.traffic {
            Traffic::Streams { frames } => layers::Inputs {
                streams: frames
                    .iter()
                    .map(|s| (0..2 * (FRAMES - 1)).map(|t| &s[ping_pong(t, FRAMES)]).collect())
                    .collect(),
            },
            Traffic::Pool { pool, order } => layers::Inputs {
                streams: (0..DEPTH)
                    .map(|s| order.iter().skip(s).step_by(DEPTH).map(|&p| &pool[p]).collect())
                    .collect(),
            },
        }
    }
}

/// `name=value` pairs for the human-readable report lines.
fn line(label: &str, pairs: &[(&str, String)]) -> String {
    let mut out = label.to_owned();
    for (k, v) in pairs {
        let _ = write!(out, " {k}={v}");
    }
    out
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    out.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload saturate_64|stream_delta10 \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace && !args.child {
        return processes::run(args.workload.name(), args.seed, args.seconds);
    }
    let workload = traffic::workload();

    // Inputs from the seed.
    let traffic = match args.workload {
        Workload::Stream => Traffic::Streams {
            frames: traffic::stream_frames(
                &workload, SESSIONS, FRAMES, FRAME_ROWS, DELTA, args.seed,
            ),
        },
        _ => Traffic::Pool {
            pool: traffic::request_pool(&workload, POOL, REQUEST_ROWS, args.seed),
            order: pool_order(POOL, args.seed ^ 0x9001),
        },
    };
    let mut run = Run { args, traffic, expected: Vec::new() };

    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut set_up = |run: &Run| {
        let ready = run.set_up(&workload);
        setups.push((ready.setup_cpu_s, ready.setup_wall_s));
        compiles.push(ready.compile_s);
        ready
    };
    // The last set-up before the measured phase is the server measured;
    // each earlier one is shut down before the next starts.
    let mut ready = set_up(&run);
    for _ in 1..SETUPS_BEFORE {
        ready.server.shutdown();
        ready = set_up(&run);
    }
    let model = ready.model();

    // Reference readouts, before any timer.
    run.expected = match &run.traffic {
        Traffic::Pool { pool, .. } => vec![traffic::reference(&model, pool)],
        Traffic::Streams { frames } => {
            frames.iter().map(|s| traffic::reference(&model, s)).collect()
        }
    };
    let counters = layers::count(&model, &run.layer_inputs());

    let span = Duration::from_secs_f64(run.args.seconds);
    let config = run.args.workload.config();
    println!(
        "{}",
        line(
            "run",
            &[
                ("workload", run.args.workload.name().into()),
                ("seed", run.args.seed.to_string()),
                ("seconds", run.args.seconds.to_string()),
                ("trace", u8::from(run.args.trace).to_string()),
                ("nproc", available_cores().to_string()),
                ("workers", config.workers.to_string()),
                ("max_batch", config.max_batch.to_string()),
                ("max_wait_us", config.max_wait.as_micros().to_string()),
            ],
        )
    );
    // Every field, including those the environment sets (lifecycle mode,
    // canary slice, tile-cache capacity).
    println!("config {config:?}");

    let mut metrics = Vec::new();
    let mut correct;
    let main_outcome;
    if run.args.trace {
        // Half the span serves in untraced and traced phases, ordered
        // ABBA so that drift in the host's speed, and whatever a phase
        // inherits from the one before it, fall on both alike; their
        // difference is the tracing overhead. The layer probes take the
        // other half.
        let phase = span / (2 * TRACE_PHASES.len() as u32);
        let (mut plain, mut traced) = (Outcome::default(), Outcome::default());
        for trace in TRACE_PHASES {
            let side = if trace { &mut traced } else { &mut plain };
            *side = merge(std::mem::take(side), run.measure(&ready, phase, trace));
        }
        let served_batches: Vec<usize> = traced.spans.iter().map(|s| s.batch_size).collect();
        let stateless: Vec<&InferenceRequest> = match &run.traffic {
            Traffic::Pool { pool, order } => order.iter().map(|&p| &pool[p]).collect(),
            Traffic::Streams { .. } => Vec::new(),
        };
        let probe_start = Instant::now();
        let inputs = run.layer_inputs();
        let timings = layers::time(&model, &inputs, &stateless, &served_batches, span / 2);
        let recount = layers::count(&model, &inputs);
        println!("probes took {:.3} s", probe_start.elapsed().as_secs_f64());
        correct = recount == counters;
        if !correct {
            println!("work counters did not repeat: {counters:?} then {recount:?}");
        }

        let overhead = Figures::of(&traced).cpu_us / Figures::of(&plain).cpu_us - 1.0;
        let span_of = |f: fn(&serve::Span) -> f64| -> Vec<f64> {
            sorted(traced.spans.iter().map(f).collect())
        };
        let waits = span_of(|s| s.queue_wait_us);
        let m = &mut metrics;
        metric(m, "par.region_us", timings.par_region_us, "us");
        metric(m, "server.submit_us_p50", percentile(&span_of(|s| s.submit_us), 50.0).0, "us");
        metric(m, "server.queue_wait_us_p50", percentile(&waits, 50.0).0, "us");
        metric(m, "server.queue_wait_us_p90", percentile(&waits, 90.0).0, "us");
        metric(m, "server.exec_us_p50", percentile(&span_of(|s| s.exec_us), 50.0).0, "us");
        metric(m, "server.handoff_us_p50", percentile(&span_of(|s| s.handoff_us), 50.0).0, "us");
        metric(m, "server.batch_size_mean", traced.mean_batch(), "requests");
        metric(m, "executor.batch_us_p50", timings.executor_batch_us_p50, "us");
        metric(m, "vstack.us_per_batch", timings.vstack_us_per_batch, "us");
        metric(m, "decompose.cached_ns_per_row", timings.cached_ns_per_row, "ns");
        metric(m, "decompose.cold_ns_per_row", timings.cold_ns_per_row, "ns");
        metric(m, "decompose.delta_ns_per_row", timings.delta_ns_per_row, "ns");
        metric(m, "decompose.rows_skipped_share", counters.rows_skipped_share(), "share");
        metric(m, "decompose.tile_hit_rate", counters.tile_hit_rate(), "share");
        metric(m, "decompose.l1_density", counters.l1_density(), "share");
        metric(m, "decompose.l2_density", counters.l2_density(), "share");
        metric(m, "matmul.ns_per_row", timings.matmul_ns_per_row, "ns");
        metric(m, "matmul.terms_per_row", counters.terms_per_row(), "count");
        metric(m, "stream.replay_us_per_batch", timings.replay_us_per_batch, "us");
        metric(m, "driver.gen_late_p50_us", median(plain.late_us.clone()), "us");
        metric(m, "driver.busy_share", plain.busy_share, "share");
        metric(m, "trace.overhead_share", overhead, "share");
        main_outcome = merge(plain, traced);
    } else {
        // The host probe on both sides of the measured phase.
        let before = host::probe_us(available_cores());
        main_outcome = run.measure(&ready, span, false);
        let probe_us = (before + host::probe_us(available_cores())) / 2.0;
        correct = true;
        let f = Figures::of(&main_outcome);
        let latencies = sorted(main_outcome.latencies_us.clone());
        let (p99, beyond) = percentile(&latencies, 99.0);
        // Wall-clock figures are printed, not gated: in the host's steal
        // spells they worsen three- to sixfold for minutes at a time.
        println!(
            "latency p50_us={} p90_us={} whole_run_p50_us={} whole_run_p90_us={} p99_us={p99} \
             samples={} beyond_p99={beyond} (printed, not gated)",
            f.p50_us,
            f.p90_us,
            percentile(&latencies, 50.0).0,
            percentile(&latencies, 90.0).0,
            latencies.len(),
        );
        let rates = sorted(main_outcome.windows.iter().map(|w| w.rate).collect());
        let cpus = sorted(main_outcome.windows.iter().map(|w| w.cpu_us_per_request).collect());
        println!(
            "throughput rps={} rate_min={:.0} rate_max={:.0} (printed, not gated)",
            f.rps,
            percentile(&rates, 0.0).0,
            percentile(&rates, 100.0).0
        );
        println!(
            "cpu windows={} us_per_request_min={:.2} us_per_request_max={:.2} \
             whole_run_us_per_request={:.2}",
            cpus.len(),
            percentile(&cpus, 0.0).0,
            percentile(&cpus, 100.0).0,
            main_outcome.cpu_s * 1e6 / main_outcome.latencies_us.len().max(1) as f64,
        );
        println!("probe us_per_unit={probe_us}");
        let m = &mut metrics;
        metric(m, "cpu_per_request_rel", f.cpu_us / probe_us, "ratio");
        metric(m, "cpu_us_per_request", f.cpu_us, "us");
    }
    ready.server.shutdown();
    for _ in 0..SETUPS_AFTER {
        set_up(&run).server.shutdown();
    }
    if run.args.trace {
        metric(&mut metrics, "compile.s", median(compiles), "s");
    } else {
        metric(&mut metrics, "setup_s", median(setups.iter().map(|s| s.0).collect()), "s");
    }

    let o = &main_outcome;
    correct &= o.mismatched == 0;
    let late_p50 = median(o.late_us.clone());
    // The driver, not the server, paced the batches when its thread was
    // almost never blocked waiting for a response.
    let driver_bound = o.busy_share > 0.9;
    let attempted = o.attempted.max(1);
    println!(
        "{}",
        line(
            "requests",
            &[
                ("attempted", o.attempted.to_string()),
                ("served", o.latencies_us.len().to_string()),
                ("shed", o.shed.to_string()),
                ("errors", o.errors.to_string()),
                ("mismatched", o.mismatched.to_string()),
                ("failed_share", (o.failed() as f64 / attempted as f64).to_string()),
            ],
        )
    );
    println!(
        "{}",
        line(
            "audit",
            &[
                ("nproc", available_cores().to_string()),
                ("driver_threads", o.driver_threads.to_string()),
                ("gen_late_p50_us", format!("{late_p50:.1}")),
                ("busy_share", format!("{:.3}", o.busy_share)),
                ("mean_batch", format!("{:.2}", o.mean_batch())),
                ("driver_bound", driver_bound.to_string()),
                ("steal_share", format!("{:.3}", o.steal_share)),
                ("windows_used", format!("{}/{}", Figures::of(o).windows, o.windows.len())),
                (
                    "setup_wall_s_p50",
                    format!("{:.4}", median(setups.iter().map(|s| s.1).collect()))
                ),
                (
                    "setup_cpu_s_runs",
                    format!("{:.4?}", setups.iter().map(|s| s.0).collect::<Vec<_>>())
                ),
            ],
        )
    );
    println!(
        "{}",
        line(
            "counters",
            &[
                ("tile_hit_rate", format!("{:.6}", counters.tile_hit_rate())),
                ("rows_skipped", counters.rows_skipped.to_string()),
                ("rows_skipped_share", format!("{:.6}", counters.rows_skipped_share())),
                ("l1_density", format!("{:.6}", counters.l1_density())),
                ("l2_density", format!("{:.6}", counters.l2_density())),
                ("terms_per_row", format!("{:.4}", counters.terms_per_row())),
            ],
        )
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A phase's figures: the median, across the phase's windows, of each
/// window's p50 and p90 latency, completion rate and CPU time per
/// completion. A central figure, so a stall in a few windows does not move
/// it while a regression in most of them does. Only the windows in which
/// the host stole (almost) no CPU time count: the steal counter, not the
/// measured value, picks them.
struct Figures {
    p50_us: f64,
    p90_us: f64,
    rps: f64,
    cpu_us: f64,
    /// Windows the figures were taken over.
    windows: usize,
}

impl Figures {
    fn of(o: &Outcome) -> Figures {
        let chosen =
            host::least_stolen(&o.windows.iter().map(|w| (w, w.steal)).collect::<Vec<_>>());
        let windows =
            |f: fn(&serve::Window) -> f64| median(chosen.iter().copied().map(f).collect());
        Figures {
            p50_us: windows(|w| w.p50_us),
            p90_us: windows(|w| w.p90_us),
            rps: windows(|w| w.rate),
            cpu_us: windows(|w| w.cpu_us_per_request),
            windows: chosen.len(),
        }
    }
}

/// Two measured phases as one.
fn merge(mut a: Outcome, b: Outcome) -> Outcome {
    a.attempted += b.attempted;
    a.shed += b.shed;
    a.errors += b.errors;
    a.mismatched += b.mismatched;
    a.latencies_us.extend(b.latencies_us);
    a.windows.extend(b.windows);
    a.late_us.extend(b.late_us);
    a.spans.extend(b.spans);
    a.batches += b.batches;
    a.driver_threads = a.driver_threads.max(b.driver_threads);
    a.busy_share = a.busy_share.max(b.busy_share);
    a.cpu_s += b.cpu_s;
    a.steal_share = a.steal_share.max(b.steal_share);
    a
}
