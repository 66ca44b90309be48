//! The traced per-layer run: times the calls into each layer's public
//! functions, one at a time from a single driver thread, on the inputs
//! of the workload being traced, and counts the work they did.

use crate::stats::{median, percentile, sorted};
use phi_core::{
    decompose_cached, decompose_delta_sparse, decompose_indexed, Decomposition, FrameMemo,
    SparsityStats, TileCache,
};
use phi_runtime::{
    default_tile_cache_capacity, BatchExecutor, CompiledLayer, CompiledModel, CpuBackend,
    ExecutionBackend, InferenceRequest, LayerWork, MetricsMode, ReadoutPlan, StreamSession,
};
use rayon::prelude::*;
use snn_core::SpikeMatrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's inputs as the layers see them: fused batches in
/// arrival order, and the same requests as per-session frame sequences
/// (`streams[s][t]` is session `s`'s frame at step `t`; step `t` fuses
/// one frame of every session).
pub struct Inputs<'a> {
    pub streams: Vec<Vec<&'a InferenceRequest>>,
}

impl Inputs<'_> {
    fn steps(&self) -> usize {
        self.streams[0].len()
    }

    fn step(&self, t: usize) -> Vec<&InferenceRequest> {
        self.streams.iter().map(|s| s[t]).collect()
    }
}

/// Deterministic work counters of one pass over the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub tile_hits: u64,
    pub tile_misses: u64,
    pub rows: u64,
    pub elements: u64,
    pub l1_ones: u64,
    pub l2_terms: u64,
    pub assigned_tiles: u64,
    pub delta_rows: u64,
    pub rows_skipped: u64,
}

impl Counters {
    pub fn tile_hit_rate(&self) -> f64 {
        self.tile_hits as f64 / (self.tile_hits + self.tile_misses).max(1) as f64
    }
    pub fn l1_density(&self) -> f64 {
        self.l1_ones as f64 / self.elements.max(1) as f64
    }
    pub fn l2_density(&self) -> f64 {
        self.l2_terms as f64 / self.elements.max(1) as f64
    }
    pub fn terms_per_row(&self) -> f64 {
        (self.assigned_tiles + self.l2_terms) as f64 / self.rows.max(1) as f64
    }
    pub fn rows_skipped_share(&self) -> f64 {
        self.rows_skipped as f64 / self.delta_rows.max(1) as f64
    }
}

fn readout_layer(model: &CompiledModel) -> (usize, &CompiledLayer) {
    let last = model.layers().len() - 1;
    (last, &model.layers()[last])
}

fn stack(batch: &[&InferenceRequest], l: usize) -> SpikeMatrix {
    let mats: Vec<&SpikeMatrix> = batch.iter().map(|r| &r.layers[l]).collect();
    SpikeMatrix::vstack(&mats).expect("uniform widths")
}

/// One pass of the served layer over every step: a fresh tile cache
/// (cold-start hit rate), the stateless decomposition's densities and
/// terms, and the delta path's skipped rows.
pub fn count(model: &CompiledModel, inputs: &Inputs) -> Counters {
    let (l, layer) = readout_layer(model);
    let cache = TileCache::new(default_tile_cache_capacity());
    let mut c = Counters::default();
    let mut memos: Vec<FrameMemo> = inputs.streams.iter().map(|_| FrameMemo::new()).collect();
    let never = TileCache::disabled();
    for t in 0..inputs.steps() {
        let step = inputs.step(t);
        let stacked = stack(&step, l);
        let decomp = decompose_cached(&stacked, &layer.patterns, &layer.match_index, &cache);
        let s: SparsityStats = decomp.stats();
        c.rows += s.rows as u64;
        c.elements += s.elements();
        c.l1_ones += s.l1_ones;
        c.l2_terms += s.l2_pos + s.l2_neg;
        c.assigned_tiles += s.assigned_tiles;
        for (frame, memo) in step.iter().zip(&mut memos) {
            let (_, d) = decompose_delta_sparse(
                &frame.layers[l],
                &layer.patterns,
                &layer.match_index,
                &never,
                memo,
            );
            c.delta_rows += d.rows_total;
            c.rows_skipped += d.rows_skipped;
        }
    }
    let stats = cache.stats();
    c.tile_hits = stats.hits;
    c.tile_misses = stats.misses;
    c
}

/// Per-layer timings, in the units their names carry.
pub struct Timings {
    pub par_region_us: f64,
    pub executor_batch_us_p50: f64,
    pub vstack_us_per_batch: f64,
    pub cached_ns_per_row: f64,
    pub cold_ns_per_row: f64,
    pub delta_ns_per_row: f64,
    pub matmul_ns_per_row: f64,
    pub replay_us_per_batch: f64,
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Repeats `pass` until `budget` is spent (at least twice) and returns
/// the median of what the passes returned.
fn repeat(budget: Duration, mut pass: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < 2 || start.elapsed() < budget {
        values.push(pass());
    }
    median(values)
}

/// Times every layer probe, giving each an equal share of `budget`.
/// `served_batches` are the batch sizes the server formed, replayed
/// against a direct executor when the workload is stateless.
pub fn time(
    model: &Arc<CompiledModel>,
    inputs: &Inputs,
    stateless: &[&InferenceRequest],
    served_batches: &[usize],
    budget: Duration,
) -> Timings {
    let share = budget / 8;
    let (l, layer) = readout_layer(model);
    let steps: Vec<Vec<&InferenceRequest>> = (0..inputs.steps()).map(|t| inputs.step(t)).collect();
    let stacked: Vec<SpikeMatrix> = steps.iter().map(|s| stack(s, l)).collect();
    let rows: usize = stacked.iter().map(SpikeMatrix::rows).sum();
    let plan = ReadoutPlan {
        pwp: layer.pwp.as_ref().expect("readout products"),
        weights: layer.weights.as_ref().expect("readout weights"),
    };
    let matmul = |decomp: &Decomposition| {
        let work = LayerWork {
            decomp,
            shape: layer.shape,
            row_scale: 1.0,
            name: &layer.name,
            readout: Some(plan),
        };
        black_box(CpuBackend.run_layer(&work, MetricsMode::OutputsOnly));
    };

    let par_region_us = repeat(share, || {
        let start = Instant::now();
        for _ in 0..64 {
            black_box(vec![0u8, 1].into_par_iter().map(|x| x ^ 1).collect::<Vec<u8>>());
        }
        start.elapsed().as_secs_f64() * 1e6 / 64.0
    });

    let vstack_us_per_batch = repeat(share, || {
        let start = Instant::now();
        for step in &steps {
            black_box(stack(step, l));
        }
        start.elapsed().as_secs_f64() * 1e6 / steps.len() as f64
    });

    let cache = TileCache::new(default_tile_cache_capacity());
    for m in &stacked {
        decompose_cached(m, &layer.patterns, &layer.match_index, &cache);
    }
    let cached_ns_per_row = repeat(share, || {
        let start = Instant::now();
        for m in &stacked {
            black_box(decompose_cached(m, &layer.patterns, &layer.match_index, &cache));
        }
        ns(start.elapsed()) / rows as f64
    });

    let cold_ns_per_row = repeat(share, || {
        let start = Instant::now();
        for m in &stacked {
            black_box(decompose_indexed(m, &layer.patterns, &layer.match_index));
        }
        ns(start.elapsed()) / rows as f64
    });

    let decomps: Vec<Decomposition> = stacked
        .iter()
        .map(|m| decompose_cached(m, &layer.patterns, &layer.match_index, &cache))
        .collect();
    let matmul_ns_per_row = repeat(share, || {
        let start = Instant::now();
        for d in &decomps {
            matmul(d);
        }
        ns(start.elapsed()) / rows as f64
    });

    // The delta path over every session's frame sequence, memos warm
    // from one untimed pass; the last frame leads into the first.
    let mut memos: Vec<FrameMemo> = inputs.streams.iter().map(|_| FrameMemo::new()).collect();
    let delta_pass = |memos: &mut Vec<FrameMemo>| {
        let start = Instant::now();
        let mut frame_rows = 0u64;
        for step in &steps {
            for (frame, memo) in step.iter().zip(memos.iter_mut()) {
                let (d, stats) = decompose_delta_sparse(
                    &frame.layers[l],
                    &layer.patterns,
                    &layer.match_index,
                    &cache,
                    memo,
                );
                black_box(d);
                frame_rows += stats.rows_total;
            }
        }
        ns(start.elapsed()) / frame_rows as f64
    };
    delta_pass(&mut memos);
    let delta_ns_per_row = repeat(share, || delta_pass(&mut memos));

    // The stream executor against its own children: per step, the whole
    // `execute_stream_with` call, minus the delta decomposition and the
    // matmul of the changed rows replayed outside on twin memos.
    let executor = BatchExecutor::cpu(Arc::clone(model));
    let sessions: Vec<StreamSession> =
        inputs.streams.iter().map(|_| StreamSession::new(model)).collect();
    let session_refs: Vec<&StreamSession> = sessions.iter().collect();
    let mut twins: Vec<FrameMemo> = inputs.streams.iter().map(|_| FrameMemo::new()).collect();
    let owned: Vec<Vec<InferenceRequest>> =
        steps.iter().map(|s| s.iter().map(|&r| r.clone()).collect()).collect();
    let mut replay_step = |t: usize| -> f64 {
        let frames = &owned[t % steps.len()];
        let start = Instant::now();
        black_box(
            executor
                .execute_stream_with(frames, &session_refs, MetricsMode::OutputsOnly)
                .expect("stream step"),
        );
        let whole = start.elapsed();
        let start = Instant::now();
        let parts: Vec<Decomposition> = frames
            .iter()
            .zip(twins.iter_mut())
            .map(|(frame, memo)| {
                decompose_delta_sparse(
                    &frame.layers[l],
                    &layer.patterns,
                    &layer.match_index,
                    &cache,
                    memo,
                )
                .0
            })
            .collect();
        let joined = Decomposition::concat(&parts.iter().collect::<Vec<_>>());
        if joined.rows() > 0 {
            matmul(&joined);
        }
        let children = start.elapsed();
        (whole.as_secs_f64() - children.as_secs_f64()) * 1e6
    };
    let mut t = 0usize;
    while t < steps.len() {
        replay_step(t);
        t += 1;
    }
    let replay_us_per_batch = repeat(share, || {
        let v = replay_step(t);
        t += 1;
        v
    });

    // The executor at the batch sizes the server formed (stateless), or
    // one lockstep step per call (streaming, where every batch fuses one
    // frame per session).
    let direct = BatchExecutor::cpu(Arc::clone(model));
    let mut times = Vec::new();
    let start = Instant::now();
    if stateless.is_empty() {
        let fresh: Vec<StreamSession> =
            inputs.streams.iter().map(|_| StreamSession::new(model)).collect();
        let refs: Vec<&StreamSession> = fresh.iter().collect();
        let mut t = 0usize;
        while times.len() < 2 * steps.len() || start.elapsed() < share {
            let frames = &owned[t % steps.len()];
            let at = Instant::now();
            black_box(
                direct
                    .execute_stream_with(frames, &refs, MetricsMode::OutputsOnly)
                    .expect("stream"),
            );
            times.push(at.elapsed().as_secs_f64() * 1e6);
            t += 1;
        }
        // The first pass is the sessions' cold start.
        times.drain(..steps.len());
    } else {
        let owned: Vec<InferenceRequest> = stateless.iter().map(|&r| r.clone()).collect();
        direct.execute_with(&owned, MetricsMode::OutputsOnly).expect("warm-up batch");
        let mut at_request = 0usize;
        let mut i = 0usize;
        while times.len() < 2 || start.elapsed() < share {
            let size = served_batches[i % served_batches.len()].clamp(1, owned.len());
            if at_request + size > owned.len() {
                at_request = 0;
            }
            let batch = &owned[at_request..at_request + size];
            let at = Instant::now();
            black_box(direct.execute_with(batch, MetricsMode::OutputsOnly).expect("batch"));
            times.push(at.elapsed().as_secs_f64() * 1e6);
            at_request += size;
            i += 1;
        }
    }
    let executor_batch_us_p50 = percentile(&sorted(times), 50.0).0;

    Timings {
        par_region_us,
        executor_batch_us_p50,
        vstack_us_per_batch,
        cached_ns_per_row,
        cold_ns_per_row,
        delta_ns_per_row,
        matmul_ns_per_row,
        replay_us_per_batch,
    }
}
