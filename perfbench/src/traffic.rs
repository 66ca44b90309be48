//! The benchmark's inputs: the VGG-16/CIFAR-10 artifact, seeded request
//! pools, churned streaming frames, and the uncached direct reference
//! every served readout is checked against.

use phi_runtime::{BatchExecutor, CompileOptions, CompiledModel, InferenceRequest, ModelCompiler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_core::{Matrix, SpikeMatrix};
use snn_workloads::{DatasetId, ModelId, Workload, WorkloadConfig};
use std::sync::Arc;

/// The served model: VGG-16 on CIFAR-10, the repository's serving default.
pub fn workload() -> Workload {
    WorkloadConfig::new(ModelId::Vgg16, DatasetId::Cifar10).generate()
}

/// Compiles the artifact the server hosts.
pub fn compile(workload: &Workload) -> Arc<CompiledModel> {
    Arc::new(ModelCompiler::new(CompileOptions::default()).compile(workload))
}

/// `count` distinct requests of `rows` rows per layer, drawn from the
/// workload's activation distribution under `seed`.
pub fn request_pool(
    workload: &Workload,
    count: usize,
    rows: usize,
    seed: u64,
) -> Vec<InferenceRequest> {
    workload
        .sample_client_requests(seed, count, rows, 0x5EED)
        .into_iter()
        .map(InferenceRequest::new)
        .collect()
}

/// `frames` consecutive frames of one stream: frame `t + 1` is frame `t`
/// with each row resampled, in every layer at once, with probability
/// `delta`. Resampled rows are copied from `donors` (same layer widths),
/// so building a frame costs no fresh sampling.
pub fn churn_frames(
    first: &[SpikeMatrix],
    donors: &[SpikeMatrix],
    frames: usize,
    delta: f64,
    rng: &mut StdRng,
) -> Vec<Vec<SpikeMatrix>> {
    let rows = first[0].rows();
    let donor_rows = donors[0].rows();
    let mut out = vec![first.to_vec()];
    while out.len() < frames {
        let mut next = out.last().expect("seeded with the first frame").clone();
        for r in 0..rows {
            if !rng.gen_bool(delta) {
                continue;
            }
            let src = rng.gen_range(0..donor_rows);
            for (layer, donor) in next.iter_mut().zip(donors) {
                copy_row(donor, src, layer, r);
            }
        }
        out.push(next);
    }
    out
}

fn copy_row(src: &SpikeMatrix, src_row: usize, dst: &mut SpikeMatrix, dst_row: usize) {
    let cols = dst.cols();
    for start in (0..cols).step_by(64) {
        let len = (cols - start).min(64);
        dst.set_tile(dst_row, start, len, src.tile(src_row, start, len));
    }
}

/// Per-session streams of `frames` frames of `rows` rows at churn `delta`,
/// seeded by `seed`.
pub fn stream_frames(
    workload: &Workload,
    sessions: usize,
    frames: usize,
    rows: usize,
    delta: f64,
    seed: u64,
) -> Vec<Vec<InferenceRequest>> {
    (0..sessions as u64)
        .map(|s| {
            let client = seed.wrapping_mul(0x100).wrapping_add(s);
            let mut draws = workload.sample_client_requests(client, 2, rows, 0x57AE);
            let donors = draws.pop().expect("two draws");
            let first = draws.pop().expect("two draws");
            let mut rng = StdRng::seed_from_u64(client ^ 0xC4u64.rotate_left(40));
            churn_frames(&first, &donors, frames, delta, &mut rng)
                .into_iter()
                .map(InferenceRequest::new)
                .collect()
        })
        .collect()
}

/// Readouts of `requests` from a direct executor with decomposition
/// caching disabled: each request alone, through the indexed matcher and
/// the per-request matmul.
pub fn reference(model: &Arc<CompiledModel>, requests: &[InferenceRequest]) -> Vec<Option<Matrix>> {
    let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
    requests.iter().map(|r| direct.execute_one(r).expect("reference execution").readout).collect()
}

/// Whether two readouts agree bit for bit (and in shape).
pub fn identical(a: &Option<Matrix>, b: &Option<Matrix>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.rows() == b.rows()
                && a.cols() == b.cols()
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (None, None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ping_pong;

    #[test]
    fn replayed_frames_churn_at_delta() {
        let mut rng = StdRng::seed_from_u64(5);
        let (rows, delta, frames) = (2000, 0.1, 6);
        let first = vec![
            SpikeMatrix::random(rows, 96, 0.5, &mut rng),
            SpikeMatrix::random(rows, 40, 0.5, &mut rng),
        ];
        let donors = vec![
            SpikeMatrix::random(64, 96, 0.5, &mut rng),
            SpikeMatrix::random(64, 40, 0.5, &mut rng),
        ];
        let stored = churn_frames(&first, &donors, frames, delta, &mut rng);
        assert_eq!(stored.len(), frames);
        // Forward, then backward, then forward again: every replayed step
        // changes about `delta` of the rows, in every layer together.
        for step in 0..3 * frames {
            let (a, b) = (&stored[ping_pong(step, frames)], &stored[ping_pong(step + 1, frames)]);
            let changed: Vec<bool> =
                (0..rows).map(|r| a[0].row_words(r) != b[0].row_words(r)).collect();
            let changed_1: Vec<bool> =
                (0..rows).map(|r| a[1].row_words(r) != b[1].row_words(r)).collect();
            assert_eq!(changed, changed_1, "rows change in every layer together");
            let share = changed.iter().filter(|&&c| c).count() as f64 / rows as f64;
            assert!((share - delta).abs() < 0.025, "step {step} churn {share}");
        }
    }

    #[test]
    fn identical_compares_bits() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]).ok();
        let b = Matrix::from_vec(1, 2, vec![-0.0, 1.0]).ok();
        assert!(identical(&a, &a.clone()));
        assert!(!identical(&a, &b));
        assert!(!identical(&a, &None));
        assert!(identical(&None, &None));
    }
}
