//! Property tests pinning the server's shared tile cache to bit-identity.
//!
//! The tile cache every worker of a server shares only ever changes
//! speed: across randomized cache capacities (including 0 = disabled and
//! 1 = pure thrash), batch shapes, and worker counts, a cached server, a
//! cache-disabled server, and a direct uncached [`BatchExecutor`] must
//! all produce the same readout bits for the same requests — cold or
//! warm.

mod common;

use phi_runtime::{
    BatchExecutor, CompiledModel, InferenceRequest, ModelRegistry, PhiServer, ServerConfig,
};
use proptest::prelude::*;
use snn_core::Matrix;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One compiled fixture for every proptest case (compilation dominates
/// the per-case cost otherwise).
fn fixture() -> &'static (snn_workloads::Workload, Arc<CompiledModel>) {
    static FIXTURE: OnceLock<(snn_workloads::Workload, Arc<CompiledModel>)> = OnceLock::new();
    FIXTURE.get_or_init(|| common::compiled(0xCACE))
}

/// A fresh server over `model` with the given tile-cache capacity and
/// worker count.
fn start(model: &Arc<CompiledModel>, tile_cache: usize, workers: usize) -> PhiServer {
    let mut registry = ModelRegistry::new();
    registry.register("model", Arc::clone(model));
    let config = ServerConfig::default()
        .with_workers(workers)
        .with_max_batch(4)
        .with_max_wait(Duration::from_micros(100))
        .with_tile_cache(tile_cache);
    PhiServer::start(registry, config)
}

/// Serves `traffic` through `server` and returns the readouts in
/// submission order. Everything is submitted before waiting, so requests
/// coalesce and the worker pool (not one request at a time) does the
/// serving.
fn serve(server: &PhiServer, traffic: &[InferenceRequest]) -> Vec<Option<Matrix>> {
    let handles: Vec<_> =
        traffic.iter().map(|r| server.submit("model", r.clone()).expect("admitted")).collect();
    handles.into_iter().map(|h| h.wait().expect("served").readout).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared cache == disabled cache == direct execution, bit for bit,
    /// across capacities, shapes, and workers.
    #[test]
    fn cache_wiring_is_invisible_in_readouts(
        capacity in prop::sample::select(vec![0usize, 1, 8, 1 << 12]),
        row_choices in prop::collection::vec(3usize..=6, 1..10),
        workers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (w, model) = fixture();
        // Mixed row counts per case force several coalescing groups, so
        // batches land on different workers committing into one cache.
        let traffic: Vec<InferenceRequest> = row_choices
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                InferenceRequest::new(w.sample_requests(1, rows, seed ^ i as u64).remove(0))
            })
            .collect();

        let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
        let expected: Vec<Option<Matrix>> =
            traffic.iter().map(|r| direct.execute_one(r).expect("direct").readout).collect();

        let shared = serve(&start(model, capacity, workers), &traffic);
        let disabled = serve(&start(model, 0, workers), &traffic);

        prop_assert_eq!(&shared, &expected, "shared cache diverged from direct");
        prop_assert_eq!(&disabled, &expected, "disabled cache diverged from direct");
    }

    /// Replaying identical traffic twice through a multi-worker server is
    /// still bit-identical, and the warm wave really replays the cold
    /// wave's tile decisions from the shared cache.
    #[test]
    fn warm_shared_cache_stays_bit_identical(
        rows in 3usize..=6,
        count in 2usize..8,
        workers in 2usize..=3,
        seed in any::<u64>(),
    ) {
        let (w, model) = fixture();
        let traffic: Vec<InferenceRequest> = w
            .sample_requests(count, rows, seed)
            .into_iter()
            .map(InferenceRequest::new)
            .collect();
        let server = start(model, 1 << 12, workers);
        let direct = BatchExecutor::cpu(Arc::clone(model)).with_tile_cache_capacity(0);
        let expected: Vec<Option<Matrix>> =
            traffic.iter().map(|r| direct.execute_one(r).expect("direct").readout).collect();

        let cold = serve(&server, &traffic);
        let hits_after_cold = server.stats("model").expect("registered").tile_cache.hits;
        let warm = serve(&server, &traffic);
        let stats = server.stats("model").expect("registered");
        prop_assert_eq!(&cold, &expected, "cold wave diverged");
        prop_assert_eq!(&warm, &expected, "warm wave diverged");
        prop_assert!(
            stats.tile_cache.hits > hits_after_cold,
            "the warm wave must hit the shared cache: {:?}",
            stats.tile_cache
        );
    }
}
