//! Property tests for the dense σ rows of the memo caches.
//!
//! The quantized kernels (f32/i8) produce *different bits* than the f64
//! reference for almost every resolvable pair, so a memo that ever served
//! a value across kernels would surface here as a bitwise mismatch against
//! the uncached similarity. Both the per-engine [`SimilarityCache`] and the
//! epoch-keyed [`SharedSimilarityCache`] are driven with randomly
//! interleaved kernels and batches, for type-Jaccard and embedding-cosine
//! σ, with (for the bounded variant) capacities small enough to force
//! evictions mid-sequence. Every filled cell must hold exactly the bits
//! `sim_batch_kernel` computes — including σ = 0.0, which the clamped
//! cosine returns for every negative cosine and which must never read as
//! an unset cell.

use proptest::prelude::*;
use thetis_core::{
    EmbeddingCosine, EntitySimilarity, SharedSimilarityCache, SigmaKernel, SimilarityCache,
    TypeJaccard,
};
use thetis_embedding::EmbeddingStore;
use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};

/// A store from proptest data, truncated to whole rows; row 0 is all
/// zeros, so its σ against anything but itself is 0.0.
fn store_from(data: &[f32], dim: usize) -> EmbeddingStore {
    let mut truncated: Vec<f32> = data.iter().copied().take(data.len() / dim * dim).collect();
    truncated.iter_mut().take(dim).for_each(|x| *x = 0.0);
    EmbeddingStore::from_raw(truncated, dim)
}

/// A graph of `n` entities spread over three types.
fn graph_of(n: u32) -> KnowledgeGraph {
    let mut b = KgBuilder::new();
    let thing = b.add_type("Thing", None);
    let types: Vec<_> = (0..3)
        .map(|i| b.add_type(&format!("T{i}"), Some(thing)))
        .collect();
    for i in 0..n {
        b.add_entity(&format!("e{i}"), vec![types[i as usize % 3]]);
    }
    b.freeze()
}

/// One randomized lookup: which kernel, which query entity, which batch.
type Op = (usize, u32, Vec<u32>);

fn op_strategy(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0usize..3,
            0u32..16,
            proptest::collection::vec(0u32..16, 1..6),
        ),
        1..len,
    )
}

/// Replays `ops` through `cache` — each op resolves the row of its query
/// entity under its kernel, as one search would — asserting every answer
/// and every filled cell of the row is bit-identical to the uncached
/// similarity under the *same* kernel.
fn replay(
    cache: &SimilarityCache,
    sim: &dyn EntitySimilarity,
    n: u32,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for (k, a, bs) in ops {
        let kernel = SigmaKernel::ALL[k % SigmaKernel::ALL.len()];
        let a = EntityId(a % n);
        let bs: Vec<EntityId> = bs.iter().map(|&b| EntityId(b % n)).collect();
        let rows = cache.rows(sim, kernel, vec![a], n as usize);
        let mut got = vec![0.0f64; bs.len()];
        rows.gather(0, &bs, &mut got);
        let mut direct = vec![0.0f64; bs.len()];
        sim.sim_batch_kernel(kernel, a, &bs, &mut direct);
        for ((&b, g), d) in bs.iter().zip(&got).zip(&direct) {
            prop_assert_eq!(
                g.to_bits(),
                d.to_bits(),
                "memo served σ_{}({:?}, {:?}) = {} but the kernel computes {}",
                kernel,
                a,
                b,
                g,
                d
            );
            // A gathered pair is always filled, even when σ is 0.0.
            let cell = rows.cell(0, b).map(f64::to_bits);
            prop_assert_eq!(cell, Some(d.to_bits()));
        }
        let stats = rows.stats();
        prop_assert_eq!(stats.lookups(), bs.len() as u64);
        // Every other filled cell of the row also holds this kernel's bits.
        for b in (0..n).map(EntityId) {
            if let Some(v) = rows.cell(0, b) {
                let d = sim.sim_kernel(kernel, a, b);
                prop_assert_eq!(v.to_bits(), d.to_bits(), "cell {:?} of {:?}", b, a);
            }
        }
    }
    Ok(())
}

proptest! {
    /// `SimilarityCache` never serves a σ value across kernels, whatever
    /// the interleaving of kernels, query entities and batches, for both
    /// embedding and type σ.
    #[test]
    fn similarity_cache_isolates_kernels(
        data in proptest::collection::vec(-4.0f32..4.0, 16..96),
        dim in 2usize..8,
        ops in op_strategy(150),
    ) {
        let store = store_from(&data, dim);
        prop_assume!(store.len() >= 2);
        let cos = EmbeddingCosine::new(&store);
        replay(&SimilarityCache::new(), &cos, store.len() as u32, &ops)?;
        let g = graph_of(store.len() as u32);
        let types = TypeJaccard::new(&g);
        replay(&SimilarityCache::new(), &types, store.len() as u32, &ops)?;
    }

    /// Kernel isolation survives capacity pressure: a memo of two rows,
    /// dropped whenever a third is needed, still never crosses kernels.
    #[test]
    fn bounded_cache_isolates_kernels_across_evictions(
        data in proptest::collection::vec(-4.0f32..4.0, 16..96),
        dim in 2usize..8,
        ops in op_strategy(150),
    ) {
        let store = store_from(&data, dim);
        prop_assume!(store.len() >= 2);
        let n = store.len() as u32;
        let cos = EmbeddingCosine::new(&store);
        let cache = SimilarityCache::with_capacity(2 * n as usize);
        replay(&cache, &cos, n, &ops)?;
        prop_assert!(cache.len() <= 2 * n as usize);
    }

    /// The epoch-keyed shared cache inherits the isolation: interleaved
    /// kernels against a fixed epoch (including across an epoch bump,
    /// which drops every row) always match the direct kernel bits.
    #[test]
    fn shared_cache_isolates_kernels(
        data in proptest::collection::vec(-4.0f32..4.0, 16..96),
        dim in 2usize..8,
        ops in op_strategy(100),
        bump_at in 0usize..100,
    ) {
        let store = store_from(&data, dim);
        prop_assume!(store.len() >= 2);
        let cos = EmbeddingCosine::new(&store);
        let shared = SharedSimilarityCache::new(0, 0);
        let mut epoch = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i == bump_at {
                epoch += 1;
            }
            replay(shared.for_epoch(epoch), &cos, store.len() as u32, std::slice::from_ref(op))?;
        }
    }

    /// Two threads filling one row at once, each through its own search's
    /// rows, end with the kernel's bits in every cell, and each search's
    /// `computed + served` equals its lookups.
    #[test]
    fn racing_fills_of_one_row_agree(
        data in proptest::collection::vec(-4.0f32..4.0, 16..96),
        dim in 2usize..8,
        k in 0usize..3,
        a in 0u32..16,
    ) {
        let store = store_from(&data, dim);
        prop_assume!(store.len() >= 2);
        let n = store.len() as u32;
        let kernel = SigmaKernel::ALL[k];
        let a = EntityId(a % n);
        let cos = EmbeddingCosine::new(&store);
        let g = graph_of(n);
        let types = TypeJaccard::new(&g);
        let sims: [&dyn EntitySimilarity; 2] = [&cos, &types];
        for sim in sims {
            let cache = SimilarityCache::new();
            let bs: Vec<EntityId> = (0..n).map(EntityId).collect();
            let counts = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2)
                    .map(|t| {
                        let (cache, bs) = (&cache, &bs);
                        scope.spawn(move || {
                            let rows = cache.rows(sim, kernel, vec![a], n as usize);
                            let mut out = vec![0.0f64; bs.len()];
                            // Opposite directions, so the fills interleave.
                            for j in 0..bs.len() {
                                let j = if t == 0 { j } else { bs.len() - 1 - j };
                                rows.gather(0, &bs[j..=j], &mut out[j..=j]);
                            }
                            rows.gather(0, bs, &mut out);
                            rows.stats()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
            });
            for c in &counts {
                prop_assert_eq!(c.lookups(), 2 * n as u64);
            }
            let computed: u64 = counts.iter().map(|c| c.computed).sum();
            prop_assert!(computed >= n as u64 && computed <= 2 * n as u64);
            let rows = cache.rows(sim, kernel, vec![a], n as usize);
            for &b in &bs {
                let d = sim.sim_kernel(kernel, a, b);
                prop_assert_eq!(rows.cell(0, b).map(f64::to_bits), Some(d.to_bits()));
            }
        }
    }
}
