//! The generic banded LSH bucket index.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::bands::{band_key, band_keys};
use crate::config::LshConfig;
use crate::signature::Signature;

/// The probe-optimized flat packing of a bucket-group index: every
/// non-empty bucket contributes one sorted `(band, key)` entry addressing
/// an offset range in one contiguous item slab (SNIPPETS.md Snippet 1's
/// `band_idx → hash → ids` layout, flattened). A probe is a binary search
/// over `keys` plus one slice — no per-band `HashMap` walk, no
/// pointer-chasing into per-bucket `Vec`s.
#[derive(Debug, Clone)]
struct FlatBuckets<T> {
    /// `(band, key)` of each non-empty bucket, sorted.
    keys: Vec<(u32, u64)>,
    /// Bucket `i` occupies `items[offsets[i]..offsets[i + 1]]`
    /// (`offsets.len() == keys.len() + 1`).
    offsets: Vec<u32>,
    /// All bucket contents, band-major then key-sorted.
    items: Vec<T>,
}

impl<T: Copy> FlatBuckets<T> {
    fn build(groups: &[HashMap<u64, Vec<T>>]) -> Self {
        let buckets = groups.iter().map(HashMap::len).sum();
        let mut keys: Vec<(u32, u64)> = Vec::with_capacity(buckets);
        for (band, group) in groups.iter().enumerate() {
            keys.extend(group.keys().map(|&key| (band as u32, key)));
        }
        keys.sort_unstable();
        let mut offsets = Vec::with_capacity(buckets + 1);
        offsets.push(0u32);
        let mut items = Vec::new();
        for &(band, key) in &keys {
            items.extend_from_slice(&groups[band as usize][&key]);
            offsets.push(items.len() as u32);
        }
        Self {
            keys,
            offsets,
            items,
        }
    }

    /// The bucket at `(band, key)`, or `None` when no item hashed there.
    #[inline]
    fn bucket(&self, band: u32, key: u64) -> Option<&[T]> {
        let i = self.keys.binary_search(&(band, key)).ok()?;
        Some(&self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }
}

/// A banded LSH index over items of type `T`.
///
/// One bucket group per band; within a group an item lives in exactly one
/// bucket (the one addressed by its band key), as described in §6.1.
///
/// Mutation goes through the per-band `HashMap` groups; queries go through
/// a flat sorted `(band, key) → offset-range` packing (`FlatBuckets`)
/// built lazily on first probe and invalidated by any mutation — the same
/// build-once/read-many pattern as the embedding store's norm cache.
#[derive(Debug, Clone)]
pub struct LshIndex<T> {
    config: LshConfig,
    groups: Vec<HashMap<u64, Vec<T>>>,
    flat: OnceLock<FlatBuckets<T>>,
}

impl<T: Copy + Eq> LshIndex<T> {
    /// Creates an empty index for `config`.
    pub fn new(config: LshConfig) -> Self {
        Self {
            config,
            groups: (0..config.bands()).map(|_| HashMap::new()).collect(),
            flat: OnceLock::new(),
        }
    }

    /// The index configuration.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// The flat probe view, built on first use.
    fn flat(&self) -> &FlatBuckets<T> {
        self.flat.get_or_init(|| FlatBuckets::build(&self.groups))
    }

    /// Inserts `item` under `sig`, once per band.
    pub fn insert(&mut self, sig: &Signature, item: T) {
        self.flat.take();
        for (group, key) in self.groups.iter_mut().zip(band_keys(sig, &self.config)) {
            group.entry(key).or_default().push(item);
        }
    }

    /// Removes one occurrence of `item` from the bucket addressed by `sig`
    /// in every band, dropping buckets that empty out — an index mutated by
    /// removals is indistinguishable from one rebuilt without the item.
    /// Absent occurrences are ignored (removal is idempotent per band).
    pub fn remove(&mut self, sig: &Signature, item: T) {
        self.flat.take();
        for (group, key) in self.groups.iter_mut().zip(band_keys(sig, &self.config)) {
            if let Some(bucket) = group.get_mut(&key) {
                if let Some(pos) = bucket.iter().position(|&x| x == item) {
                    bucket.remove(pos);
                }
                if bucket.is_empty() {
                    group.remove(&key);
                }
            }
        }
    }

    /// All items colliding with `sig` in at least one band, as a *bag*:
    /// an item appears once per colliding band (the voting prefilter counts
    /// these multiplicities).
    pub fn query_bag(&self, sig: &Signature) -> Vec<T> {
        let mut out = Vec::new();
        for (_, bucket) in self.query_by_band(sig) {
            out.extend_from_slice(bucket);
        }
        out
    }

    /// Like [`LshIndex::query_bag`], but keeps band identity: yields one
    /// `(band, bucket)` pair per band whose bucket contains at least one
    /// item, in band order. Provenance surfaces use this to report *which*
    /// signature bands produced a collision, not just how many.
    ///
    /// Returns a lazy iterator over slices of the flat packing — a probe
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics if the signature length does not equal `config.num_vectors`.
    pub fn query_by_band<'s>(
        &'s self,
        sig: &'s Signature,
    ) -> impl Iterator<Item = (usize, &'s [T])> + 's {
        assert_eq!(
            sig.len(),
            self.config.num_vectors,
            "signature length {} does not match config {}",
            sig.len(),
            self.config
        );
        let flat = self.flat();
        let config = self.config;
        (0..config.bands()).filter_map(move |band| {
            let key = band_key(sig, &config, band);
            flat.bucket(band as u32, key).map(|bucket| (band, bucket))
        })
    }

    /// Read access to the bucket groups (for persistence).
    pub fn groups(&self) -> &[HashMap<u64, Vec<T>>] {
        &self.groups
    }

    /// Inserts an item directly into a bucket (used when restoring a
    /// persisted index, bypassing signature computation).
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn insert_raw(&mut self, group: usize, key: u64, item: T) {
        self.flat.take();
        self.groups[group].entry(key).or_default().push(item);
    }

    /// Total number of stored (item, band) entries.
    pub fn entry_count(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Number of non-empty buckets across all groups.
    pub fn bucket_count(&self) -> usize {
        self.groups.iter().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(bits: &[bool]) -> Signature {
        Signature::from_bits(bits)
    }

    #[test]
    fn identical_signatures_collide_in_every_band() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let s = sig(&[true, false, true, false, false, true, false, true]);
        idx.insert(&s, 1u32);
        let bag = idx.query_bag(&s);
        assert_eq!(bag.len(), 2); // one hit per band
        assert!(bag.iter().all(|&x| x == 1));
    }

    #[test]
    fn partial_agreement_collides_in_matching_band_only() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true, true, true, true, false, false, false, false]);
        // Same first band, different second band.
        let b = sig(&[true, true, true, true, true, true, true, true]);
        idx.insert(&a, 7u32);
        let bag = idx.query_bag(&b);
        assert_eq!(bag, vec![7]);
    }

    #[test]
    fn disjoint_signatures_do_not_collide() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true; 8]);
        let b = sig(&[false; 8]);
        idx.insert(&a, 1u32);
        assert!(idx.query_bag(&b).is_empty());
    }

    #[test]
    fn query_by_band_reports_only_colliding_bands() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true, true, true, true, false, false, false, false]);
        // Same first band as `a`, different second band.
        let b = sig(&[true, true, true, true, true, true, true, true]);
        idx.insert(&a, 7u32);
        let hits: Vec<_> = idx.query_by_band(&b).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[0].1, &[7]);
        // Identical signature: every band collides, in band order.
        let bands: Vec<_> = idx.query_by_band(&a).map(|(band, _)| band).collect();
        assert_eq!(bands, vec![0, 1]);
    }

    #[test]
    fn remove_drops_one_occurrence_and_empty_buckets() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true; 8]);
        idx.insert(&a, 1u32);
        idx.insert(&a, 2u32);
        idx.remove(&a, 1u32);
        assert_eq!(idx.query_bag(&a), vec![2, 2]);
        idx.remove(&a, 2u32);
        assert!(idx.query_bag(&a).is_empty());
        assert_eq!(idx.bucket_count(), 0, "emptied buckets are dropped");
        // Removing an absent item is a no-op.
        idx.remove(&a, 7u32);
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn entry_and_bucket_counts() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true; 8]);
        let b = sig(&[false; 8]);
        idx.insert(&a, 1u32);
        idx.insert(&b, 2u32);
        idx.insert(&a, 3u32);
        assert_eq!(idx.entry_count(), 6);
        assert_eq!(idx.bucket_count(), 4); // 2 buckets per group × 2 groups
    }

    #[test]
    fn flat_view_tracks_mutations() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true; 8]);
        // Probe once to build the flat view, then mutate: the view must
        // rebuild, not serve stale buckets.
        assert!(idx.query_bag(&a).is_empty());
        idx.insert(&a, 1u32);
        assert_eq!(idx.query_bag(&a), vec![1, 1]);
        idx.insert(&a, 2u32);
        assert_eq!(idx.query_bag(&a), vec![1, 2, 1, 2]);
        idx.remove(&a, 1u32);
        assert_eq!(idx.query_bag(&a), vec![2, 2]);
        idx.insert_raw(0, crate::bands::band_key(&a, &cfg, 0), 9u32);
        assert_eq!(idx.query_bag(&a), vec![2, 9, 2]);
    }

    #[test]
    fn cloned_index_probes_identically() {
        let cfg = LshConfig::new(8, 4);
        let mut idx = LshIndex::new(cfg);
        let a = sig(&[true, false, true, false, false, true, false, true]);
        let b = sig(&[true; 8]);
        idx.insert(&a, 1u32);
        idx.insert(&b, 2u32);
        let clone = idx.clone();
        assert_eq!(idx.query_bag(&a), clone.query_bag(&a));
        assert_eq!(idx.query_bag(&b), clone.query_bag(&b));
        assert_eq!(idx.entry_count(), clone.entry_count());
    }
}
