//! Binary persistence for the LSEI.
//!
//! Building the index costs one signature per distinct lake entity; a
//! production deployment persists the buckets and postings and re-creates
//! only the (cheap, seed-derived) signer at startup. The signer itself is
//! *not* serialized — the caller must re-create it with the same
//! configuration and seed, which the header verifies via the stored
//! config.
//!
//! Format (`TLI3`, little-endian; the retired `TLI1`/`TLI2` dumps are
//! refused with an error saying to rebuild the index):
//!
//! ```text
//! magic "TLI3" | num_vectors u32 | band_size u32 | mode u8 | n_tables u32
//! | epoch u64 | n_groups u32 | groups... | n_postings u32 | postings...
//! | checksum u64
//! group    := n_buckets u32 | (key u64 | n_items u32 | items u32*)*
//! posting  := entity u32 | n_tables u32 | table u32*
//! checksum := FNV-1a 64 over every preceding byte (magic included)
//! ```
//!
//! The epoch is the lake generation the snapshot describes (see
//! `thetis_datalake::LakeEpoch`): delta persistence (`thetis-cli add`/
//! `remove --save-index`) bumps it in lockstep with the lake, so a reader
//! can tell a snapshot that missed mutations from one that is current.
//!
//! Deserialization never trusts a length field beyond what the remaining
//! input can back, and never panics on malformed input: every failure mode
//! — truncation, bit flips, bad magic, config drift — returns `Err`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use thetis_datalake::TableId;
use thetis_kg::EntityId;

use crate::config::LshConfig;
use crate::index::LshIndex;
use crate::lsei::{EntitySigner, Lsei, LseiMode};

/// The format: checksummed footer plus the lake epoch.
const MAGIC: &[u8; 4] = b"TLI3";
/// Retired formats (no epoch; `TLI1` also no footer), refused on read.
const RETIRED: [&[u8; 4]; 2] = [b"TLI1", b"TLI2"];

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the
/// truncation and bit-flip corruption a snapshot file suffers in practice
/// (this is an integrity check, not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serializes an LSEI's index structure (buckets, postings, config, epoch)
/// in the `TLI3` format: payload plus an FNV-1a checksum footer.
pub fn lsei_to_bytes<S>(lsei: &Lsei<S>) -> Bytes {
    let mut buf = encode_payload(lsei);
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

fn encode_payload<S>(lsei: &Lsei<S>) -> BytesMut {
    let (config, mode, index, postings, n_tables, epoch) = lsei.parts();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(config.num_vectors as u32);
    buf.put_u32_le(config.band_size as u32);
    buf.put_u8(match mode {
        LseiMode::Entity => 0,
        LseiMode::Column => 1,
    });
    buf.put_u32_le(n_tables as u32);
    buf.put_u64_le(epoch);

    let groups = index.groups();
    buf.put_u32_le(groups.len() as u32);
    for group in groups {
        buf.put_u32_le(group.len() as u32);
        // Deterministic output: sort buckets by key.
        let mut keys: Vec<_> = group.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let items = &group[&key];
            buf.put_u64_le(key);
            buf.put_u32_le(items.len() as u32);
            for &item in items {
                buf.put_u32_le(item);
            }
        }
    }

    buf.put_u32_le(postings.len() as u32);
    let mut entities: Vec<_> = postings.keys().copied().collect();
    entities.sort_unstable();
    for e in entities {
        let tables = &postings[&e];
        buf.put_u32_le(e.0);
        buf.put_u32_le(tables.len() as u32);
        for t in tables {
            buf.put_u32_le(t.0);
        }
    }
    buf
}

/// Restores an LSEI from bytes plus a freshly constructed signer.
///
/// Reads the `TLI3` format; its FNV-1a footer is verified before any field
/// is parsed.
///
/// # Errors
/// Fails on magic/structure mismatch (a retired `TLI1`/`TLI2` dump gets an
/// error naming its format and saying to rebuild the index), truncated or
/// bit-flipped input (checksum), or when the stored configuration disagrees
/// with `expected_config` (which would silently break lookups). Never
/// panics on malformed input.
pub fn lsei_from_bytes<S: EntitySigner>(
    mut bytes: Bytes,
    signer: S,
    expected_config: LshConfig,
) -> Result<Lsei<S>, String> {
    let need = |bytes: &Bytes, n: usize| -> Result<(), String> {
        if bytes.remaining() < n {
            Err("truncated LSEI dump".into())
        } else {
            Ok(())
        }
    };
    need(&bytes, 4)?;
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if RETIRED.contains(&&magic) {
        return Err(format!(
            "LSEI dump is in the retired {} format, which is no longer read; \
             rebuild the index (e.g. with --save-index)",
            String::from_utf8_lossy(&magic)
        ));
    }
    if &magic != MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    // Verify the footer over the whole payload (magic already consumed, so
    // rebuild the checksum incrementally) before trusting any length field.
    // 21 bytes: the fixed header after the magic, epoch included.
    let n = bytes.remaining();
    if n < 8 + 21 {
        return Err("truncated LSEI dump (missing checksum footer)".into());
    }
    let stored = u64::from_le_bytes(
        bytes[n - 8..]
            .try_into()
            .expect("slice of exactly eight bytes"),
    );
    let mut payload = Vec::with_capacity(4 + n - 8);
    payload.extend_from_slice(&magic);
    payload.extend_from_slice(&bytes[..n - 8]);
    let computed = fnv1a64(&payload);
    if stored != computed {
        return Err(format!(
            "LSEI dump corrupt or truncated: checksum mismatch \
             (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    bytes.truncate(n - 8);
    let num_vectors = bytes.get_u32_le() as usize;
    let band_size = bytes.get_u32_le() as usize;
    let config = LshConfig::new(num_vectors, band_size);
    if config != expected_config {
        return Err(format!(
            "stored config {config} does not match expected {expected_config}"
        ));
    }
    let mode = match bytes.get_u8() {
        0 => LseiMode::Entity,
        1 => LseiMode::Column,
        m => return Err(format!("unknown mode byte {m}")),
    };
    let n_tables = bytes.get_u32_le() as usize;
    need(&bytes, 8)?;
    let epoch = bytes.get_u64_le();

    need(&bytes, 4)?;
    let n_groups = bytes.get_u32_le() as usize;
    if n_groups != config.bands() {
        return Err(format!(
            "stored {n_groups} bucket groups, config implies {}",
            config.bands()
        ));
    }
    let mut index = LshIndex::new(config);
    for group_idx in 0..n_groups {
        need(&bytes, 4)?;
        let n_buckets = bytes.get_u32_le() as usize;
        for _ in 0..n_buckets {
            need(&bytes, 12)?;
            let key = bytes.get_u64_le();
            let n_items = bytes.get_u32_le() as usize;
            need(&bytes, n_items * 4)?;
            for _ in 0..n_items {
                index.insert_raw(group_idx, key, bytes.get_u32_le());
            }
        }
    }

    need(&bytes, 4)?;
    let n_postings = bytes.get_u32_le() as usize;
    // Each posting takes at least 8 bytes, so a count beyond remaining/8
    // can only come from a crafted file that recomputed the checksum (the
    // FNV footer catches accidents, not forgeries) — do not let it drive a
    // huge allocation before the bounds checks catch it.
    let mut postings =
        std::collections::HashMap::with_capacity(n_postings.min(bytes.remaining() / 8));
    for _ in 0..n_postings {
        need(&bytes, 8)?;
        let e = EntityId(bytes.get_u32_le());
        let n = bytes.get_u32_le() as usize;
        need(&bytes, n * 4)?;
        let tables: Vec<TableId> = (0..n).map(|_| TableId(bytes.get_u32_le())).collect();
        postings.insert(e, tables);
    }
    if bytes.has_remaining() {
        return Err(format!("{} trailing bytes in LSEI dump", bytes.remaining()));
    }

    Ok(Lsei::from_parts(
        signer, mode, index, postings, n_tables, epoch,
    ))
}

/// Writes an LSEI snapshot to `path` crash-safely: the `TLI3` bytes go to
/// a sibling temp file first, which is fsynced and then atomically renamed
/// over the destination, so a crash at any point leaves either the old
/// snapshot or the new one — never a torn file. (A torn file would still
/// be *detected* by the checksum on read; this avoids even producing one.)
///
/// The `lsei.write` failpoint injects failures for chaos runs: `error`
/// fails the write cleanly, `corrupt` flips one payload bit (which the
/// read-side checksum must catch), `panic` panics.
pub fn write_lsei_file<S>(lsei: &Lsei<S>, path: &std::path::Path) -> Result<(), String> {
    let mut data = lsei_to_bytes(lsei).to_vec();
    match thetis_obs::faults::check("lsei.write") {
        Some(thetis_obs::faults::FaultAction::Panic) => panic!("injected fault: lsei.write"),
        Some(thetis_obs::faults::FaultAction::Error) => {
            return Err("injected fault: lsei.write".into());
        }
        Some(thetis_obs::faults::FaultAction::Corrupt) => {
            let mid = data.len() / 2;
            data[mid] ^= 0x40;
        }
        None => {}
    }
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&data)?;
        // Contents must be durable before the rename publishes them.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself (the directory entry).
        if let Some(d) = dir {
            if let Ok(dh) = std::fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("writing LSEI snapshot {}: {e}", path.display())
    })
}

/// Reads an LSEI snapshot written by [`write_lsei_file`] (any `TLI3` dump),
/// verifying the checksum before parsing.
///
/// The `lsei.read` failpoint injects failures for chaos runs: `error`
/// fails the read cleanly, `corrupt` flips one bit of the bytes read (so
/// the checksum rejects them), `panic` panics. Callers on the query path
/// should treat any `Err` as "no index" and fall back to an exhaustive
/// scan (see `thetis_core::Candidates::lsei`, whose `None` is that
/// fallback).
pub fn read_lsei_file<S: EntitySigner>(
    path: &std::path::Path,
    signer: S,
    expected_config: LshConfig,
) -> Result<Lsei<S>, String> {
    let mut data = std::fs::read(path)
        .map_err(|e| format!("reading LSEI snapshot {}: {e}", path.display()))?;
    match thetis_obs::faults::check("lsei.read") {
        Some(thetis_obs::faults::FaultAction::Panic) => panic!("injected fault: lsei.read"),
        Some(thetis_obs::faults::FaultAction::Error) => {
            return Err("injected fault: lsei.read".into());
        }
        Some(thetis_obs::faults::FaultAction::Corrupt) if !data.is_empty() => {
            let mid = data.len() / 2;
            data[mid] ^= 0x40;
        }
        _ => {}
    }
    lsei_from_bytes(Bytes::from(data), signer, expected_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsei::TypeSigner;
    use crate::shingle::TypeFilter;
    use thetis_datalake::{CellValue, DataLake, Table};
    use thetis_kg::{KgBuilder, KnowledgeGraph};

    fn fixture() -> (KnowledgeGraph, DataLake, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let players: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let g = b.freeze();
        let mk = |es: &[EntityId]| {
            let mut t = Table::new("t", vec!["c".into()]);
            for &e in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: e,
                }]);
            }
            t
        };
        let lake = DataLake::from_tables(vec![mk(&players[0..4]), mk(&players[4..8])]);
        (g, lake, players)
    }

    #[test]
    fn roundtrip_preserves_lookups() {
        let (g, lake, players) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mk_signer = || TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let original = Lsei::build(&lake, mk_signer(), cfg, LseiMode::Entity);
        let bytes = lsei_to_bytes(&original);
        let restored = lsei_from_bytes(bytes, mk_signer(), cfg).unwrap();
        for &probe in &players {
            let a = original.prefilter(&[probe], 1);
            let b = restored.prefilter(&[probe], 1);
            assert_eq!(a.tables, b.tables);
            assert_eq!(a.raw_candidates, b.raw_candidates);
        }
        assert_eq!(original.n_tables(), restored.n_tables());
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = Lsei::build(
            &lake,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
            LseiMode::Entity,
        );
        let bytes = lsei_to_bytes(&original);
        let other_cfg = LshConfig::new(30, 10);
        let err = match lsei_from_bytes(
            bytes,
            TypeSigner::new(&g, TypeFilter::none(), other_cfg, 7),
            other_cfg,
        ) {
            Err(e) => e,
            Ok(_) => panic!("config mismatch accepted"),
        };
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn bit_flip_anywhere_is_rejected() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = Lsei::build(
            &lake,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
            LseiMode::Entity,
        );
        let pristine = lsei_to_bytes(&original).to_vec();
        // Flip one bit at a spread of offsets covering the magic, header,
        // bucket groups, postings, and the checksum footer itself.
        let offsets = [0, 5, 9, 13, pristine.len() / 2, pristine.len() - 1];
        for &off in &offsets {
            let mut corrupt = pristine.clone();
            corrupt[off] ^= 0x40;
            let outcome = lsei_from_bytes(
                Bytes::from(corrupt),
                TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
                cfg,
            );
            assert!(outcome.is_err(), "bit flip at offset {off} accepted");
        }
    }

    /// Every single-bit corruption confined to the epoch field (bytes
    /// 17..25 of the TLI3 header) must fail closed via the checksum. A
    /// flipped epoch that decoded "successfully" would restore a snapshot
    /// claiming the wrong lake generation — the staleness check downstream
    /// would then trust a lie — so none of the 64 flips may be accepted.
    #[test]
    fn epoch_field_bit_flips_fail_closed() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mut original = build_fixture_lsei(&g, &lake, cfg);
        // A mid-range epoch: flips can both raise and lower the value, and
        // every byte of the u64 carries at least one set or clear bit that
        // a flip changes meaningfully.
        original.set_epoch(0x0123_4567_89AB_CDEF);
        let pristine = lsei_to_bytes(&original).to_vec();
        // magic(4) + num_vectors(4) + band_size(4) + mode(1) + n_tables(4).
        const EPOCH_OFFSET: usize = 17;
        let restored = decode(pristine.clone(), &g, cfg).unwrap();
        assert_eq!(restored.epoch(), 0x0123_4567_89AB_CDEF);
        for byte in EPOCH_OFFSET..EPOCH_OFFSET + 8 {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[byte] ^= 1 << bit;
                let err = expect_err(decode(corrupt, &g, cfg));
                assert!(
                    err.contains("checksum"),
                    "epoch flip at byte {byte} bit {bit} must be a checksum \
                     failure, not a silently wrong epoch: {err}"
                );
            }
        }
    }

    #[test]
    fn epoch_survives_the_roundtrip() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mk_signer = || TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let mut original = Lsei::build(&lake, mk_signer(), cfg, LseiMode::Entity);
        original.set_epoch(42);
        let restored = lsei_from_bytes(lsei_to_bytes(&original), mk_signer(), cfg).unwrap();
        assert_eq!(restored.epoch(), 42);
    }

    /// A retired dump — the `TLI1` raw payload, or the `TLI2` payload plus
    /// its checksum footer, both without the epoch field — is refused with
    /// an error naming the format and saying to rebuild, never misread.
    #[test]
    fn retired_tli1_and_tli2_dumps_are_refused_with_a_rebuild_hint() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = build_fixture_lsei(&g, &lake, cfg);
        // The TLI3 payload minus its epoch field is the retired layout.
        let mut payload = encode_payload(&original).to_vec();
        payload.drain(17..25);
        for (magic, footer) in [(b"TLI1", false), (b"TLI2", true)] {
            let mut dump = payload.clone();
            dump[..4].copy_from_slice(magic);
            if footer {
                let checksum = fnv1a64(&dump);
                dump.extend_from_slice(&checksum.to_le_bytes());
            }
            let err = expect_err(decode(dump, &g, cfg));
            let name = String::from_utf8_lossy(magic);
            assert!(err.contains(name.as_ref()), "{err}");
            assert!(err.contains("rebuild the index"), "{err}");
        }
    }

    #[test]
    fn garbage_bytes_never_panic() {
        let (g, _, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        // Adversarial inputs: empty, short, huge length fields after a
        // valid-looking TLI3 prefix. All must return Err, none may panic.
        let mut huge_lengths = Vec::new();
        huge_lengths.extend_from_slice(b"TLI3");
        huge_lengths.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_lengths.extend_from_slice(&[0xFF; 32]);
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"TLI3".to_vec(),
            b"NOPE".repeat(8),
            huge_lengths,
            vec![0u8; 64],
        ];
        for input in inputs {
            let outcome = lsei_from_bytes(
                Bytes::from(input.clone()),
                TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
                cfg,
            );
            assert!(outcome.is_err(), "{} garbage bytes accepted", input.len());
        }
    }

    #[test]
    fn truncated_dump_is_rejected() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = Lsei::build(
            &lake,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
            LseiMode::Entity,
        );
        let mut bytes = lsei_to_bytes(&original).to_vec();
        bytes.truncate(bytes.len() - 3);
        let err = match lsei_from_bytes(
            Bytes::from(bytes),
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
        ) {
            Err(e) => e,
            Ok(_) => panic!("truncated dump accepted"),
        };
        assert!(
            err.contains("truncated") || err.contains("trailing"),
            "{err}"
        );
    }

    fn build_fixture_lsei<'g>(
        g: &'g KnowledgeGraph,
        lake: &DataLake,
        cfg: LshConfig,
    ) -> Lsei<TypeSigner<'g>> {
        Lsei::build(
            lake,
            TypeSigner::new(g, TypeFilter::none(), cfg, 7),
            cfg,
            LseiMode::Entity,
        )
    }

    /// `Lsei` is not `Debug`, so `unwrap_err` is unavailable — unwrap the
    /// error by hand.
    fn expect_err<S>(r: Result<Lsei<S>, String>) -> String {
        match r {
            Err(e) => e,
            Ok(_) => panic!("malformed input accepted"),
        }
    }

    fn decode<'g>(
        bytes: Vec<u8>,
        g: &'g KnowledgeGraph,
        cfg: LshConfig,
    ) -> Result<Lsei<TypeSigner<'g>>, String> {
        lsei_from_bytes(
            Bytes::from(bytes),
            TypeSigner::new(g, TypeFilter::none(), cfg, 7),
            cfg,
        )
    }

    #[test]
    fn truncation_mid_footer_is_rejected() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mut bytes = lsei_to_bytes(&build_fixture_lsei(&g, &lake, cfg)).to_vec();
        // Cut inside the 8-byte checksum footer.
        bytes.truncate(bytes.len() - 4);
        let err = expect_err(decode(bytes, &g, cfg));
        assert!(
            err.contains("truncated") || err.contains("checksum") || err.contains("trailing"),
            "{err}"
        );
    }

    #[test]
    fn truncation_mid_body_is_rejected() {
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let mut bytes = lsei_to_bytes(&build_fixture_lsei(&g, &lake, cfg)).to_vec();
        bytes.truncate(bytes.len() / 2);
        let err = expect_err(decode(bytes, &g, cfg));
        assert!(
            err.contains("truncated") || err.contains("checksum"),
            "{err}"
        );
    }

    #[test]
    fn zero_length_file_is_rejected() {
        let (g, _, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let err = expect_err(decode(Vec::new(), &g, cfg));
        assert!(err.contains("truncated"), "{err}");
    }

    /// Fault-plan state is process-global, so tests that arm failpoints
    /// (or read files the fault tests could corrupt) must not interleave.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("thetis-persist-{}-{tag}.tli3", std::process::id()))
    }

    #[test]
    fn file_roundtrip_preserves_lookups() {
        let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        thetis_obs::faults::disarm();
        let (g, lake, players) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = build_fixture_lsei(&g, &lake, cfg);
        let path = temp_path("roundtrip");
        write_lsei_file(&original, &path).unwrap();
        let restored =
            read_lsei_file(&path, TypeSigner::new(&g, TypeFilter::none(), cfg, 7), cfg).unwrap();
        for &probe in &players {
            assert_eq!(
                original.prefilter(&[probe], 1).tables,
                restored.prefilter(&[probe], 1).tables
            );
        }
        // The temp sibling must not linger after a successful rename.
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors_with_context() {
        let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        thetis_obs::faults::disarm();
        let (g, _, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let path = temp_path("does-not-exist");
        let _ = std::fs::remove_file(&path);
        let err = expect_err(read_lsei_file(
            &path,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
        ));
        assert!(err.contains("reading LSEI snapshot"), "{err}");
    }

    #[test]
    fn injected_write_corruption_is_caught_on_read() {
        let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = build_fixture_lsei(&g, &lake, cfg);
        let path = temp_path("inject-corrupt");

        thetis_obs::faults::arm(
            thetis_obs::faults::FaultPlan::parse("lsei.write=corrupt", 1).unwrap(),
        );
        write_lsei_file(&original, &path).unwrap();
        thetis_obs::faults::disarm();

        let err = expect_err(read_lsei_file(
            &path,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
        ));
        assert!(err.contains("checksum"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_read_faults_error_cleanly() {
        let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        thetis_obs::faults::disarm();
        let (g, lake, _) = fixture();
        let cfg = LshConfig::new(32, 8);
        let original = build_fixture_lsei(&g, &lake, cfg);
        let path = temp_path("inject-read");
        write_lsei_file(&original, &path).unwrap();

        thetis_obs::faults::arm(
            thetis_obs::faults::FaultPlan::parse("lsei.read=error", 1).unwrap(),
        );
        let err = expect_err(read_lsei_file(
            &path,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
        ));
        assert!(err.contains("injected fault: lsei.read"), "{err}");

        thetis_obs::faults::arm(
            thetis_obs::faults::FaultPlan::parse("lsei.read=corrupt", 1).unwrap(),
        );
        let err = expect_err(read_lsei_file(
            &path,
            TypeSigner::new(&g, TypeFilter::none(), cfg, 7),
            cfg,
        ));
        assert!(err.contains("checksum"), "{err}");
        thetis_obs::faults::disarm();
        let _ = std::fs::remove_file(&path);
    }
}
