//! Shard corruption on the lazy path: a byte flipped in a
//! *not-yet-loaded* shard file must surface as a typed `Corrupted`
//! error — naming the shard file — on the first query that touches the
//! shard, while every other shard keeps serving. Under sub-shard
//! demand decoding the blast radius shrinks further, to a single
//! record: a byte flipped in an *undecoded neighbour record* fails only
//! queries that actually price that record, with an error naming the
//! file and the class. A shard file cut short after it opened fails the
//! same way, on the first record read past the cut. Corruption is a
//! per-item failure, never a poisoned engine.
//!
//! `core.bin` — class rows, target rows and every persisted verdict —
//! is checked whole at open, so damage there, checksums re-signed, is a
//! typed `IndexError` from `open_sharded` and never a panic.

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{CancelToken, EngineConfig, PrefilterConfig, QueryError, SimilarityEngine};
use esh_index::{open_sharded, write_sharded, IndexError};
use esh_ivl::{Operand, VarId};
use esh_minic::demo;

mod support;

fn scratch(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("esh-corrupt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

#[test]
fn byte_flip_in_unloaded_shard_fails_only_queries_touching_it() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    // The pure-LSH profile with refinement off keeps a query's shard
    // fan-out to band-colliding shards only — the healthy query below
    // must provably never need the corrupted shard. (Under the default
    // staged-pricing profile every query's refine pass scans the whole
    // 8-target corpus and would trip over the tampered file.)
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        },
        ..EngineConfig::default()
    });
    for (name, f) in &funcs {
        engine.add_target(format!("t-{name}"), &clang.compile_function(f));
    }
    let dir = scratch("lazy");
    write_sharded(&engine, &dir, 1).unwrap();
    drop(engine);

    // Flip one byte in the *last* target's shard, before anything loads
    // it. One target per shard means the victim's classes live there and
    // nowhere else.
    let victims: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".bin"))
        })
        .collect();
    let victim = victims.iter().max().unwrap();
    let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, &bytes).unwrap();

    // Open is lazy: the tamper goes unnoticed until a query needs the
    // shard.
    let lazy = open_sharded(&dir).unwrap();

    // A query for the FIRST function scores fine — its shard is intact.
    let healthy_q = gcc.compile_function(&funcs[0].1);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("healthy shards must keep serving");
    assert_eq!(ok.ranked()[0].name, format!("t-{}", funcs[0].0));

    // A query for the LAST function must touch the corrupted shard (its
    // own class lives there) and fail with a typed error naming the
    // shard file.
    let poisoned_q = gcc.compile_function(&funcs.last().unwrap().1);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains(&victim_name),
                "error must name the shard file: {msg}"
            );
            assert!(
                msg.contains("checksum mismatch"),
                "error must say why: {msg}"
            );
        }
        Ok(_) => panic!("query over a corrupted shard reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    // The engine is not poisoned: healthy queries still serve, with
    // identical results, and the corrupted query keeps failing the same
    // way (the load is retried, not latched).
    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive a corrupted-shard error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }
    assert!(matches!(
        lazy.query_cancellable(&poisoned_q, &CancelToken::new()),
        Err(QueryError::Corrupted(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

/// Sub-shard demand decoding narrows the corruption blast radius from a
/// shard file to a single record: with two targets sharing one shard,
/// byte-flips in every record belonging to one target leave the *other*
/// target's queries serving — same shard, same mapping, neighbouring
/// records never checksummed because they are never decoded — while a
/// query that actually prices a poisoned record fails with a typed
/// error naming both the shard file and the class.
#[test]
fn byte_flip_in_undecoded_neighbour_record_fails_only_queries_touching_it() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    // The same no-collision pair the shard-level test leans on — first
    // and last CVE functions — but co-resident in ONE shard, so only
    // record granularity can separate them.
    let (healthy_name, healthy_f) = &funcs[0];
    let (victim_name, victim_f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        },
        ..EngineConfig::default()
    });
    engine.add_target(
        format!("t-{healthy_name}"),
        &clang.compile_function(healthy_f),
    );
    engine.add_target(
        format!("t-{victim_name}"),
        &clang.compile_function(victim_f),
    );
    let export = engine.export_corpus().unwrap();
    let dir = scratch("neighbour");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    // Classes owned by the victim target and NOT by the healthy one —
    // the records whose bytes the healthy query must never checksum.
    let healthy_classes: std::collections::BTreeSet<usize> = export.targets[0]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .collect();
    let victim_classes: std::collections::BTreeSet<usize> = export.targets[1]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .filter(|ci| !healthy_classes.contains(ci))
        .collect();
    assert!(
        !victim_classes.is_empty(),
        "victim target shares every class"
    );

    // Flip a byte in the middle of every victim record, straight through
    // the published record ranges. The structural region (header, table,
    // cache segment) is untouched, so the shard still *opens* fine.
    let shard_file = dir.join("shard-0000.bin");
    let mut bytes = std::fs::read(&shard_file).unwrap();
    let mut flipped = 0usize;
    for (ci, start, len) in esh_index::shard_record_ranges(&dir, 0).unwrap() {
        if victim_classes.contains(&ci) {
            bytes[(start + len / 2) as usize] ^= 0x40;
            flipped += 1;
        }
    }
    assert!(flipped > 0, "no record was flipped");
    std::fs::write(&shard_file, &bytes).unwrap();

    let lazy = open_sharded(&dir).unwrap();

    // The healthy target's query prices only its own records: the shard
    // opens (structural checksum intact), the poisoned neighbours stay
    // raw, and the query succeeds.
    let healthy_q = gcc.compile_function(healthy_f);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("records the query never decodes must not be able to fail it");
    assert_eq!(ok.ranked()[0].name, format!("t-{healthy_name}"));

    // The victim target's query must decode a poisoned record and fail,
    // naming the shard file and the class.
    let poisoned_q = gcc.compile_function(victim_f);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("shard-0000.bin"),
                "error must name the shard file: {msg}"
            );
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(
                msg.contains("checksum mismatch"),
                "error must say why: {msg}"
            );
        }
        Ok(_) => panic!("query over a poisoned record reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    // Not poisoned: the healthy query keeps serving identically from the
    // very same (still-open, partially-decoded) shard.
    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive a poisoned-record error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }
    let stats = lazy.shard_stats();
    assert!(
        stats.shards_partial >= 1,
        "the surviving shard should be partially decoded: {stats:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a, the index's checksum, over the concatenation of `parts`.
fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Header, offset table and record-blob region of a shard file: the
/// table row of record `i` is at `32 + 24 i` (offset, length, checksum),
/// and the `u64` blob length sits just before the blobs.
fn blob_region(bytes: &[u8], records: usize) -> std::ops::Range<usize> {
    let start = 32 + 24 * records + 8;
    let len = u64::from_le_bytes(bytes[start - 8..start].try_into().unwrap()) as usize;
    start..start + len
}

/// Checksums catch bytes changed after the manifest was written, not
/// bytes that were wrong when it was: a record re-encoded with an
/// out-of-range operand, with its offset-table checksum and the shard's
/// structural `meta_checksum` in the manifest recomputed, passes every
/// checksum. Decoding must still refuse
/// it — a typed `Corrupted` error naming the file, the class and the
/// defect — while a query over a co-resident record keeps serving.
#[test]
fn checksum_consistent_record_with_out_of_range_operand_fails_only_its_queries() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let (healthy_name, healthy_f) = &funcs[0];
    let (victim_name, victim_f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        },
        ..EngineConfig::default()
    });
    engine.add_target(
        format!("t-{healthy_name}"),
        &clang.compile_function(healthy_f),
    );
    engine.add_target(
        format!("t-{victim_name}"),
        &clang.compile_function(victim_f),
    );
    let export = engine.export_corpus().unwrap();
    let dir = scratch("reencoded");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let healthy_classes: std::collections::BTreeSet<usize> = export.targets[0]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .collect();
    let shard_file = dir.join("shard-0000.bin");
    let mut bytes = std::fs::read(&shard_file).unwrap();
    let ranges = esh_index::shard_record_ranges(&dir, 0).unwrap();
    let blobs = blob_region(&bytes, ranges.len());
    let old_meta = fnv(&[&bytes[..blobs.start], &bytes[blobs.end..]]);
    let mut poisoned = 0usize;
    for (i, &(ci, start, len)) in ranges.iter().enumerate() {
        if healthy_classes.contains(&ci) {
            continue;
        }
        let at = start as usize..(start + len) as usize;
        let mut p = esh_index::decode_record(&bytes[at.clone()]).unwrap();
        let out_of_range = Operand::Var(VarId(p.vars.len() as u32));
        let Some(arg) = p
            .stmts
            .iter_mut()
            .flat_map(|s| s.args.iter_mut())
            .find(|a| matches!(a, Operand::Var(_)))
        else {
            continue;
        };
        *arg = out_of_range;
        let record = esh_index::encode_record(&p);
        assert_eq!(record.len(), at.len(), "a var id re-encodes in place");
        bytes[at].copy_from_slice(&record);
        let row = 32 + 24 * i + 16;
        bytes[row..row + 8].copy_from_slice(&fnv(&[&record]).to_le_bytes());
        poisoned += 1;
    }
    assert!(poisoned > 0, "victim target shares every class");
    std::fs::write(&shard_file, &bytes).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let meta_key = format!("\"meta_checksum\":{old_meta}");
    assert!(text.contains(&meta_key), "manifest shape changed");
    let meta = fnv(&[&bytes[..blobs.start], &bytes[blobs.end..]]);
    let text = text.replace(&meta_key, &format!("\"meta_checksum\":{meta}"));
    std::fs::write(&manifest, text).unwrap();

    let lazy = open_sharded(&dir).unwrap();
    let healthy_q = gcc.compile_function(healthy_f);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("the co-resident records are intact");
    assert_eq!(ok.ranked()[0].name, format!("t-{healthy_name}"));

    let poisoned_q = gcc.compile_function(victim_f);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("shard-0000.bin"),
                "error must name the shard file: {msg}"
            );
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(
                msg.contains("out-of-range var"),
                "error must say why: {msg}"
            );
        }
        Ok(_) => panic!("query over an invalid record reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive an invalid-record error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A shard file that shrinks under an open shard: with two targets in
/// one shard and the file cut at the first record only the victim
/// target owns, the victim's query fails with a typed error naming the
/// file and the class, while the healthy target's records — decoded
/// before the cut — keep serving bit-identically.
#[test]
fn shard_truncated_after_open_fails_only_queries_reading_past_the_cut() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let (healthy_name, healthy_f) = &funcs[0];
    let (victim_name, victim_f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        },
        ..EngineConfig::default()
    });
    engine.add_target(
        format!("t-{healthy_name}"),
        &clang.compile_function(healthy_f),
    );
    engine.add_target(
        format!("t-{victim_name}"),
        &clang.compile_function(victim_f),
    );
    let export = engine.export_corpus().unwrap();
    let dir = scratch("truncate");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let healthy_classes: std::collections::BTreeSet<usize> = export.targets[0]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .collect();
    let cut = esh_index::shard_record_ranges(&dir, 0)
        .unwrap()
        .into_iter()
        .filter(|(ci, _, _)| !healthy_classes.contains(ci))
        .map(|(_, start, _)| start)
        .min()
        .expect("victim target shares every class");

    let lazy = open_sharded(&dir).unwrap();
    let healthy_q = gcc.compile_function(healthy_f);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("the intact shard must serve");
    assert_eq!(ok.ranked()[0].name, format!("t-{healthy_name}"));

    let shard_file = dir.join("shard-0000.bin");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&shard_file)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let victim_q = gcc.compile_function(victim_f);
    match lazy.query_cancellable(&victim_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("shard-0000.bin"),
                "error must name the shard file: {msg}"
            );
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(msg.contains("truncated"), "error must say why: {msg}");
        }
        Ok(_) => panic!("query past the cut reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("records decoded before the cut must keep serving");
    assert_eq!(ok.scores.len(), again.scores.len());
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repairing_the_shard_restores_service_without_reopening() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let funcs = demo::cve_functions();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    for (name, f) in &funcs {
        engine.add_target(format!("t-{name}"), &clang.compile_function(f));
    }
    let dir = scratch("repair");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let shard0 = dir.join("shard-0000.bin");
    let original = std::fs::read(&shard0).unwrap();
    let mut tampered = original.clone();
    tampered[original.len() / 3] ^= 0x01;
    std::fs::write(&shard0, &tampered).unwrap();

    let lazy = open_sharded(&dir).unwrap();
    let q = gcc.compile_function(&funcs[0].1);
    assert!(matches!(
        lazy.query_cancellable(&q, &CancelToken::new()),
        Err(QueryError::Corrupted(_))
    ));

    // Restore the file: because loads are retried (no error latch in the
    // slot), the same engine recovers in place.
    std::fs::write(&shard0, &original).unwrap();
    let scores = lazy
        .query_cancellable(&q, &CancelToken::new())
        .expect("repaired shard must load on retry");
    assert_eq!(scores.ranked()[0].name, format!("t-{}", funcs[0].0));

    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest edited to sketch knobs no query can run with — its
/// fingerprint recomputed, so the fingerprint check passes — is refused
/// at open with a typed error. (Unchecked, a zero-row shape with 2^34
/// bands opened fine and the first query aborted allocating its band
/// keys.)
#[test]
fn hostile_sketch_knobs_are_rejected_at_open() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("knobs");
    write_sharded(&engine, &dir, 1).unwrap();
    let path = dir.join("manifest.json");
    let pristine = std::fs::read_to_string(&path).unwrap();
    let base = engine.config().sketch;
    let recorded = serde_json::to_string(&base).unwrap();
    let recorded_fp = format!("\"config_fingerprint\":{}", engine.config().fingerprint());
    assert!(pristine.contains(&recorded) && pristine.contains(&recorded_fp));
    let huge = 1usize << 34;
    let margin = "\"exact_fallback_margin\":0.7";
    let infinite = recorded.replace(margin, "\"exact_fallback_margin\":1e999");
    for (sketch, json, why) in [
        (
            PrefilterConfig {
                bands: huge,
                rows: 0,
                ..base
            },
            None,
            "shape",
        ),
        (
            PrefilterConfig {
                bands: huge,
                rows: huge,
                ..base
            },
            None,
            "shape",
        ),
        (
            PrefilterConfig {
                vectors: usize::MAX,
                ..base
            },
            None,
            "shape",
        ),
        (
            PrefilterConfig {
                exact_fallback_margin: f64::INFINITY,
                ..base
            },
            Some(infinite),
            "finite",
        ),
        // Sane knobs, but `core.bin` holds 4 × 4 minhash words per sketch.
        (PrefilterConfig { bands: 2, ..base }, None, "minhash words"),
    ] {
        let json = json.unwrap_or_else(|| serde_json::to_string(&sketch).unwrap());
        let fp = EngineConfig {
            sketch,
            ..engine.config().clone()
        }
        .fingerprint();
        let text = pristine
            .replace(&recorded, &json)
            .replace(&recorded_fp, &format!("\"config_fingerprint\":{fp}"));
        std::fs::write(&path, text).unwrap();
        match open_sharded(&dir) {
            Err(IndexError::Format { detail, .. }) => assert!(detail.contains(why), "{detail}"),
            Ok(_) => panic!("{json} opened"),
            Err(e) => panic!("{json}: expected a format error, got {e}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewriting an opened index loads every record, so a corrupt one must
/// fail the write with a typed error naming its shard — not panic
/// inside `write_sharded` — before any file is written.
#[test]
fn rewriting_a_lazy_engine_with_a_corrupt_record_is_an_error() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("rewrite");
    write_sharded(&engine, dir.join("a.eshx"), 2).unwrap();
    let shard_file = dir.join("a.eshx").join("shard-0000.bin");
    let mut bytes = std::fs::read(&shard_file).unwrap();
    let (_, start, len) = esh_index::shard_record_ranges(dir.join("a.eshx"), 0).unwrap()[0];
    bytes[(start + len / 2) as usize] ^= 0x40;
    std::fs::write(&shard_file, &bytes).unwrap();

    let lazy = open_sharded(dir.join("a.eshx")).unwrap();
    match write_sharded(&lazy, dir.join("b.eshx"), 2) {
        Err(IndexError::Format { detail, .. }) => {
            assert!(
                detail.contains("shard-0000.bin"),
                "error must name the shard file: {detail}"
            );
            assert!(
                detail.contains("checksum mismatch"),
                "error must say why: {detail}"
            );
        }
        Ok(_) => panic!("an index with a corrupt record was rewritten"),
        Err(e) => panic!("expected a format error, got {e}"),
    }
    assert!(
        !dir.join("b.eshx").exists(),
        "a failed rewrite writes nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte range of the first class's sketch in `core.bin`: its flag byte,
/// then the digest and minhash vectors (each a `u32` count and that many
/// `u64`s). The class row before it is the name (`u32` length + bytes),
/// hash, vars, then the signature's `u32` round count and its `u64`
/// vectors.
fn first_sketch(core: &[u8]) -> std::ops::Range<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(core[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 8 + 16;
    at += 4 + u32_at(at) + 16;
    let rounds = u32_at(at);
    at += 4;
    for _ in 0..rounds {
        at += 4 + 8 * u32_at(at);
    }
    let start = at;
    assert_eq!(core[at], 1, "the first class carries a sketch");
    at += 1;
    for _ in 0..2 {
        at += 4 + 8 * u32_at(at);
    }
    start..at
}

/// Under an enabled sketch tier every class carries its sketch. A
/// `core.bin` whose first class has none — its checksum and size in the
/// manifest recomputed, so every checksum passes — is refused at open
/// with a typed error. (Accepted, the first query rebuilt the missing
/// sketch from the class's record under the sketch-index lock, where a
/// corrupt record panicked and poisoned the lock for every later query.)
#[test]
fn sketchless_class_under_an_enabled_tier_is_rejected_at_open() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("sketchless");
    write_sharded(&engine, &dir, 1).unwrap();
    let core_path = dir.join("core.bin");
    let mut core = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let old = format!(
        "\"core_bytes\":{},\"core_checksum\":{}",
        core.len(),
        fnv(&[&core])
    );
    assert!(text.contains(&old), "manifest shape changed");
    core.splice(first_sketch(&core), [0u8]);
    std::fs::write(&core_path, &core).unwrap();
    let new = format!(
        "\"core_bytes\":{},\"core_checksum\":{}",
        core.len(),
        fnv(&[&core])
    );
    std::fs::write(&manifest, text.replace(&old, &new)).unwrap();
    match open_sharded(&dir) {
        Err(IndexError::Format { detail, .. }) => {
            assert!(detail.contains("has no sketch"), "{detail}")
        }
        Ok(_) => panic!("a sketchless class opened under an enabled tier"),
        Err(e) => panic!("expected a format error, got {e}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `core.bin` is read only once its size matches the manifest's
/// `core_bytes`, and then only those bytes. A `core.bin` replaced by a
/// symlink to `/dev/zero` (a device that reports no size and never
/// ends) or grown past its recorded size is a typed format error at
/// open. (Read whole before the size check, the symlink read until
/// memory ran out.)
#[cfg(unix)]
#[test]
fn core_bin_of_the_wrong_size_is_refused_before_it_is_read() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("core-size");
    write_sharded(&engine, &dir, 1).unwrap();
    let core_path = dir.join("core.bin");
    let original = std::fs::read(&core_path).unwrap();
    let expect_refused = |what: &str| match open_sharded(&dir) {
        Err(IndexError::Format { path, detail }) => {
            assert_eq!(path, core_path, "{what}");
            assert!(detail.contains("manifest says"), "{what}: {detail}");
        }
        Ok(_) => panic!("{what}: opened"),
        Err(e) => panic!("{what}: expected a format error, got {e}"),
    };

    std::fs::remove_file(&core_path).unwrap();
    std::os::unix::fs::symlink("/dev/zero", &core_path).unwrap();
    expect_refused("symlink to /dev/zero");

    std::fs::remove_file(&core_path).unwrap();
    let mut grown = original.clone();
    grown.extend_from_slice(&[0u8; 64]);
    std::fs::write(&core_path, &grown).unwrap();
    expect_refused("oversized core.bin");

    std::fs::write(&core_path, &original).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte ranges of one class row's sorted vectors in `core.bin`: each
/// signature round's words, then its sketch digests (when it has a
/// sketch). The ranges hold the `u64` words only, after their `u32`
/// counts. `end` is where the next row starts.
struct SortedVectors {
    rounds: Vec<std::ops::Range<usize>>,
    digests: Option<std::ops::Range<usize>>,
    end: usize,
}

/// The sorted vectors of every class row in `core.bin`; see
/// [`first_sketch`] for the row layout.
fn sorted_vectors(core: &[u8]) -> Vec<SortedVectors> {
    let u32_at = |at: usize| u32::from_le_bytes(core[at..at + 4].try_into().unwrap()) as usize;
    let classes = u64::from_le_bytes(core[8..16].try_into().unwrap()) as usize;
    let mut at = 8 + 16;
    let words = |at: &mut usize| {
        let n = u32_at(*at);
        *at += 4 + 8 * n;
        *at - 8 * n..*at
    };
    (0..classes)
        .map(|_| {
            at += 4 + u32_at(at) + 16;
            let rounds = u32_at(at);
            at += 4;
            let rounds = (0..rounds).map(|_| words(&mut at)).collect();
            at += 1;
            let digests = (core[at - 1] == 1).then(|| {
                let digests = words(&mut at);
                words(&mut at);
                digests
            });
            SortedVectors {
                rounds,
                digests,
                end: at,
            }
        })
        .collect()
}

/// Reverses the `u64` words in `range` of `core`.
fn reverse_words(core: &mut [u8], range: std::ops::Range<usize>) {
    let mut words: Vec<[u8; 8]> = core[range.clone()]
        .chunks_exact(8)
        .map(|w| w.try_into().unwrap())
        .collect();
    words.reverse();
    core[range].copy_from_slice(&words.concat());
}

/// The prefilter's signature and sketch-containment merges assume
/// sorted input. A `core.bin` with one signature round reversed, one
/// sketch's digests reversed, or one signature missing a round — its
/// size and checksum in the manifest recomputed, so every checksum
/// passes — is refused at open with a typed error. (Accepted, the
/// reversed vectors silently flipped prune decisions and so moved
/// rankings.)
#[test]
fn unsorted_or_short_signatures_and_sketches_are_rejected_at_open() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("unsorted");
    write_sharded(&engine, &dir, 1).unwrap();
    let core_path = dir.join("core.bin");
    let pristine = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let core_key = |core: &[u8]| {
        format!(
            "\"core_bytes\":{},\"core_checksum\":{}",
            core.len(),
            fnv(&[core])
        )
    };
    assert!(
        text.contains(&core_key(&pristine)),
        "manifest shape changed"
    );
    let expect_refused = |core: &[u8], why: &str| {
        std::fs::write(&core_path, core).unwrap();
        std::fs::write(
            &manifest,
            text.replace(&core_key(&pristine), &core_key(core)),
        )
        .unwrap();
        match open_sharded(&dir) {
            Err(IndexError::Format { detail, .. }) => assert!(detail.contains(why), "{detail}"),
            Ok(_) => panic!("`{why}` opened"),
            Err(e) => panic!("`{why}`: expected a format error, got {e}"),
        }
    };
    // A vector whose reversal is out of order: at least two distinct words.
    let unsorted_when_reversed = |r: &std::ops::Range<usize>| {
        pristine[r.clone()]
            .chunks_exact(8)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 1
    };
    let rows = sorted_vectors(&pristine);

    let round = rows
        .iter()
        .flat_map(|row| &row.rounds)
        .find(|r| unsorted_when_reversed(r))
        .expect("some signature round has two distinct values")
        .clone();
    let mut core = pristine.clone();
    reverse_words(&mut core, round);
    expect_refused(&core, "signature round is not sorted");

    let digests = rows
        .iter()
        .filter_map(|row| row.digests.clone())
        .find(unsorted_when_reversed)
        .expect("some sketch has two distinct digests");
    let mut core = pristine.clone();
    reverse_words(&mut core, digests);
    expect_refused(&core, "sketch digests are not sorted");

    // Drop the first class's second round: its count word and words.
    let rounds = &rows[0].rounds;
    assert_eq!(rounds.len(), 2, "two signature seeds");
    let mut core = pristine.clone();
    core.drain(rounds[1].start - 4..rounds[1].end);
    let count_at = rounds[0].start - 8;
    core[count_at..count_at + 4].copy_from_slice(&1u32.to_le_bytes());
    expect_refused(&core, "signature has 1 rounds, not 2");

    std::fs::write(&core_path, &pristine).unwrap();
    std::fs::write(&manifest, &text).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}

/// Counts in `core.bin` size no allocation beyond what the rest of the
/// file could hold. A class count, a target count or a signature round
/// count rewritten to a huge value — checksum recomputed — is a typed
/// format error at open. (Sized from the count, the first two aborted
/// the process on a failed multi-terabyte allocation.)
#[test]
fn huge_counts_in_core_bin_are_a_format_error() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("huge-counts");
    write_sharded(&engine, &dir, 1).unwrap();
    let core_path = dir.join("core.bin");
    let pristine = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let checksum_key = |core: &[u8]| format!("\"core_checksum\":{}", fnv(&[core]));
    assert!(
        text.contains(&checksum_key(&pristine)),
        "manifest shape changed"
    );
    let round_count_at = sorted_vectors(&pristine)[0].rounds[0].start - 8;
    for (what, at, word) in [
        ("class count", 8, (1u64 << 40).to_le_bytes().to_vec()),
        ("target count", 16, (1u64 << 40).to_le_bytes().to_vec()),
        (
            "round count",
            round_count_at,
            u32::MAX.to_le_bytes().to_vec(),
        ),
    ] {
        let mut core = pristine.clone();
        core[at..at + word.len()].copy_from_slice(&word);
        std::fs::write(&core_path, &core).unwrap();
        std::fs::write(
            &manifest,
            text.replace(&checksum_key(&pristine), &checksum_key(&core)),
        )
        .unwrap();
        match open_sharded(&dir) {
            Err(IndexError::Format { path, .. }) => assert_eq!(path, core_path, "{what}"),
            Ok(_) => panic!("{what}: opened"),
            Err(e) => panic!("{what}: expected a format error, got {e}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `manifest.json` records no size of its own, so its read stops at a
/// fixed cap. A manifest replaced by a symlink to `/dev/zero` (a device
/// that never ends) or by a sparse file past the cap is a typed format
/// error at open and at `read_manifest`. (Read whole, the symlink read
/// until memory ran out.)
#[cfg(unix)]
#[test]
fn manifest_past_the_size_cap_is_refused_without_reading_it_whole() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in demo::cve_functions().iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    let dir = scratch("manifest-size");
    write_sharded(&engine, &dir, 1).unwrap();
    let path = dir.join("manifest.json");
    let original = std::fs::read(&path).unwrap();
    let expect_refused = |what: &str| {
        for result in [
            open_sharded(&dir).map(drop),
            esh_index::read_manifest(&dir).map(drop),
        ] {
            match result {
                Err(IndexError::Format { path: p, detail }) => {
                    assert_eq!(p, path, "{what}");
                    assert!(detail.contains("manifest cap"), "{what}: {detail}");
                }
                Ok(()) => panic!("{what}: opened"),
                Err(e) => panic!("{what}: expected a format error, got {e}"),
            }
        }
    };

    std::fs::remove_file(&path).unwrap();
    std::os::unix::fs::symlink("/dev/zero", &path).unwrap();
    expect_refused("symlink to /dev/zero");

    std::fs::remove_file(&path).unwrap();
    std::fs::File::create(&path)
        .unwrap()
        .set_len((64 << 20) + 1)
        .unwrap();
    expect_refused("sparse manifest one byte past the cap");

    std::fs::write(&path, &original).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}

/// Offset of every target row's `(class index, occurrences)` pairs in
/// `core.bin`, after the class rows: each row is the target's name
/// (`u32` length + bytes), then a `u32` pair count and the pairs, two
/// `u64`s each.
fn target_strands(core: &[u8]) -> Vec<std::ops::Range<usize>> {
    let u32_at = |at: usize| u32::from_le_bytes(core[at..at + 4].try_into().unwrap()) as usize;
    let targets = u64::from_le_bytes(core[16..24].try_into().unwrap()) as usize;
    let mut at = sorted_vectors(core).last().map_or(8 + 16, |row| row.end);
    (0..targets)
        .map(|_| {
            at += 4 + u32_at(at);
            let pairs = u32_at(at);
            at += 4 + 16 * pairs;
            at - 16 * pairs..at
        })
        .collect()
}

/// `core.bin` stores no corpus counts: each class's H0 weight is the sum
/// of its occurrences over the target strand lists. Two targets sharing
/// a class whose occurrence counts overflow `u64` when summed — the
/// checksum recomputed, so every checksum passes — are a typed format
/// error at open, never a panic or a wrapped sum.
#[test]
fn occurrence_counts_that_overflow_when_summed_are_a_format_error() {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    // Two targets compiled from one function share every class.
    let f = clang.compile_function(&demo::cve_functions()[0].1);
    engine.add_target("a", &f);
    engine.add_target("b", &f);
    let dir = scratch("count-overflow");
    write_sharded(&engine, &dir, 1).unwrap();
    let core_path = dir.join("core.bin");
    let pristine = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let checksum_key = |core: &[u8]| format!("\"core_checksum\":{}", fnv(&[core]));
    assert!(
        text.contains(&checksum_key(&pristine)),
        "manifest shape changed"
    );
    let rows = target_strands(&pristine);
    assert_eq!(rows.len(), 2);
    assert_eq!(
        pristine[rows[0].clone()],
        pristine[rows[1].clone()],
        "same strand lists"
    );
    // The first pair's count: the second `u64` of the first target's row.
    let count_at = rows[0].start + 8;
    let mut core = pristine.clone();
    core[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&core_path, &core).unwrap();
    std::fs::write(
        &manifest,
        text.replace(&checksum_key(&pristine), &checksum_key(&core)),
    )
    .unwrap();
    match open_sharded(&dir) {
        Err(IndexError::Format { detail, .. }) => assert!(detail.contains("overflow"), "{detail}"),
        Ok(_) => panic!("occurrence counts that overflow u64 opened"),
        Err(e) => panic!("expected a format error, got {e}"),
    }

    std::fs::write(&core_path, &pristine).unwrap();
    std::fs::write(&manifest, &text).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every checksum covers bytes, not meaning: a shard whose record for
/// each class only the victim target owns is replaced by another class's
/// record — the offset table's offsets, lengths and checksums and the
/// manifest's `bytes` and `meta_checksum` recomputed — passes every
/// checksum and decodes to a valid procedure. Unchecked, that strand
/// would be verified, and its verdicts cached, under the wrong class's
/// key. The record is checked against its class's structural hash and
/// variable count as it decodes, so the victim's query fails with a
/// typed error naming the shard and the class, while the co-resident
/// healthy target keeps serving.
#[test]
fn record_swapped_for_another_class_fails_only_queries_decoding_it() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let (healthy_name, healthy_f) = &funcs[0];
    let (victim_name, victim_f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 2,
        sketch: PrefilterConfig {
            refine_top_k: 0,
            ..PrefilterConfig::lsh_only()
        },
        ..EngineConfig::default()
    });
    engine.add_target(
        format!("t-{healthy_name}"),
        &clang.compile_function(healthy_f),
    );
    engine.add_target(
        format!("t-{victim_name}"),
        &clang.compile_function(victim_f),
    );
    let export = engine.export_corpus().unwrap();
    let dir = scratch("swapped");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let healthy_classes: std::collections::BTreeSet<usize> = export.targets[0]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .collect();
    let shard_file = dir.join("shard-0000.bin");
    let bytes = std::fs::read(&shard_file).unwrap();
    let ranges = esh_index::shard_record_ranges(&dir, 0).unwrap();
    let blobs = blob_region(&bytes, ranges.len());
    let old_meta = fnv(&[&bytes[..blobs.start], &bytes[blobs.end..]]);
    let record = |start: u64, len: u64| bytes[start as usize..(start + len) as usize].to_vec();
    let (_, donor_start, donor_len) = *ranges
        .iter()
        .find(|(ci, _, _)| healthy_classes.contains(ci))
        .expect("the healthy target owns a record");
    let mut swapped = 0usize;
    let records: Vec<Vec<u8>> = ranges
        .iter()
        .map(|&(ci, start, len)| {
            if healthy_classes.contains(&ci) {
                record(start, len)
            } else {
                swapped += 1;
                record(donor_start, donor_len)
            }
        })
        .collect();
    assert!(swapped > 0, "victim target shares every class");

    // Re-lay the blob region and the offset table around the new records.
    let table_at = |i: usize| 32 + 24 * i;
    let mut out = bytes[..table_at(0)].to_vec();
    let mut offset = 0u64;
    for r in &records {
        for word in [offset, r.len() as u64, fnv(&[r])] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        offset += r.len() as u64;
    }
    out.extend_from_slice(&offset.to_le_bytes());
    let new_blobs = out.len()..out.len() + offset as usize;
    out.extend(records.concat());
    out.extend_from_slice(&bytes[blobs.end..]);
    std::fs::write(&shard_file, &out).unwrap();

    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let old_row = format!("\"bytes\":{},\"meta_checksum\":{old_meta}", bytes.len());
    assert!(text.contains(&old_row), "manifest shape changed");
    let meta = fnv(&[&out[..new_blobs.start], &out[new_blobs.end..]]);
    let new_row = format!("\"bytes\":{},\"meta_checksum\":{meta}", out.len());
    std::fs::write(&manifest, text.replace(&old_row, &new_row)).unwrap();

    let lazy = open_sharded(&dir).unwrap();
    let healthy_q = gcc.compile_function(healthy_f);
    let ok = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("the healthy target's records are intact");
    assert_eq!(ok.ranked()[0].name, format!("t-{healthy_name}"));

    let poisoned_q = gcc.compile_function(victim_f);
    match lazy.query_cancellable(&poisoned_q, &CancelToken::new()) {
        Err(QueryError::Corrupted(e)) => {
            let msg = e.to_string();
            assert_eq!(e.shard, 0, "error must name the shard: {msg}");
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(msg.contains("structural hash"), "error must say why: {msg}");
        }
        Ok(_) => panic!("a query over a swapped record reported success"),
        Err(e) => panic!("expected Corrupted, got {e}"),
    }

    let again = lazy
        .query_cancellable(&healthy_q, &CancelToken::new())
        .expect("engine must survive a swapped-record error");
    for (x, y) in ok.scores.iter().zip(&again.scores) {
        assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A persisted verdict is a VCP, a fraction in `[0, 1]`. A verdict in
/// `core.bin` rewritten to NaN or to a value outside `[0, 1]`, with the
/// manifest's `core_checksum` recomputed, passes every checksum; the
/// open must still refuse it with a typed format error naming
/// `core.bin`, or the value would flow into H0 and every GES of a query
/// pricing the cell. Verdicts load at open, so a bad one fails the whole
/// open rather than only the queries that read it.
#[test]
fn out_of_range_persisted_verdict_is_refused_at_open() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let (name, f) = funcs.last().unwrap();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    engine.add_target(format!("t-{name}"), &clang.compile_function(f));
    // The query's own class verifies exactly, so its verdict persists.
    engine.query(&gcc.compile_function(f));
    let dir = scratch("verdict");
    write_sharded(&engine, &dir, 1).unwrap();
    drop(engine);

    let core_path = dir.join("core.bin");
    let pristine = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let checksum_key = |core: &[u8]| format!("\"core_checksum\":{}", fnv(&[core]));
    assert!(
        text.contains(&checksum_key(&pristine)),
        "manifest shape changed"
    );
    // The verdict table is the entry count, then 40-byte entries: three
    // key words, `q_in_t`, `t_in_q`.
    let table = verdict_table(&pristine);
    let count = u64::from_le_bytes(pristine[table..table + 8].try_into().unwrap());
    assert!(count > 0, "the warmed index persists no verdict");
    let q_in_t = table + 8 + 24;
    for (tag, bad) in [("nan", f64::NAN), ("big", 1.5), ("neg", -0.25)] {
        let mut core = pristine.clone();
        core[q_in_t..q_in_t + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        std::fs::write(&core_path, &core).unwrap();
        std::fs::write(
            &manifest,
            text.replace(&checksum_key(&pristine), &checksum_key(&core)),
        )
        .unwrap();
        match open_sharded(&dir) {
            Err(IndexError::Format { path, detail }) => {
                assert_eq!(path, core_path, "{tag}: error must name core.bin");
                assert!(detail.contains("verdict table"), "{tag}: {detail}");
                assert!(detail.contains("outside [0, 1]"), "{tag}: {detail}");
            }
            Ok(_) => panic!("{tag}: an index with an out-of-range verdict opened"),
            Err(e) => panic!("{tag}: expected a format error, got {e}"),
        }
    }
    std::fs::write(&core_path, &pristine).unwrap();
    std::fs::write(&manifest, &text).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}

/// Offset of the verdict table in `core.bin`: it follows the last target
/// row.
fn verdict_table(core: &[u8]) -> usize {
    target_strands(core).last().expect("a target row").end
}

/// xorshift64: a seeded, dependency-free source of mutations.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every count, length and index field of `core.bin`, as `(offset,
/// width)`: the class and target counts; per class row its name length,
/// vars, signature round count and round lengths, sketch flag and sketch
/// vector lengths; per target row its name length, strand count and each
/// pair's class index; and the verdict count.
fn core_fields(core: &[u8]) -> Vec<(usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(core[at..at + 4].try_into().unwrap()) as usize;
    let mut fields = vec![(8, 8), (16, 8)];
    let mut at = 24;
    let vectors = |at: &mut usize, fields: &mut Vec<(usize, usize)>| {
        fields.push((*at, 4));
        *at += 4 + 8 * u32_at(*at);
    };
    for _ in 0..u64::from_le_bytes(core[8..16].try_into().unwrap()) {
        fields.push((at, 4));
        at += 4 + u32_at(at);
        fields.push((at + 8, 8));
        at += 16;
        fields.push((at, 4));
        let rounds = u32_at(at);
        at += 4;
        for _ in 0..rounds {
            vectors(&mut at, &mut fields);
        }
        fields.push((at, 1));
        at += 1;
        if core[at - 1] == 1 {
            vectors(&mut at, &mut fields);
            vectors(&mut at, &mut fields);
        }
    }
    for _ in 0..u64::from_le_bytes(core[16..24].try_into().unwrap()) {
        fields.push((at, 4));
        at += 4 + u32_at(at);
        fields.push((at, 4));
        let pairs = u32_at(at);
        at += 4;
        for _ in 0..pairs {
            fields.push((at, 8));
            at += 16;
        }
    }
    assert_eq!(at, verdict_table(core), "core.bin layout changed");
    fields.push((at, 8));
    fields
}

/// A seeded, std-only mutation loop over a cache-primed `core.bin`:
/// truncations at every field boundary and at seeded offsets, seeded
/// 1–4 bit flips (verdict table included), and every count, length and
/// index field rewritten to 0, 1, the file length ± 1, half and all of
/// its width's range, and its own value ± 1. The manifest's `core_bytes`
/// and `core_checksum` are re-signed for each case, so every edit gets
/// past the size and checksum checks. Each case must open `Ok` or fail
/// with a typed `IndexError` — no panic, and no single allocation larger
/// than a small multiple of the file's size (a decoded row is wider than
/// its encoding: a 4-byte signature round becomes a 24-byte vector).
#[test]
fn hostile_core_bin_opens_or_is_a_typed_error() {
    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let funcs = demo::cve_functions();
    let mut engine = SimilarityEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for (name, f) in funcs.iter().take(2) {
        engine.add_target(*name, &clang.compile_function(f));
    }
    engine.query(&gcc.compile_function(&funcs[0].1));
    let dir = scratch("hostile-core");
    write_sharded(&engine, &dir, 1).unwrap();
    drop(engine);
    let core_path = dir.join("core.bin");
    let pristine = std::fs::read(&core_path).unwrap();
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let core_key = |core: &[u8]| {
        format!(
            "\"core_bytes\":{},\"core_checksum\":{}",
            core.len(),
            fnv(&[core])
        )
    };
    assert!(
        text.contains(&core_key(&pristine)),
        "manifest shape changed"
    );
    let table = verdict_table(&pristine);
    assert!(
        pristine[table..table + 8] != [0; 8],
        "the primed index persists no verdict"
    );
    let fields = core_fields(&pristine);
    let len = pristine.len();
    let mut rng = XorShift(0x5EED_C0DE_0B1E_0009);

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    let mut cuts: Vec<usize> = fields.iter().flat_map(|&(at, w)| [at, at + w]).collect();
    cuts.extend([0, 4, table + 8, table + 8 + 20, len - 1]);
    cuts.extend((0..64).map(|_| rng.below(len)));
    cuts.retain(|&c| c < len);
    for cut in cuts {
        cases.push((format!("cut at {cut}"), pristine[..cut].to_vec()));
    }
    for k in 0..256 {
        let mut core = pristine.clone();
        // Every fourth set lands in the verdict table.
        let (lo, span) = if k % 4 == 0 {
            (table, len - table)
        } else {
            (0, len)
        };
        for _ in 0..1 + rng.below(4) {
            core[lo + rng.below(span)] ^= 1 << rng.below(8);
        }
        cases.push((format!("flip set {k}"), core));
    }
    for &(at, width) in &fields {
        let old = match width {
            1 => u64::from(pristine[at]),
            4 => u64::from(u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap())),
            _ => u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap()),
        };
        let max = if width == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * width)) - 1
        };
        let n = len as u64;
        for v in [
            0,
            1,
            n - 1,
            n,
            n + 1,
            max / 2,
            max,
            old.wrapping_add(1),
            old.wrapping_sub(1),
        ] {
            let v = v & max;
            let mut core = pristine.clone();
            core[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
            if core != pristine {
                cases.push((format!("{width}-byte field at {at} = {v}"), core));
            }
        }
    }

    let (mut opened, mut refused) = (0usize, 0usize);
    for (case, core) in &cases {
        std::fs::write(&core_path, core).unwrap();
        std::fs::write(
            &manifest,
            text.replace(&core_key(&pristine), &core_key(core)),
        )
        .unwrap();
        let (out, largest) =
            support::largest_alloc(|| std::panic::catch_unwind(|| open_sharded(&dir).map(drop)));
        let out = out.unwrap_or_else(|_| panic!("{case}: open panicked"));
        assert!(
            largest <= 8 * len + 4096,
            "{case}: a {}-byte core.bin allocated {largest} bytes at once",
            core.len()
        );
        match out {
            Ok(()) => opened += 1,
            Err(IndexError::Format { .. }) => refused += 1,
            Err(e) => panic!("{case}: expected Ok or a format error, got {e}"),
        }
    }
    assert!(cases.len() > 1000, "only {} cases ran", cases.len());
    assert!(
        opened > 0 && refused > 0,
        "{opened} opened, {refused} refused"
    );

    std::fs::write(&core_path, &pristine).unwrap();
    std::fs::write(&manifest, &text).unwrap();
    assert!(open_sharded(&dir).is_ok(), "the restored index must open");
    std::fs::remove_dir_all(&dir).ok();
}
