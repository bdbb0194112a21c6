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

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{CancelToken, EngineConfig, PrefilterConfig, QueryError, SimilarityEngine};
use esh_index::{open_sharded, write_sharded, IndexError};
use esh_ivl::{Operand, VarId};
use esh_minic::demo;

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
            assert!(msg.contains(&victim_name), "error must name the shard file: {msg}");
            assert!(msg.contains("checksum mismatch"), "error must say why: {msg}");
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
    engine.add_target(format!("t-{healthy_name}"), &clang.compile_function(healthy_f));
    engine.add_target(format!("t-{victim_name}"), &clang.compile_function(victim_f));
    let export = engine.export_corpus().unwrap();
    let dir = scratch("neighbour");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    // Classes owned by the victim target and NOT by the healthy one —
    // the records whose bytes the healthy query must never checksum.
    let healthy_classes: std::collections::BTreeSet<usize> =
        export.targets[0].strands.iter().map(|&(ci, _)| ci).collect();
    let victim_classes: std::collections::BTreeSet<usize> = export.targets[1]
        .strands
        .iter()
        .map(|&(ci, _)| ci)
        .filter(|ci| !healthy_classes.contains(ci))
        .collect();
    assert!(!victim_classes.is_empty(), "victim target shares every class");

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
            assert!(msg.contains("shard-0000.bin"), "error must name the shard file: {msg}");
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(msg.contains("checksum mismatch"), "error must say why: {msg}");
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
/// out-of-range operand, with its offset-table checksum, the shard's
/// structural `meta_checksum` and the file `checksum` in the manifest
/// all recomputed, passes every checksum. Decoding must still refuse
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
    engine.add_target(format!("t-{healthy_name}"), &clang.compile_function(healthy_f));
    engine.add_target(format!("t-{victim_name}"), &clang.compile_function(victim_f));
    let export = engine.export_corpus().unwrap();
    let dir = scratch("reencoded");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let healthy_classes: std::collections::BTreeSet<usize> =
        export.targets[0].strands.iter().map(|&(ci, _)| ci).collect();
    let shard_file = dir.join("shard-0000.bin");
    let mut bytes = std::fs::read(&shard_file).unwrap();
    let ranges = esh_index::shard_record_ranges(&dir, 0).unwrap();
    let blobs = blob_region(&bytes, ranges.len());
    let old_sum = fnv(&[&bytes]);
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
    let sum_key = format!("\"checksum\":{old_sum}");
    let meta_key = format!("\"meta_checksum\":{old_meta}");
    assert!(text.contains(&sum_key) && text.contains(&meta_key), "manifest shape changed");
    let meta = fnv(&[&bytes[..blobs.start], &bytes[blobs.end..]]);
    let text = text
        .replace(&sum_key, &format!("\"checksum\":{}", fnv(&[&bytes])))
        .replace(&meta_key, &format!("\"meta_checksum\":{meta}"));
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
            assert!(msg.contains("shard-0000.bin"), "error must name the shard file: {msg}");
            assert!(msg.contains("class "), "error must name the class: {msg}");
            assert!(msg.contains("out-of-range var"), "error must say why: {msg}");
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
    engine.add_target(format!("t-{healthy_name}"), &clang.compile_function(healthy_f));
    engine.add_target(format!("t-{victim_name}"), &clang.compile_function(victim_f));
    let export = engine.export_corpus().unwrap();
    let dir = scratch("truncate");
    write_sharded(&engine, &dir, 2).unwrap();
    drop(engine);

    let healthy_classes: std::collections::BTreeSet<usize> =
        export.targets[0].strands.iter().map(|&(ci, _)| ci).collect();
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
            assert!(msg.contains("shard-0000.bin"), "error must name the shard file: {msg}");
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
        (PrefilterConfig { bands: huge, rows: 0, ..base }, None, "shape"),
        (PrefilterConfig { bands: huge, rows: huge, ..base }, None, "shape"),
        (PrefilterConfig { vectors: usize::MAX, ..base }, None, "shape"),
        (
            PrefilterConfig { exact_fallback_margin: f64::INFINITY, ..base },
            Some(infinite),
            "finite",
        ),
        // Sane knobs, but `core.bin` holds 4 × 4 minhash words per sketch.
        (PrefilterConfig { bands: 2, ..base }, None, "minhash words"),
    ] {
        let json = json.unwrap_or_else(|| serde_json::to_string(&sketch).unwrap());
        let fp = EngineConfig { sketch, ..engine.config().clone() }.fingerprint();
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
            assert!(detail.contains("shard-0000.bin"), "error must name the shard file: {detail}");
            assert!(detail.contains("checksum mismatch"), "error must say why: {detail}");
        }
        Ok(_) => panic!("an index with a corrupt record was rewritten"),
        Err(e) => panic!("expected a format error, got {e}"),
    }
    assert!(!dir.join("b.eshx").exists(), "a failed rewrite writes nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte range of the first class's sketch in `core.bin`: its flag byte,
/// then the digest and minhash vectors (each a `u32` count and that many
/// `u64`s). The class row before it is the name (`u32` length + bytes),
/// hash, vars, corpus count, then the signature's `u32` round count and
/// its `u64` vectors.
fn first_sketch(core: &[u8]) -> std::ops::Range<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(core[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 8 + 16;
    at += 4 + u32_at(at) + 24;
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
    let old = format!("\"core_bytes\":{},\"core_checksum\":{}", core.len(), fnv(&[&core]));
    assert!(text.contains(&old), "manifest shape changed");
    core.splice(first_sketch(&core), [0u8]);
    std::fs::write(&core_path, &core).unwrap();
    let new = format!("\"core_bytes\":{},\"core_checksum\":{}", core.len(), fnv(&[&core]));
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
