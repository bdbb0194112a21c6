#![warn(missing_docs)]

//! # esh-index — the engine's on-disk format (v6)
//!
//! The offline phase decomposes, lifts and hashes every target once; this
//! crate persists the result as a compact binary, **segment-sharded**
//! layout that loads the pricing metadata eagerly and everything else
//! lazily, so a 10k-procedure corpus opens in milliseconds instead of
//! being rebuilt:
//!
//! ```text
//! index.eshx/
//!   manifest.json    — format version, config + fingerprint, shard table
//!   core.bin         — per-class pricing metadata (hash, vars, corpus
//!                      count, signature, sketch, name) + target records
//!                      + residual cache entries; fixed little-endian
//!                      layout, loaded at open
//!   shard-0000.bin   — one per target segment: the segment's lifted
//!   shard-0001.bin     procedures behind a per-class offset table, plus
//!   ...                the VCP-cache entries keyed into the segment
//! ```
//!
//! **Sharding rule.** Targets are split into contiguous segments of
//! `targets_per_shard`. Strand classes are created in target insertion
//! order, so each segment owns the contiguous class-index range its
//! targets introduced (computed as a cumulative maximum over the
//! segment's class references). A persisted VCP-cache entry lives in the
//! shard owning the class its `class_hash` names; entries naming no
//! class (possible only in hand-edited files) fall back to the eagerly
//! loaded residual section of `core.bin`.
//!
//! **Lazy-load contract.** [`open_sharded`] returns a
//! [`SimilarityEngine`] whose shards *open* on first use, through the
//! engine's open-before-lookup rule: a shard's structural parts —
//! header, per-record offset table, VCP-cache segment — decode when the
//! shard is first touched, before the first counted cache lookup into
//! the segment, while the procedure records stay raw mapped bytes until
//! a query's pricing actually demands one (v6 demand decoding). The
//! mapping (or owned buffer) therefore lives for the shard's whole
//! residency, not just the open call. Ranked responses and cache
//! hit/miss counters are byte-identical to the resident engine the index
//! was written from — pinned by this crate's round-trip proptests.
//!
//! **Checksums** (all FNV-1a) are layered to match decode granularity:
//! the manifest records a whole-file `checksum` per file (tooling and
//! full-verification passes), plus, per shard, a structural
//! `meta_checksum` covering every byte *except* the record-blob region
//! — verified when the shard opens — while the shard's offset table
//! carries one checksum per procedure record, verified when that record
//! is first decoded. `core.bin` and `prune.bin` are verified whole at
//! open. A byte flip inside one record therefore fails only the queries
//! that decode that record, with an error naming the file and the
//! class.

use std::fmt;
use std::path::{Path, PathBuf};

use esh_core::{
    Bloom, CorpusExport, EngineConfig, LazyClassMeta, ShardBandSummary, ShardRecords, ShardSource,
    ShardSpec, SimilarityEngine, TargetExport, VcpCacheEntry, VcpPair,
};
use esh_ivl::Proc;
use esh_strands::Signature;
use serde::{Deserialize, Serialize};

mod mmap;
mod wire;

pub use mmap::Mmap;

use mmap::{read_file, FileBytes};
use wire::{checksum, checksum_parts, Reader, Writer};

/// Format version of the sharded directory layout. Versions 2–4 were a
/// retired JSON snapshot format; version 5 introduced the binary layout
/// (whole-shard decode), version 6 adds per-record checksums to the
/// shard offset tables plus a structural `meta_checksum` per shard,
/// enabling per-procedure demand decoding.
pub const SHARDED_FORMAT_VERSION: u32 = 6;

/// Manifest file name inside an index directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Core (eager) file name inside an index directory.
pub const CORE_FILE: &str = "core.bin";

/// Sketch-band prune sidecar file name inside an index directory.
pub const PRUNE_FILE: &str = "prune.bin";

const CORE_MAGIC: &[u8; 8] = b"ESHXCOR1";
const SHARD_MAGIC: &[u8; 8] = b"ESHXSHD2";
const PRUNE_MAGIC: &[u8; 8] = b"ESHXPRN1";

/// Why a sharded index failed to write or open.
#[derive(Debug)]
pub enum IndexError {
    /// Filesystem error.
    Io {
        /// File or directory being touched.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A file is not well-formed (bad magic, truncation, checksum
    /// mismatch, invalid shard table…).
    Format {
        /// File that failed to parse or verify.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The manifest was written by a format version this build does not
    /// read.
    VersionMismatch {
        /// Manifest that was rejected.
        path: PathBuf,
        /// Version recorded in the manifest.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The manifest's recorded config fingerprint disagrees with the one
    /// recomputed from its embedded configuration — the file was edited
    /// or corrupted.
    ConfigMismatch {
        /// Manifest that was rejected.
        path: PathBuf,
        /// Fingerprint recorded in the manifest.
        found: u64,
        /// Fingerprint recomputed from the embedded config.
        expected: u64,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io { path, source } => {
                write!(f, "sharded index {}: i/o: {source}", path.display())
            }
            IndexError::Format { path, detail } => {
                write!(f, "sharded index {}: malformed: {detail}", path.display())
            }
            IndexError::VersionMismatch { path, found, expected } => write!(
                f,
                "sharded index {}: format version {found} is not supported \
                 (this build reads version {expected}); rebuild the index",
                path.display()
            ),
            IndexError::ConfigMismatch { path, found, expected } => write!(
                f,
                "sharded index {}: recorded config fingerprint {found:#018x} \
                 does not match {expected:#018x} recomputed from the embedded \
                 configuration — the manifest was edited or corrupted",
                path.display()
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One shard's row in the manifest table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardManifest {
    file: String,
    class_start: u64,
    class_end: u64,
    target_start: u64,
    target_end: u64,
    bytes: u64,
    checksum: u64,
    // Structural checksum: FNV-1a over the file minus its record-blob
    // region. Verified at shard *open*, so header, offset table and
    // cache segment are trusted before any record decodes — the record
    // blobs themselves are covered one by one by the per-record
    // checksums in the offset table. `Option` only so a pre-v6 manifest
    // parses far enough to be rejected with a version message instead
    // of a field error.
    meta_checksum: Option<u64>,
}

/// The manifest document (`manifest.json`).
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    format_version: u32,
    config_fingerprint: u64,
    config: EngineConfig,
    class_count: u64,
    target_count: u64,
    core_file: String,
    core_bytes: u64,
    core_checksum: u64,
    shards: Vec<ShardManifest>,
    // Sketch-band prune sidecar (v5 additive extension). Absent in
    // indexes written before the sidecar existed, or when the sketch
    // tier was disabled at write time — both open fine, with pruning
    // simply unavailable. The vendored serde maps a missing field to
    // `None`, so older manifests stay readable.
    prune_file: Option<String>,
    prune_bytes: Option<u64>,
    prune_checksum: Option<u64>,
}

/// What [`write_sharded`] produced — sizes for benches and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Number of shard files written.
    pub shards: usize,
    /// Bytes in `core.bin`.
    pub core_bytes: u64,
    /// Total bytes across all shard files.
    pub shard_bytes: u64,
    /// Classes persisted.
    pub classes: usize,
    /// Targets persisted.
    pub targets: usize,
    /// VCP-cache entries persisted (segmented + residual).
    pub cache_entries: usize,
}

impl WriteSummary {
    /// Total on-disk bytes (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.core_bytes + self.shard_bytes
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> IndexError + '_ {
    move |source| IndexError::Io { path: path.to_path_buf(), source }
}

fn format_err(path: &Path, detail: impl Into<String>) -> IndexError {
    IndexError::Format { path: path.to_path_buf(), detail: detail.into() }
}

fn shard_file_name(i: usize) -> String {
    format!("shard-{i:04}.bin")
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_signature(w: &mut Writer, s: &Signature) {
    w.u32(s.rounds.len() as u32);
    for round in &s.rounds {
        w.u64s(round);
    }
}

fn decode_signature(r: &mut Reader<'_>) -> Result<Signature, String> {
    let n = r.u32()? as usize;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(r.u64s()?);
    }
    Ok(Signature { rounds })
}

fn encode_cache_entry(w: &mut Writer, e: &VcpCacheEntry) {
    w.u64(e.query_hash);
    w.u64(e.class_hash);
    w.u64(e.vcp_fingerprint);
    w.f64(e.pair.q_in_t);
    w.f64(e.pair.t_in_q);
}

fn decode_cache_entry(r: &mut Reader<'_>) -> Result<VcpCacheEntry, String> {
    Ok(VcpCacheEntry {
        query_hash: r.u64()?,
        class_hash: r.u64()?,
        vcp_fingerprint: r.u64()?,
        pair: VcpPair { q_in_t: r.f64()?, t_in_q: r.f64()? },
    })
}

fn encode_core(
    export: &CorpusExport,
    residual: &[VcpCacheEntry],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(CORE_MAGIC);
    w.u64(export.classes.len() as u64);
    w.u64(export.targets.len() as u64);
    for c in &export.classes {
        w.str(&c.name);
        w.u64(c.hash);
        w.u64(c.vars as u64);
        w.u64(c.corpus_count);
        encode_signature(&mut w, &c.signature);
        match &c.sketch {
            Some(s) => {
                w.u8(1);
                w.u64s(&s.digests);
                w.u64s(&s.minhash);
            }
            None => w.u8(0),
        }
    }
    for t in &export.targets {
        w.str(&t.name);
        w.u64(t.basic_blocks as u64);
        w.u32(t.strands.len() as u32);
        for &(ci, n) in &t.strands {
            w.u64(ci as u64);
            w.u64(n);
        }
    }
    w.u32(residual.len() as u32);
    for e in residual {
        encode_cache_entry(&mut w, e);
    }
    w.into_bytes()
}

struct CoreParts {
    classes: Vec<LazyClassMeta>,
    targets: Vec<TargetExport>,
    residual: Vec<VcpCacheEntry>,
}

fn decode_core(bytes: &[u8]) -> Result<CoreParts, String> {
    let mut r = Reader::new(bytes);
    if r.raw(8)? != CORE_MAGIC {
        return Err("bad core.bin magic".into());
    }
    let nclasses = r.u64()? as usize;
    let ntargets = r.u64()? as usize;
    let mut classes = Vec::with_capacity(nclasses);
    for _ in 0..nclasses {
        let name = r.str()?;
        let hash = r.u64()?;
        let vars = r.u64()? as usize;
        let corpus_count = r.u64()?;
        let signature = decode_signature(&mut r)?;
        let sketch = match r.u8()? {
            0 => None,
            1 => Some(esh_core::SemanticSketch { digests: r.u64s()?, minhash: r.u64s()? }),
            k => return Err(format!("bad sketch flag {k}")),
        };
        classes.push(LazyClassMeta { name, signature, vars, hash, corpus_count, sketch });
    }
    let mut targets = Vec::with_capacity(ntargets);
    for _ in 0..ntargets {
        let name = r.str()?;
        let basic_blocks = r.u64()? as usize;
        let nstrands = r.u32()? as usize;
        let mut strands = Vec::with_capacity(nstrands);
        for _ in 0..nstrands {
            strands.push((r.u64()? as usize, r.u64()?));
        }
        targets.push(TargetExport { name, strands, basic_blocks });
    }
    let nresidual = r.u32()? as usize;
    let mut residual = Vec::with_capacity(nresidual);
    for _ in 0..nresidual {
        residual.push(decode_cache_entry(&mut r)?);
    }
    if !r.at_end() {
        return Err(format!("{} trailing bytes after core document", bytes.len() - r.pos()));
    }
    Ok(CoreParts { classes, targets, residual })
}

fn encode_shard(
    index: usize,
    spec: &ShardSpec,
    procs: &[&Proc],
    cache: &[VcpCacheEntry],
) -> Result<(Vec<u8>, u64), IndexError> {
    let mut blobs = Writer::new();
    let mut table: Vec<(u64, u64, u64)> = Vec::with_capacity(procs.len());
    for p in procs {
        let blob = serde_json::to_string(p).map_err(|e| IndexError::Format {
            path: PathBuf::from(shard_file_name(index)),
            detail: format!("serializing procedure `{}`: {e}", p.name),
        })?;
        table.push((blobs.len() as u64, blob.len() as u64, checksum(blob.as_bytes())));
        blobs.raw(blob.as_bytes());
    }
    let mut w = Writer::new();
    w.raw(SHARD_MAGIC);
    w.u64(index as u64);
    w.u64(spec.class_start as u64);
    w.u64(procs.len() as u64);
    for (off, len, sum) in &table {
        w.u64(*off);
        w.u64(*len);
        w.u64(*sum);
    }
    let blobs = blobs.into_bytes();
    w.u64(blobs.len() as u64);
    let blob_start = w.len();
    w.raw(&blobs);
    let blob_end = w.len();
    w.u64(cache.len() as u64);
    for e in cache {
        encode_cache_entry(&mut w, e);
    }
    let bytes = w.into_bytes();
    let meta = checksum_parts(&[&bytes[..blob_start], &bytes[blob_end..]]);
    Ok((bytes, meta))
}

/// A shard file's structural parts: everything except the record blobs
/// themselves, which stay raw until [`ShardRecords::decode_record`].
struct ShardStructure {
    class_start: usize,
    /// Per record: `(offset into the blob region, length, checksum)`.
    table: Vec<(usize, usize, u64)>,
    /// Absolute file offset where the blob region starts.
    blob_start: usize,
    blob_len: usize,
    cache: Vec<VcpCacheEntry>,
}

/// Parses a shard file's structural parts (header, offset table, cache
/// segment), leaving the record blobs raw. When `expect_meta` carries
/// the manifest's structural checksum it is verified as soon as the
/// blob bounds are known — *before* the cache segment is parsed — so a
/// corrupted cache region reports "checksum mismatch" rather than
/// whatever decode error the garbage happens to produce.
fn parse_shard_structure(
    bytes: &[u8],
    expect_index: usize,
    expect_start: usize,
    expect_meta: Option<u64>,
) -> Result<ShardStructure, String> {
    let mut r = Reader::new(bytes);
    if r.raw(8)? != SHARD_MAGIC {
        return Err("bad shard magic".into());
    }
    let index = r.u64()? as usize;
    let class_start = r.u64()? as usize;
    if index != expect_index || class_start != expect_start {
        return Err(format!(
            "shard identity mismatch: file says shard {index} @ class {class_start}, \
             manifest says shard {expect_index} @ class {expect_start}"
        ));
    }
    let nprocs = r.u64()? as usize;
    // Corrupted counts must surface as truncation errors from the
    // reader, not as allocator panics: clamp pre-allocation to what the
    // file could possibly hold (24 bytes per table row, 8 per cache
    // field).
    let mut table = Vec::with_capacity(nprocs.min(bytes.len() / 24 + 1));
    for _ in 0..nprocs {
        table.push((r.u64()? as usize, r.u64()? as usize, r.u64()?));
    }
    let blob_len = r.u64()? as usize;
    let blob_start = r.pos();
    let _ = r.raw(blob_len)?;
    for (i, &(off, len, _)) in table.iter().enumerate() {
        off.checked_add(len).filter(|&e| e <= blob_len).ok_or_else(|| {
            format!("blob table entry {i} out of range ({off}+{len} > {blob_len})")
        })?;
    }
    if let Some(meta) = expect_meta {
        let blob_end = blob_start + blob_len;
        if checksum_parts(&[&bytes[..blob_start], &bytes[blob_end..]]) != meta {
            return Err("checksum mismatch — the shard's structural bytes were \
                        modified after the manifest was written"
                .into());
        }
    }
    let ncache = r.u64()? as usize;
    let mut cache = Vec::with_capacity(ncache.min(bytes.len() / 8 + 1));
    for _ in 0..ncache {
        cache.push(decode_cache_entry(&mut r).map_err(|e| format!("cache segment: {e}"))?);
    }
    if !r.at_end() {
        return Err(format!("{} trailing bytes after shard document", bytes.len() - r.pos()));
    }
    Ok(ShardStructure { class_start, table, blob_start, blob_len, cache })
}

/// An open shard: structural parts decoded and verified, record blobs
/// raw. Holds the file's mapping (or owned buffer) for as long as the
/// engine keeps the shard resident — every record the engine demands
/// later is checksummed and decoded straight out of these bytes, with
/// every neighbour record left untouched (kernel-managed pages that
/// were never faulted in stay on disk).
#[derive(Debug)]
struct EshxShardRecords {
    path: PathBuf,
    bytes: FileBytes,
    class_start: usize,
    table: Vec<(usize, usize, u64)>,
    blob_start: usize,
    cache: Vec<VcpCacheEntry>,
    /// Structural bytes (file minus blob region): decoded eagerly at
    /// open, so accounted against the residency budget up front.
    base: u64,
}

impl ShardRecords for EshxShardRecords {
    fn class_count(&self) -> usize {
        self.table.len()
    }

    fn cache_entries(&self) -> &[VcpCacheEntry] {
        &self.cache
    }

    fn base_bytes(&self) -> u64 {
        self.base
    }

    fn mapped_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn record_bytes(&self, i: usize) -> u64 {
        self.table[i].1 as u64
    }

    fn decode_record(&self, i: usize) -> Result<Proc, String> {
        let (off, len, sum) = self.table[i];
        let ci = self.class_start + i;
        let start = self.blob_start + off;
        let blob = &self.bytes[start..start + len];
        if checksum(blob) != sum {
            return Err(format!(
                "{}: class {ci}: checksum mismatch — the record's bytes were \
                 modified after the manifest was written",
                self.path.display()
            ));
        }
        let text = std::str::from_utf8(blob).map_err(|e| {
            format!("{}: class {ci}: record is not utf-8: {e}", self.path.display())
        })?;
        serde_json::from_str(text)
            .map_err(|e| format!("{}: class {ci}: parsing record: {e}", self.path.display()))
    }
}

fn encode_prune(summaries: &[ShardBandSummary]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(PRUNE_MAGIC);
    w.u32(summaries.len() as u32);
    for s in summaries {
        w.u8(s.complete as u8);
        w.u64(s.min_digests);
        w.u64(s.max_mult);
        w.u64s(&s.digests.bits);
        w.u64s(&s.bands.bits);
    }
    w.into_bytes()
}

fn decode_prune(bytes: &[u8]) -> Result<Vec<ShardBandSummary>, String> {
    let mut r = Reader::new(bytes);
    if r.raw(8)? != PRUNE_MAGIC {
        return Err("bad prune.bin magic".into());
    }
    let n = r.u32()? as usize;
    let mut summaries = Vec::with_capacity(n);
    for i in 0..n {
        let complete = match r.u8()? {
            0 => false,
            1 => true,
            k => return Err(format!("summary {i}: bad complete flag {k}")),
        };
        let min_digests = r.u64()?;
        let max_mult = r.u64()?;
        let digests = Bloom { bits: r.u64s()? };
        let bands = Bloom { bits: r.u64s()? };
        summaries.push(ShardBandSummary {
            digests,
            bands,
            complete,
            min_digests,
            max_mult,
        });
    }
    if !r.at_end() {
        return Err(format!("{} trailing bytes after prune document", bytes.len() - r.pos()));
    }
    Ok(summaries)
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// Splits targets into contiguous segments of at most `targets_per_shard`
/// and derives each segment's class range as the cumulative maximum of
/// class references — exactly the classes its targets introduced, because
/// classes are created in target insertion order. The last shard is
/// extended to cover any remaining classes (defensive; unreachable
/// through `add_target`).
fn partition(export: &CorpusExport, targets_per_shard: usize) -> Vec<ShardSpec> {
    let per = targets_per_shard.max(1);
    let mut specs = Vec::new();
    let mut class_cursor = 0usize;
    let mut t = 0usize;
    while t < export.targets.len() {
        let target_end = (t + per).min(export.targets.len());
        let mut class_end = class_cursor;
        for target in &export.targets[t..target_end] {
            for &(ci, _) in &target.strands {
                class_end = class_end.max(ci + 1);
            }
        }
        if target_end == export.targets.len() {
            class_end = class_end.max(export.classes.len());
        }
        specs.push(ShardSpec {
            class_start: class_cursor,
            class_end,
            target_start: t,
            target_end,
        });
        class_cursor = class_end;
        t = target_end;
    }
    specs
}

// ---------------------------------------------------------------------
// Write
// ---------------------------------------------------------------------

/// Writes `engine`'s corpus as a sharded v6 index into directory `dir`
/// (created if missing; existing index files are overwritten), with at
/// most `targets_per_shard` targets per shard.
pub fn write_sharded(
    engine: &SimilarityEngine,
    dir: impl AsRef<Path>,
    targets_per_shard: usize,
) -> Result<WriteSummary, IndexError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let export = engine.export_corpus();
    let specs = partition(&export, targets_per_shard);

    // Assign each cache entry to the shard owning its class hash;
    // unknown hashes go to the eagerly loaded residual section.
    let shard_of_class = |ci: usize| specs.partition_point(|s| s.class_end <= ci);
    let class_of_hash: std::collections::HashMap<u64, usize> = export
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.hash, i))
        .collect();
    let mut segmented: Vec<Vec<VcpCacheEntry>> = vec![Vec::new(); specs.len()];
    let mut residual: Vec<VcpCacheEntry> = Vec::new();
    for e in &export.cache {
        match class_of_hash.get(&e.class_hash) {
            Some(&ci) => segmented[shard_of_class(ci)].push(*e),
            None => residual.push(*e),
        }
    }

    let core_bytes = encode_core(&export, &residual);
    let core_path = dir.join(CORE_FILE);
    std::fs::write(&core_path, &core_bytes).map_err(io_err(&core_path))?;

    let mut shard_manifests = Vec::with_capacity(specs.len());
    let mut shard_total = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let procs: Vec<&Proc> = export.classes[spec.class_start..spec.class_end]
            .iter()
            .map(|c| &c.proc_)
            .collect();
        let (bytes, meta) = encode_shard(i, spec, &procs, &segmented[i])?;
        let file = shard_file_name(i);
        let path = dir.join(&file);
        std::fs::write(&path, &bytes).map_err(io_err(&path))?;
        shard_total += bytes.len() as u64;
        shard_manifests.push(ShardManifest {
            file,
            class_start: spec.class_start as u64,
            class_end: spec.class_end as u64,
            target_start: spec.target_start as u64,
            target_end: spec.target_end as u64,
            bytes: bytes.len() as u64,
            checksum: checksum(&bytes),
            meta_checksum: Some(meta),
        });
    }

    // Sketch-band prune sidecar: one Bloom summary per shard over its
    // member classes' sketch digests and LSH band keys. Written only
    // when the sketch tier is on — without sketches every summary would
    // be incomplete and pruning could never trigger.
    let prune = match &export.config.sketch {
        Some(sketch_cfg) if sketch_cfg.enabled => {
            let summaries: Vec<ShardBandSummary> = specs
                .iter()
                .map(|spec| {
                    ShardBandSummary::build(
                        export.classes[spec.class_start..spec.class_end]
                            .iter()
                            .map(|c| c.sketch.as_ref()),
                        sketch_cfg.bands,
                        sketch_cfg.rows,
                    )
                })
                .collect();
            let bytes = encode_prune(&summaries);
            let path = dir.join(PRUNE_FILE);
            std::fs::write(&path, &bytes).map_err(io_err(&path))?;
            Some((bytes.len() as u64, checksum(&bytes)))
        }
        _ => None,
    };

    let manifest = Manifest {
        format_version: SHARDED_FORMAT_VERSION,
        config_fingerprint: export.config.fingerprint(),
        config: export.config.clone(),
        class_count: export.classes.len() as u64,
        target_count: export.targets.len() as u64,
        core_file: CORE_FILE.to_string(),
        core_bytes: core_bytes.len() as u64,
        core_checksum: checksum(&core_bytes),
        shards: shard_manifests,
        prune_file: prune.map(|_| PRUNE_FILE.to_string()),
        prune_bytes: prune.map(|(b, _)| b),
        prune_checksum: prune.map(|(_, c)| c),
    };
    let manifest_path = dir.join(MANIFEST_FILE);
    let json = serde_json::to_string(&manifest)
        .map_err(|e| format_err(&manifest_path, format!("serializing manifest: {e}")))?;
    std::fs::write(&manifest_path, json).map_err(io_err(&manifest_path))?;

    Ok(WriteSummary {
        shards: specs.len(),
        core_bytes: core_bytes.len() as u64,
        shard_bytes: shard_total,
        classes: export.classes.len(),
        targets: export.targets.len(),
        cache_entries: export.cache.len(),
    })
}

// ---------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------

/// How [`open_sharded_with`] maps and prices an index directory. The
/// defaults are the fast path; the flags exist so benches and CI can
/// pin down each mechanism's contribution (and fall back when a
/// platform has no `mmap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EshxOpenOptions {
    /// Map index files with `mmap` (zero-copy, evictable by unmapping)
    /// instead of reading them into owned buffers. Platforms without
    /// `mmap` silently use the owned fallback.
    pub mmap: bool,
    /// Load the per-shard sketch-band summaries (when the sidecar is
    /// present) so queries can skip whole shards with zero sketch
    /// collisions before fan-out.
    pub prune: bool,
}

impl Default for EshxOpenOptions {
    fn default() -> EshxOpenOptions {
        EshxOpenOptions { mmap: true, prune: true }
    }
}

/// What [`read_manifest`] reports about an index directory without
/// touching `core.bin`, any shard file, or the prune sidecar.
#[derive(Debug, Clone)]
pub struct ManifestSummary {
    /// Engine configuration the index was built with.
    pub config: EngineConfig,
    /// Strand classes persisted.
    pub class_count: u64,
    /// Targets persisted.
    pub target_count: u64,
    /// Number of shard files.
    pub shards: usize,
    /// Total bytes across all shard files.
    pub shard_bytes: u64,
    /// Bytes in `core.bin`.
    pub core_bytes: u64,
    /// Size of the largest single shard file.
    pub largest_shard_bytes: u64,
    /// Whether a sketch-band prune sidecar is recorded.
    pub has_prune: bool,
}

/// Reads and validates `manifest.json` (version + config fingerprint)
/// without opening any other file in the directory.
fn load_manifest(dir: &Path) -> Result<Manifest, IndexError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).map_err(io_err(&manifest_path))?;
    let manifest: Manifest = serde_json::from_str(&text)
        .map_err(|e| format_err(&manifest_path, e.to_string()))?;
    if manifest.format_version != SHARDED_FORMAT_VERSION {
        return Err(IndexError::VersionMismatch {
            path: manifest_path,
            found: manifest.format_version,
            expected: SHARDED_FORMAT_VERSION,
        });
    }
    let recomputed = manifest.config.fingerprint();
    if manifest.config_fingerprint != recomputed {
        return Err(IndexError::ConfigMismatch {
            path: manifest_path,
            found: manifest.config_fingerprint,
            expected: recomputed,
        });
    }
    Ok(manifest)
}

/// Reads an index directory's manifest alone — no `core.bin` read, no
/// checksum pass over data files — for callers that only need the
/// index's shape (CLI status lines, bench sizing, admission checks).
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<ManifestSummary, IndexError> {
    let manifest = load_manifest(dir.as_ref())?;
    Ok(ManifestSummary {
        class_count: manifest.class_count,
        target_count: manifest.target_count,
        shards: manifest.shards.len(),
        shard_bytes: manifest.shards.iter().map(|s| s.bytes).sum(),
        core_bytes: manifest.core_bytes,
        largest_shard_bytes: manifest.shards.iter().map(|s| s.bytes).max().unwrap_or(0),
        has_prune: manifest.prune_file.is_some(),
        config: manifest.config,
    })
}

/// Opens shard files on demand, verifying each file's *structural*
/// checksum (everything but the record-blob region) against the
/// manifest at open. With `mmap` set the file is mapped and the handle
/// keeps the mapping alive for the shard's whole residency — records
/// decode straight out of it later, each against its own per-record
/// checksum, so untouched records never leave the kernel page cache.
#[derive(Debug)]
struct FileShardSource {
    dir: PathBuf,
    shards: Vec<ShardManifest>,
    mmap: bool,
}

impl ShardSource for FileShardSource {
    fn open_shard(&self, shard: usize) -> Result<Box<dyn ShardRecords>, String> {
        let m = &self.shards[shard];
        let path = self.dir.join(&m.file);
        let bytes = read_file(&path, self.mmap).map_err(|e| format!("{}: {e}", path.display()))?;
        if bytes.len() as u64 != m.bytes {
            return Err(format!(
                "{}: checksum mismatch — file has {} bytes, manifest says {}",
                path.display(),
                bytes.len(),
                m.bytes
            ));
        }
        let meta = m.meta_checksum.ok_or_else(|| {
            format!("{}: manifest records no structural checksum", path.display())
        })?;
        let s = parse_shard_structure(&bytes, shard, m.class_start as usize, Some(meta))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let base = (bytes.len() - s.blob_len) as u64;
        Ok(Box::new(EshxShardRecords {
            path,
            bytes,
            class_start: s.class_start,
            table: s.table,
            blob_start: s.blob_start,
            cache: s.cache,
            base,
        }))
    }

    fn shard_bytes(&self, shard: usize) -> Option<u64> {
        Some(self.shards[shard].bytes)
    }
}

/// Absolute byte range of every procedure record in shard `shard` of
/// the index at `dir`, as `(class_index, start, len)` triples — a
/// tooling/test hook for inspecting (or deliberately corrupting) a
/// single record's bytes without decoding any procedure.
pub fn shard_record_ranges(
    dir: impl AsRef<Path>,
    shard: usize,
) -> Result<Vec<(usize, u64, u64)>, IndexError> {
    let dir = dir.as_ref();
    let manifest = load_manifest(dir)?;
    let m = manifest.shards.get(shard).ok_or_else(|| {
        format_err(
            &dir.join(MANIFEST_FILE),
            format!("shard {shard} out of range ({} shards)", manifest.shards.len()),
        )
    })?;
    let path = dir.join(&m.file);
    let bytes = read_file(&path, false).map_err(io_err(&path))?;
    let s = parse_shard_structure(&bytes, shard, m.class_start as usize, m.meta_checksum)
        .map_err(|e| format_err(&path, e))?;
    Ok(s
        .table
        .iter()
        .enumerate()
        .map(|(i, &(off, len, _))| (s.class_start + i, (s.blob_start + off) as u64, len as u64))
        .collect())
}

/// Opens a sharded v6 index directory as a lazily backed
/// [`SimilarityEngine`] with default options (mmap on, pruning on).
/// Ranked responses are byte-identical to the resident engine the index
/// was written from.
pub fn open_sharded(dir: impl AsRef<Path>) -> Result<SimilarityEngine, IndexError> {
    open_sharded_with(dir, EshxOpenOptions::default())
}

/// Opens a sharded v6 index directory as a lazily backed
/// [`SimilarityEngine`]: the manifest and `core.bin` load now, shard
/// files load on first use, each checksum-verified at that first touch.
/// Pruning and mmap are both behaviour-preserving: rankings, H0 and VCP
/// cache counters are byte-identical across every option combination
/// (pinned by this crate's round-trip proptests).
pub fn open_sharded_with(
    dir: impl AsRef<Path>,
    options: EshxOpenOptions,
) -> Result<SimilarityEngine, IndexError> {
    let dir = dir.as_ref();
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = load_manifest(dir)?;

    let core_path = dir.join(&manifest.core_file);
    let core_bytes = read_file(&core_path, options.mmap).map_err(io_err(&core_path))?;
    if core_bytes.len() as u64 != manifest.core_bytes
        || checksum(&core_bytes) != manifest.core_checksum
    {
        return Err(format_err(
            &core_path,
            "checksum mismatch — the file was modified after the manifest was written",
        ));
    }
    let parts = decode_core(&core_bytes).map_err(|e| format_err(&core_path, e))?;
    if parts.classes.len() as u64 != manifest.class_count
        || parts.targets.len() as u64 != manifest.target_count
    {
        return Err(format_err(
            &core_path,
            format!(
                "core document has {} classes / {} targets, manifest says {} / {}",
                parts.classes.len(),
                parts.targets.len(),
                manifest.class_count,
                manifest.target_count
            ),
        ));
    }

    let specs: Vec<ShardSpec> = manifest
        .shards
        .iter()
        .map(|m| ShardSpec {
            class_start: m.class_start as usize,
            class_end: m.class_end as usize,
            target_start: m.target_start as usize,
            target_end: m.target_end as usize,
        })
        .collect();
    let prune = match (&manifest.prune_file, manifest.prune_bytes, manifest.prune_checksum) {
        (Some(file), Some(nbytes), Some(sum)) if options.prune => {
            let path = dir.join(file);
            let bytes = read_file(&path, options.mmap).map_err(io_err(&path))?;
            if bytes.len() as u64 != nbytes || checksum(&bytes) != sum {
                return Err(format_err(
                    &path,
                    "checksum mismatch — the file was modified after the manifest was written",
                ));
            }
            Some(decode_prune(&bytes).map_err(|e| format_err(&path, e))?)
        }
        _ => None,
    };

    let source =
        FileShardSource { dir: dir.to_path_buf(), shards: manifest.shards, mmap: options.mmap };
    let mut engine = SimilarityEngine::from_lazy_parts(
        manifest.config,
        parts.classes,
        parts.targets,
        specs,
        Box::new(source),
        parts.residual,
    )
    .map_err(|e| format_err(&manifest_path, e))?;
    if let Some(summaries) = prune {
        engine
            .set_shard_band_summaries(summaries)
            .map_err(|e| format_err(&manifest_path, e))?;
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_cc::{Compiler, Vendor, VendorVersion};
    use esh_minic::demo;

    fn temp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("esh-index-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn small_engine() -> SimilarityEngine {
        let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
        let mut engine = SimilarityEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        for (name, f) in demo::cve_functions() {
            engine.add_target(name, &gcc.compile_function(&f));
        }
        engine
    }

    #[test]
    fn partition_tiles_classes_and_targets_contiguously() {
        let engine = small_engine();
        let export = engine.export_corpus();
        for per in [1, 2, 3, 100] {
            let specs = partition(&export, per);
            let mut c = 0;
            let mut t = 0;
            for s in &specs {
                assert_eq!(s.class_start, c);
                assert_eq!(s.target_start, t);
                assert!(s.class_end >= s.class_start);
                assert!(s.target_end > s.target_start);
                c = s.class_end;
                t = s.target_end;
            }
            assert_eq!(c, export.classes.len(), "per={per}");
            assert_eq!(t, export.targets.len(), "per={per}");
        }
    }

    #[test]
    fn round_trip_preserves_corpus_shape_and_scores() {
        let engine = small_engine();
        let dir = temp_dir("roundtrip");
        let summary = write_sharded(&engine, &dir, 2).unwrap();
        assert!(summary.shards >= 2);
        assert!(dir.join(MANIFEST_FILE).is_file());
        let lazy = open_sharded(&dir).unwrap();
        assert_eq!(lazy.target_count(), engine.target_count());
        assert_eq!(lazy.class_count(), engine.class_count());
        let q = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5))
            .compile_function(&demo::heartbleed_like());
        let a = engine.query(&q);
        let b = lazy.query(&q);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
        let stats = lazy.shard_stats();
        assert_eq!(stats.shards_total, summary.shards as u64);
        assert!(stats.fanout_total > 0, "query consulted no shards: {stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_shard_fails_at_lazy_load_not_at_open() {
        let engine = small_engine();
        let dir = temp_dir("tamper-shard");
        write_sharded(&engine, &dir, 1).unwrap();
        // Flip one byte of the last shard: open() must still succeed
        // (the file is lazy), the load must fail loudly.
        let manifest: Manifest =
            serde_json::from_str(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap())
                .unwrap();
        let victim = dir.join(&manifest.shards.last().unwrap().file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let lazy = open_sharded(&dir).expect("open is lazy; tamper undetected until load");
        let source = FileShardSource {
            dir: dir.clone(),
            shards: manifest.shards.clone(),
            mmap: true,
        };
        let err = source.open_shard(manifest.shards.len() - 1).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        drop(lazy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_manifest_fingerprint_is_rejected_at_open() {
        let engine = small_engine();
        let dir = temp_dir("tamper-manifest");
        write_sharded(&engine, &dir, 2).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"config_fingerprint\":{}", engine.config().fingerprint());
        assert!(text.contains(&needle), "manifest shape changed");
        std::fs::write(&path, text.replace(&needle, "\"config_fingerprint\":1")).unwrap();
        match open_sharded(&dir) {
            Err(IndexError::ConfigMismatch { found: 1, .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected_at_open() {
        let engine = small_engine();
        let dir = temp_dir("version");
        write_sharded(&engine, &dir, 2).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace(
                &format!("\"format_version\":{SHARDED_FORMAT_VERSION}"),
                "\"format_version\":9",
            ),
        )
        .unwrap();
        match open_sharded(&dir) {
            Err(IndexError::VersionMismatch { found: 9, expected, .. }) => {
                assert_eq!(expected, SHARDED_FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_lazy_engine_materializes_procedures() {
        // A lazily backed engine must never serialize placeholder
        // procedures: an index rewritten from it — at a different shard
        // size, warmed cache included — has to score like the resident
        // engine it descends from, both on the query its cache covers
        // and on one that must price class procedures afresh.
        let engine = small_engine();
        let q = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0))
            .compile_function(&demo::venom_like());
        engine.query(&q);
        let dir = temp_dir("materialize");
        write_sharded(&engine, dir.join("a.eshx"), 2).unwrap();
        let lazy = open_sharded(dir.join("a.eshx")).unwrap();
        let summary = write_sharded(&lazy, dir.join("b.eshx"), 3).unwrap();
        assert_eq!(summary.targets, engine.target_count());
        assert_eq!(summary.cache_entries, engine.cache_stats().entries);
        let rewritten = open_sharded(dir.join("b.eshx")).unwrap();
        let (h0, m0) = (engine.cache_stats().hits, engine.cache_stats().misses);
        let a = engine.query(&q);
        let b = rewritten.query(&q);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
        }
        let (ca, cb) = (engine.cache_stats(), rewritten.cache_stats());
        assert_eq!((ca.hits - h0, ca.misses - m0), (cb.hits, cb.misses));
        assert_eq!(cb.misses, 0, "the persisted cache must cover the repeat");
        let fresh = Compiler::new(Vendor::Clang, VendorVersion::new(3, 4))
            .compile_function(&demo::ws_snmp_like());
        let a = engine.query(&fresh);
        let b = rewritten.query(&fresh);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
        let (ca2, cb2) = (engine.cache_stats(), rewritten.cache_stats());
        assert_eq!(
            (ca2.hits - ca.hits, ca2.misses - ca.misses),
            (cb2.hits - cb.hits, cb2.misses - cb.misses)
        );
        assert!(cb2.misses > cb.misses, "the second query must price uncached pairs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_manifest_touches_no_data_file() {
        let engine = small_engine();
        let dir = temp_dir("manifest-only");
        let summary = write_sharded(&engine, &dir, 2).unwrap();
        // Removing every data file must not bother read_manifest — it
        // reads manifest.json alone.
        std::fs::remove_file(dir.join(CORE_FILE)).unwrap();
        for i in 0..summary.shards {
            std::fs::remove_file(dir.join(shard_file_name(i))).unwrap();
        }
        std::fs::remove_file(dir.join(PRUNE_FILE)).ok();
        let m = read_manifest(&dir).unwrap();
        assert_eq!(m.target_count as usize, engine.target_count());
        assert_eq!(m.class_count as usize, engine.class_count());
        assert_eq!(m.shards, summary.shards);
        assert_eq!(m.shard_bytes, summary.shard_bytes);
        assert_eq!(m.core_bytes, summary.core_bytes);
        assert!(m.largest_shard_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_sidecar_round_trips_and_is_optional() {
        let engine = small_engine();
        let dir = temp_dir("prune-sidecar");
        write_sharded(&engine, &dir, 1).unwrap();
        assert!(read_manifest(&dir).unwrap().has_prune);
        let bytes = std::fs::read(dir.join(PRUNE_FILE)).unwrap();
        let summaries = decode_prune(&bytes).unwrap();
        assert_eq!(summaries.len(), read_manifest(&dir).unwrap().shards);
        // Opening with pruning disabled must still work, as must a
        // manifest with the sidecar fields absent (pre-sidecar index).
        let q = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5))
            .compile_function(&demo::heartbleed_like());
        let with = open_sharded_with(&dir, EshxOpenOptions::default()).unwrap();
        let without =
            open_sharded_with(&dir, EshxOpenOptions { prune: false, ..Default::default() })
                .unwrap();
        let a = with.query(&q);
        let b = without.query(&q);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
        }
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped = text
            .replace("\"prune_file\":\"prune.bin\"", "\"prune_file\":null")
            .replace(",\"prune_bytes\"", ",\"ignored_bytes\"")
            .replace(",\"prune_checksum\"", ",\"ignored_checksum\"");
        std::fs::write(&path, stripped).unwrap();
        let legacy = open_sharded(&dir).unwrap();
        let c = legacy.query(&q);
        for (x, y) in a.scores.iter().zip(&c.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_open_matches_mmap_open() {
        let engine = small_engine();
        let dir = temp_dir("no-mmap");
        write_sharded(&engine, &dir, 2).unwrap();
        let mapped = open_sharded_with(&dir, EshxOpenOptions::default()).unwrap();
        let owned =
            open_sharded_with(&dir, EshxOpenOptions { mmap: false, ..Default::default() }).unwrap();
        let q = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0))
            .compile_function(&demo::venom_like());
        let a = mapped.query(&q);
        let b = owned.query(&q);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
