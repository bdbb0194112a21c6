#![warn(missing_docs)]

//! # esh-index — the engine's on-disk format (v8)
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
//!   core.bin         — per-class pricing metadata (hash, vars,
//!                      signature, sketch, name) + target records; fixed
//!                      little-endian layout, loaded at open
//!   shard-0000.bin   — one per target segment: the segment's lifted
//!   shard-0001.bin     procedures as fixed-layout binary records behind
//!   ...                a per-class offset table, plus the VCP-cache
//!                      entries keyed into the segment
//! ```
//!
//! **Sharding rule.** Targets are split into contiguous segments of
//! `targets_per_shard`. Strand classes are created in target insertion
//! order, so each segment owns the contiguous class-index range its
//! targets introduced (computed as a cumulative maximum over the
//! segment's class references). A persisted VCP-cache entry lives in the
//! shard owning the class its `class_hash` names. Every lookup keys on a
//! corpus class's hash, so an entry naming no class could never be read:
//! the writer drops it.
//!
//! **Lazy-load contract.** [`open_sharded`] returns a
//! [`SimilarityEngine`] whose shards *open* on first use, through the
//! engine's open-before-lookup rule: a shard's structural parts —
//! header, per-record offset table, VCP-cache segment — decode when the
//! shard is first touched, before the first counted cache lookup into
//! the segment, while the procedure records stay on disk until a
//! query's pricing actually demands one (demand decoding). Every read
//! is a positioned read of exactly the bytes being decoded: the shard
//! open reads the structural parts, each demanded record reads its own
//! byte range, and an open shard holds no file descriptor or file
//! buffer in between — its memory is its structural base plus its
//! decoded records, the two quantities the residency budget counts. A
//! file that shrinks under an open shard fails the next record read
//! past the cut with a typed error naming the file and the class, and
//! so does a record whose bytes decode to a procedure that fails
//! [`Proc::validate`], or to a strand whose structural hash or variable
//! count is not its class's.
//! Ranked responses and cache hit/miss counters are byte-identical to
//! the resident engine the index was written from — pinned by this
//! crate's round-trip proptests.
//!
//! **Checksums** (all FNV-1a) are layered to match decode granularity,
//! and every byte a reader consumes from `core.bin` or a shard file is
//! covered by exactly one of them. `core.bin` has a whole-file
//! `core_checksum`, verified at open after its size is checked against
//! the manifest, so an oversized or endless file is refused before it
//! is read; each shard has a structural `meta_checksum` covering every
//! byte *except* the record-blob region, verified when the shard opens;
//! and the shard's offset table carries one checksum per procedure
//! record, verified when that record is first decoded. A byte flip inside one record therefore fails only the
//! queries that decode that record, with an error naming the file and
//! the class.
//!
//! **Nothing derived is stored, and the manifest names no files.** Each
//! class's corpus count (its H0 weight) is the sum of its occurrences
//! over the target strand lists, so the engine derives it at open
//! instead of trusting a second copy. File names are fixed:
//! [`CORE_FILE`] and `shard-NNNN.bin` for shard `NNNN`; unknown manifest
//! keys are ignored.

use std::fmt;
use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use esh_core::{
    CorpusExport, EngineConfig, LazyClassMeta, ShardRecords, ShardSource, ShardSpec,
    SimilarityEngine, TargetExport, VcpCacheEntry, VcpPair,
};
use esh_ivl::{InputKind, Op, Operand, Proc, Sort, Stmt, Var, VarId};
use esh_strands::Signature;
use serde::{Deserialize, Serialize};

mod wire;

use wire::{checksum, checksum_parts, Reader, Writer};

/// Format version of the sharded directory layout. Versions 2–4 were a
/// retired JSON snapshot format; version 5 introduced the binary layout
/// (whole-shard decode), version 6 added per-record checksums to the
/// shard offset tables plus a structural `meta_checksum` per shard,
/// enabling per-procedure demand decoding, version 7 stores each class
/// record in the binary layout of [`encode_record`] instead of JSON, and
/// version 8 stores nothing a reader derives or never reads: no class
/// corpus counts, target basic-block counts, residual cache section or
/// whole-file shard checksums.
pub const SHARDED_FORMAT_VERSION: u32 = 8;

/// Manifest file name inside an index directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Core (eager) file name inside an index directory.
pub const CORE_FILE: &str = "core.bin";

const CORE_MAGIC: &[u8; 8] = b"ESHXCOR2";
const SHARD_MAGIC: &[u8; 8] = b"ESHXSHD3";

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
            IndexError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "sharded index {}: format version {found} is not supported \
                 (this build reads version {expected}); rebuild the index",
                path.display()
            ),
            IndexError::ConfigMismatch {
                path,
                found,
                expected,
            } => write!(
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

/// One shard's row in the manifest table. Row `i` describes
/// `shard_file_name(i)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardManifest {
    class_start: u64,
    class_end: u64,
    target_start: u64,
    target_end: u64,
    bytes: u64,
    // Structural checksum: FNV-1a over the file minus its record-blob
    // region. Verified at shard *open*, so header, offset table and
    // cache segment are trusted before any record decodes — the record
    // blobs themselves are covered one by one by the per-record
    // checksums in the offset table.
    meta_checksum: u64,
}

/// The manifest document (`manifest.json`).
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    format_version: u32,
    config_fingerprint: u64,
    config: EngineConfig,
    class_count: u64,
    target_count: u64,
    core_bytes: u64,
    core_checksum: u64,
    shards: Vec<ShardManifest>,
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
    /// VCP-cache entries persisted across the shard cache segments.
    pub cache_entries: usize,
}

impl WriteSummary {
    /// Total on-disk bytes (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.core_bytes + self.shard_bytes
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> IndexError + '_ {
    move |source| IndexError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn format_err(path: &Path, detail: impl Into<String>) -> IndexError {
    IndexError::Format {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
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
    let mut rounds = Vec::with_capacity(n.min(r.remaining() / 4));
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

/// One persisted verdict. Both VCPs must lie in `[0, 1]`: a NaN or an
/// out-of-range value that passes the checksums would otherwise flow
/// into H0 and into the GES of every query that prices the cell.
fn decode_cache_entry(r: &mut Reader<'_>) -> Result<VcpCacheEntry, String> {
    let (query_hash, class_hash, vcp_fingerprint) = (r.u64()?, r.u64()?, r.u64()?);
    let pair = VcpPair {
        q_in_t: r.f64()?,
        t_in_q: r.f64()?,
    };
    for v in [pair.q_in_t, pair.t_in_q] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("verdict {v} is outside [0, 1]"));
        }
    }
    Ok(VcpCacheEntry {
        query_hash,
        class_hash,
        vcp_fingerprint,
        pair,
    })
}

fn encode_core(export: &CorpusExport) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(CORE_MAGIC);
    w.u64(export.classes.len() as u64);
    w.u64(export.targets.len() as u64);
    for c in &export.classes {
        w.str(&c.proc_.name);
        w.u64(c.hash);
        w.u64(c.vars as u64);
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
        w.u32(t.strands.len() as u32);
        for &(ci, n) in &t.strands {
            w.u64(ci as u64);
            w.u64(n);
        }
    }
    w.into_bytes()
}

struct CoreParts {
    classes: Vec<LazyClassMeta>,
    targets: Vec<TargetExport>,
}

/// Smallest encodings of a `core.bin` class row (name length, hash,
/// vars, round count, sketch flag) and target row (name length, strand
/// count), which cap the counts read from `core.bin`: no count sizes an
/// allocation beyond what the remaining bytes could hold.
const MIN_CLASS_ROW_BYTES: usize = 25;
const MIN_TARGET_ROW_BYTES: usize = 8;

fn decode_core(bytes: &[u8]) -> Result<CoreParts, String> {
    let mut r = Reader::new(bytes);
    if r.raw(8)? != CORE_MAGIC {
        return Err("bad core.bin magic".into());
    }
    let nclasses = r.u64()? as usize;
    let ntargets = r.u64()? as usize;
    let mut classes = Vec::with_capacity(nclasses.min(r.remaining() / MIN_CLASS_ROW_BYTES));
    for _ in 0..nclasses {
        let name = r.str()?;
        let hash = r.u64()?;
        let vars = r.u64()? as usize;
        let signature = decode_signature(&mut r)?;
        let sketch = match r.u8()? {
            0 => None,
            1 => Some(esh_core::SemanticSketch {
                digests: r.u64s()?,
                minhash: r.u64s()?,
            }),
            k => return Err(format!("bad sketch flag {k}")),
        };
        classes.push(LazyClassMeta {
            name,
            signature,
            vars,
            hash,
            sketch,
        });
    }
    let mut targets = Vec::with_capacity(ntargets.min(r.remaining() / MIN_TARGET_ROW_BYTES));
    for _ in 0..ntargets {
        let name = r.str()?;
        let nstrands = r.u32()? as usize;
        let mut strands = Vec::with_capacity(nstrands.min(r.remaining() / 16));
        for _ in 0..nstrands {
            strands.push((r.u64()? as usize, r.u64()?));
        }
        targets.push(TargetExport { name, strands });
    }
    if !r.at_end() {
        return Err(format!(
            "{} trailing bytes after core document",
            bytes.len() - r.pos()
        ));
    }
    Ok(CoreParts { classes, targets })
}

// ---------------------------------------------------------------------
// Class records
// ---------------------------------------------------------------------

/// Operations without immediates, in tag order: tag `i` is
/// `PLAIN_OPS[i]`. The five ops with `u32` immediates follow.
const PLAIN_OPS: [Op; 20] = [
    Op::Copy,
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::LShr,
    Op::AShr,
    Op::Not,
    Op::Neg,
    Op::Eq,
    Op::Ne,
    Op::Ult,
    Op::Ule,
    Op::Slt,
    Op::Sle,
    Op::Ite,
    Op::Concat,
];
const OP_ZEXT: u8 = 20;
const OP_SEXT: u8 = 21;
const OP_EXTRACT: u8 = 22;
const OP_LOAD: u8 = 23;
const OP_STORE: u8 = 24;

/// Input kinds in tag order, after tag 0 (a temporary).
const INPUT_KINDS: [InputKind; 4] = [
    InputKind::Register,
    InputKind::Memory,
    InputKind::CallResult,
    InputKind::Clobber,
];

/// Smallest encodings, which cap every count read from a record.
const MIN_VAR_BYTES: usize = 6;
const MIN_STMT_BYTES: usize = 9;
const MIN_OPERAND_BYTES: usize = 5;

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Copy => 0,
        Op::Add => 1,
        Op::Sub => 2,
        Op::Mul => 3,
        Op::And => 4,
        Op::Or => 5,
        Op::Xor => 6,
        Op::Shl => 7,
        Op::LShr => 8,
        Op::AShr => 9,
        Op::Not => 10,
        Op::Neg => 11,
        Op::Eq => 12,
        Op::Ne => 13,
        Op::Ult => 14,
        Op::Ule => 15,
        Op::Slt => 16,
        Op::Sle => 17,
        Op::Ite => 18,
        Op::Concat => 19,
        Op::Zext(_) => OP_ZEXT,
        Op::Sext(_) => OP_SEXT,
        Op::Extract(..) => OP_EXTRACT,
        Op::Load(_) => OP_LOAD,
        Op::Store(_) => OP_STORE,
    }
}

/// Encodes one class's lifted procedure as a shard record (layout in
/// docs/ARCHITECTURE.md, "On-disk index format"): the name; per
/// variable its name, sort tag (+ width) and input-kind tag; per
/// statement `dst`, op tag (+ `u32` immediates) and operands, each a
/// var id or a `(value, width)` constant. Little-endian, counts `u32`.
pub fn encode_record(p: &Proc) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&p.name);
    w.u32(p.vars.len() as u32);
    for v in &p.vars {
        w.str(&v.name);
        match v.sort {
            Sort::Bv(width) => {
                w.u8(0);
                w.u32(width);
            }
            Sort::Mem => w.u8(1),
        }
        w.u8(match v.input {
            None => 0,
            Some(InputKind::Register) => 1,
            Some(InputKind::Memory) => 2,
            Some(InputKind::CallResult) => 3,
            Some(InputKind::Clobber) => 4,
        });
    }
    w.u32(p.stmts.len() as u32);
    for s in &p.stmts {
        w.u32(s.dst.0);
        w.u8(op_tag(s.op));
        match s.op {
            Op::Zext(n) | Op::Sext(n) | Op::Load(n) | Op::Store(n) => w.u32(n),
            Op::Extract(hi, lo) => {
                w.u32(hi);
                w.u32(lo);
            }
            _ => {}
        }
        w.u32(s.args.len() as u32);
        for a in &s.args {
            match *a {
                Operand::Var(v) => {
                    w.u8(0);
                    w.u32(v.0);
                }
                Operand::Const { value, width } => {
                    w.u8(1);
                    w.u64(value);
                    w.u32(width);
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes a record written by [`encode_record`]. Every tag is checked,
/// no count sizes an allocation beyond what the remaining bytes could
/// hold, trailing bytes are refused, and the result must pass
/// [`Proc::validate`] — so hostile bytes give `Err`, never a panic or an
/// ill-formed procedure.
pub fn decode_record(bytes: &[u8]) -> Result<Proc, String> {
    let mut r = Reader::new(bytes);
    let name = r.str()?;
    let nvars = r.u32()? as usize;
    let mut vars = Vec::with_capacity(nvars.min(r.remaining() / MIN_VAR_BYTES));
    for _ in 0..nvars {
        let name = r.str()?;
        let sort = match r.u8()? {
            0 => Sort::Bv(r.u32()?),
            1 => Sort::Mem,
            t => return Err(format!("bad sort tag {t}")),
        };
        let input = match r.u8()? {
            0 => None,
            t => Some(
                *INPUT_KINDS
                    .get(t as usize - 1)
                    .ok_or_else(|| format!("bad input tag {t}"))?,
            ),
        };
        vars.push(Var { name, sort, input });
    }
    let nstmts = r.u32()? as usize;
    let mut stmts = Vec::with_capacity(nstmts.min(r.remaining() / MIN_STMT_BYTES));
    for _ in 0..nstmts {
        let dst = VarId(r.u32()?);
        let op = match r.u8()? {
            OP_ZEXT => Op::Zext(r.u32()?),
            OP_SEXT => Op::Sext(r.u32()?),
            OP_EXTRACT => Op::Extract(r.u32()?, r.u32()?),
            OP_LOAD => Op::Load(r.u32()?),
            OP_STORE => Op::Store(r.u32()?),
            t => *PLAIN_OPS
                .get(t as usize)
                .ok_or_else(|| format!("bad op tag {t}"))?,
        };
        let nargs = r.u32()? as usize;
        let mut args = Vec::with_capacity(nargs.min(r.remaining() / MIN_OPERAND_BYTES));
        for _ in 0..nargs {
            args.push(match r.u8()? {
                0 => Operand::Var(VarId(r.u32()?)),
                1 => Operand::Const {
                    value: r.u64()?,
                    width: r.u32()?,
                },
                t => return Err(format!("bad operand tag {t}")),
            });
        }
        stmts.push(Stmt { dst, op, args });
    }
    if !r.at_end() {
        return Err(format!("{} trailing bytes after record", r.remaining()));
    }
    let p = Proc { name, vars, stmts };
    let errors = p.validate();
    match errors.first() {
        None => Ok(p),
        Some(first) => Err(format!(
            "invalid record: {first} ({} problem(s) in all)",
            errors.len()
        )),
    }
}

fn encode_shard(
    index: usize,
    spec: &ShardSpec,
    procs: &[&Proc],
    cache: &[VcpCacheEntry],
) -> (Vec<u8>, u64) {
    let mut blobs = Writer::new();
    let mut table: Vec<(u64, u64, u64)> = Vec::with_capacity(procs.len());
    for p in procs {
        let blob = encode_record(p);
        table.push((blobs.len() as u64, blob.len() as u64, checksum(&blob)));
        blobs.raw(&blob);
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
    (bytes, meta)
}

/// A shard file's structural parts: everything except the record blobs
/// themselves, which stay on disk until [`ShardRecords::decode_record`].
struct ShardStructure {
    class_start: usize,
    /// Per record: `(offset into the blob region, length, checksum)`.
    table: Vec<(u64, u64, u64)>,
    /// Absolute file offset where the blob region starts.
    blob_start: u64,
    blob_len: u64,
    cache: Vec<VcpCacheEntry>,
}

/// Shard header: magic, shard index, first class, record count.
const SHARD_HEAD: u64 = 32;
/// One offset-table row: offset, length, checksum.
const TABLE_ROW: u64 = 24;

/// Reads exactly `len` bytes of `file` starting at `offset`.
fn read_at(file: &mut File, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0; usize::try_from(len).map_err(|_| ErrorKind::OutOfMemory)?];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a shard file's structural parts (header, offset table, cache
/// segment) with positioned reads, leaving the record blobs on disk.
/// The file's size must match the manifest's `bytes`, and every length
/// field is checked against it before anything is allocated, so a
/// damaged or shrunken file is an `Err`, never a huge read. The
/// manifest's structural checksum covers exactly the bytes read and is
/// verified *before* the cache segment is parsed, so a corrupted cache
/// region reports "checksum mismatch" rather than whatever decode error
/// the garbage happens to produce.
fn read_shard_structure(
    path: &Path,
    expect_index: usize,
    m: &ShardManifest,
) -> Result<ShardStructure, String> {
    let mut file = File::open(path).map_err(|e| e.to_string())?;
    let file_len = file.metadata().map_err(|e| e.to_string())?.len();
    if file_len != m.bytes {
        return Err(format!(
            "checksum mismatch — file has {file_len} bytes, manifest says {}",
            m.bytes
        ));
    }
    let truncated = |what: &str| format!("truncated: {what} overruns the {file_len}-byte file");
    if file_len < SHARD_HEAD + 8 {
        return Err(truncated("shard header"));
    }
    let mut head = read_at(&mut file, 0, SHARD_HEAD).map_err(|e| e.to_string())?;
    let mut r = Reader::new(&head);
    if r.raw(8)? != SHARD_MAGIC {
        return Err("bad shard magic".into());
    }
    let index = r.u64()? as usize;
    let class_start = r.u64()? as usize;
    let expect_start = m.class_start as usize;
    if index != expect_index || class_start != expect_start {
        return Err(format!(
            "shard identity mismatch: file says shard {index} @ class {class_start}, \
             manifest says shard {expect_index} @ class {expect_start}"
        ));
    }
    let nprocs = r.u64()?;
    let table_len = nprocs
        .checked_mul(TABLE_ROW)
        .filter(|&n| n <= file_len - SHARD_HEAD - 8)
        .ok_or_else(|| truncated(&format!("offset table of {nprocs} records")))?;
    head.extend(read_at(&mut file, SHARD_HEAD, table_len + 8).map_err(|e| e.to_string())?);
    let mut r = Reader::new(&head[SHARD_HEAD as usize..]);
    let mut table = Vec::with_capacity(nprocs as usize);
    for _ in 0..nprocs {
        table.push((r.u64()?, r.u64()?, r.u64()?));
    }
    let blob_len = r.u64()?;
    let blob_start = head.len() as u64;
    let blob_end = blob_start
        .checked_add(blob_len)
        .filter(|&e| e <= file_len)
        .ok_or_else(|| truncated(&format!("blob region of {blob_len} bytes")))?;
    for (i, &(off, len, _)) in table.iter().enumerate() {
        off.checked_add(len)
            .filter(|&e| e <= blob_len)
            .ok_or_else(|| {
                format!("blob table entry {i} out of range ({off}+{len} > {blob_len})")
            })?;
    }
    let tail = read_at(&mut file, blob_end, file_len - blob_end).map_err(|e| e.to_string())?;
    if checksum_parts(&[&head, &tail]) != m.meta_checksum {
        return Err("checksum mismatch — the shard's structural bytes were \
                    modified after the manifest was written"
            .into());
    }
    let mut r = Reader::new(&tail);
    let ncache = r.u64()? as usize;
    let mut cache = Vec::with_capacity(ncache.min(tail.len() / 8));
    for _ in 0..ncache {
        cache.push(decode_cache_entry(&mut r).map_err(|e| format!("cache segment: {e}"))?);
    }
    if !r.at_end() {
        return Err(format!(
            "{} trailing bytes after shard document",
            tail.len() - r.pos()
        ));
    }
    Ok(ShardStructure {
        class_start,
        table,
        blob_start,
        blob_len,
        cache,
    })
}

/// An open shard: structural parts decoded and verified, record blobs
/// still on disk. Holds no file descriptor — every record the engine
/// demands later is read by its own positioned read, checksummed and
/// decoded, with every neighbour record left unread. A file that shrank
/// since the open fails that record's decode with a typed error.
#[derive(Debug)]
struct EshxShardRecords {
    path: PathBuf,
    file_bytes: u64,
    class_start: usize,
    table: Vec<(u64, u64, u64)>,
    blob_start: u64,
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
        self.file_bytes
    }

    fn record_bytes(&self, i: usize) -> u64 {
        self.table[i].1
    }

    fn decode_record(&self, i: usize) -> Result<Proc, String> {
        let (off, len, sum) = self.table[i];
        let ci = self.class_start + i;
        let start = self.blob_start + off;
        let blob = File::open(&self.path)
            .and_then(|mut f| read_at(&mut f, start, len))
            .map_err(|e| {
                let why = match e.kind() {
                    ErrorKind::UnexpectedEof => "the file was truncated".to_string(),
                    _ => e.to_string(),
                };
                format!(
                    "{}: class {ci}: reading record bytes {start}..{}: {why}",
                    self.path.display(),
                    start + len
                )
            })?;
        if checksum(&blob) != sum {
            return Err(format!(
                "{}: class {ci}: checksum mismatch — the record's bytes were \
                 modified after the manifest was written",
                self.path.display()
            ));
        }
        decode_record(&blob).map_err(|e| format!("{}: class {ci}: {e}", self.path.display()))
    }
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

/// Writes `engine`'s corpus as a sharded v8 index into directory `dir`
/// (created if missing; existing index files are overwritten), with at
/// most `targets_per_shard` targets per shard. A lazily backed engine
/// loads every record first; a corrupt one fails the write with a
/// [`IndexError::Format`] naming its shard, before any file is written.
pub fn write_sharded(
    engine: &SimilarityEngine,
    dir: impl AsRef<Path>,
    targets_per_shard: usize,
) -> Result<WriteSummary, IndexError> {
    let dir = dir.as_ref();
    let export = engine
        .export_corpus()
        .map_err(|e| format_err(dir, format!("exporting the engine's corpus: {e}")))?;
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let specs = partition(&export, targets_per_shard);

    // Assign each cache entry to the shard owning its class hash. An
    // entry naming no class could never be looked up, so it is dropped.
    let shard_of_class = |ci: usize| specs.partition_point(|s| s.class_end <= ci);
    let class_of_hash: std::collections::HashMap<u64, usize> = export
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.hash, i))
        .collect();
    let mut segmented: Vec<Vec<VcpCacheEntry>> = vec![Vec::new(); specs.len()];
    for e in &export.cache {
        if let Some(&ci) = class_of_hash.get(&e.class_hash) {
            segmented[shard_of_class(ci)].push(*e);
        }
    }

    let core_bytes = encode_core(&export);
    let core_path = dir.join(CORE_FILE);
    std::fs::write(&core_path, &core_bytes).map_err(io_err(&core_path))?;

    let mut shard_manifests = Vec::with_capacity(specs.len());
    let mut shard_total = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let procs: Vec<&Proc> = export.classes[spec.class_start..spec.class_end]
            .iter()
            .map(|c| &c.proc_)
            .collect();
        let (bytes, meta) = encode_shard(i, spec, &procs, &segmented[i]);
        let path = dir.join(shard_file_name(i));
        std::fs::write(&path, &bytes).map_err(io_err(&path))?;
        shard_total += bytes.len() as u64;
        shard_manifests.push(ShardManifest {
            class_start: spec.class_start as u64,
            class_end: spec.class_end as u64,
            target_start: spec.target_start as u64,
            target_end: spec.target_end as u64,
            bytes: bytes.len() as u64,
            meta_checksum: meta,
        });
    }

    let manifest = Manifest {
        format_version: SHARDED_FORMAT_VERSION,
        config_fingerprint: export.config.fingerprint(),
        config: export.config.clone(),
        class_count: export.classes.len() as u64,
        target_count: export.targets.len() as u64,
        core_bytes: core_bytes.len() as u64,
        core_checksum: checksum(&core_bytes),
        shards: shard_manifests,
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
        cache_entries: segmented.iter().map(Vec::len).sum(),
    })
}

// ---------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------

/// Options for [`open_sharded_with`]. There are none left: an opened
/// index prices every cell as the resident engine does, so nothing about
/// an open is optional. Kept, and built with `Default`, for callers of
/// [`open_sharded_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct EshxOpenOptions {}

/// What [`read_manifest`] reports about an index directory without
/// touching `core.bin` or any shard file.
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
}

/// Largest `manifest.json` an open reads. The manifest records no size of
/// its own to check against; a 100k-procedure index at 8 targets per
/// shard writes ~2.2 MB, and a manifest grows ~180 bytes per shard.
const MANIFEST_CAP: u64 = 64 << 20;

/// Reads and validates `manifest.json` (version + config fingerprint)
/// without opening any other file in the directory. The read stops past
/// [`MANIFEST_CAP`] bytes, so a manifest that never ends (a symlink to
/// `/dev/zero`) is an [`IndexError::Format`], not an unbounded read. The
/// version is checked before the rest decodes, so a manifest of another
/// format version gets [`IndexError::VersionMismatch`], whatever its
/// fields.
fn load_manifest(dir: &Path) -> Result<Manifest, IndexError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let mut bytes = Vec::new();
    File::open(&manifest_path)
        .and_then(|f| f.take(MANIFEST_CAP + 1).read_to_end(&mut bytes))
        .map_err(io_err(&manifest_path))?;
    let malformed = |e: &dyn fmt::Display| format_err(&manifest_path, e.to_string());
    if bytes.len() as u64 > MANIFEST_CAP {
        return Err(malformed(&format!(
            "larger than the {MANIFEST_CAP}-byte manifest cap"
        )));
    }
    let text = std::str::from_utf8(&bytes).map_err(|e| malformed(&e))?;
    let value: serde::Value = serde_json::from_str(text).map_err(|e| malformed(&e))?;
    let fields = value
        .as_object()
        .ok_or_else(|| malformed(&"expected a JSON object"))?;
    let found: u32 = serde::field(fields, "format_version").map_err(|e| malformed(&e))?;
    if found != SHARDED_FORMAT_VERSION {
        return Err(IndexError::VersionMismatch {
            path: manifest_path,
            found,
            expected: SHARDED_FORMAT_VERSION,
        });
    }
    let manifest = Manifest::deserialize(&value).map_err(|e| malformed(&e))?;
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
        config: manifest.config,
    })
}

/// Opens shard files on demand: reads each file's structural parts and
/// verifies their checksum (everything but the record-blob region)
/// against the manifest at open. Records are read later, one positioned
/// read each, and verified against their own per-record checksums.
#[derive(Debug)]
struct FileShardSource {
    dir: PathBuf,
    shards: Vec<ShardManifest>,
}

impl ShardSource for FileShardSource {
    fn open_shard(&self, shard: usize) -> Result<Box<dyn ShardRecords>, String> {
        let m = &self.shards[shard];
        let path = self.dir.join(shard_file_name(shard));
        let s = read_shard_structure(&path, shard, m)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Box::new(EshxShardRecords {
            path,
            file_bytes: m.bytes,
            class_start: s.class_start,
            table: s.table,
            blob_start: s.blob_start,
            cache: s.cache,
            base: m.bytes - s.blob_len,
        }))
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
            format!(
                "shard {shard} out of range ({} shards)",
                manifest.shards.len()
            ),
        )
    })?;
    let path = dir.join(shard_file_name(shard));
    let s = read_shard_structure(&path, shard, m).map_err(|e| format_err(&path, e))?;
    Ok(s.table
        .iter()
        .enumerate()
        .map(|(i, &(off, len, _))| (s.class_start + i, s.blob_start + off, len))
        .collect())
}

/// Opens a sharded v8 index directory as a lazily backed
/// [`SimilarityEngine`]: the manifest and `core.bin` load now, shard
/// files load on first use, each checksum-verified at that first touch.
/// Ranked responses, VCP cache counters and prefilter counters are
/// byte-identical to the resident engine the index was written from
/// (pinned by this crate's round-trip proptests). The engine is
/// immutable: its `add_target` panics.
pub fn open_sharded(dir: impl AsRef<Path>) -> Result<SimilarityEngine, IndexError> {
    let dir = dir.as_ref();
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = load_manifest(dir)?;

    let core_path = dir.join(CORE_FILE);
    let core_bytes = read_core(&core_path, manifest.core_bytes)?;
    if checksum(&core_bytes) != manifest.core_checksum {
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
    let source = FileShardSource {
        dir: dir.to_path_buf(),
        shards: manifest.shards,
    };
    SimilarityEngine::from_lazy_parts(
        manifest.config,
        parts.classes,
        parts.targets,
        specs,
        Box::new(source),
    )
    .map_err(|e| format_err(&manifest_path, e))
}

/// [`open_sharded`]; `options` holds no setting (see
/// [`EshxOpenOptions`]).
pub fn open_sharded_with(
    dir: impl AsRef<Path>,
    _options: EshxOpenOptions,
) -> Result<SimilarityEngine, IndexError> {
    open_sharded(dir)
}

/// Reads `core.bin`, whose size the manifest records as `expect` bytes.
/// The size is checked before anything is read, and the read is of
/// exactly those bytes, so a file of another size — a device such as
/// `/dev/zero` reports none — is a [`IndexError::Format`], never an
/// unbounded read.
fn read_core(path: &Path, expect: u64) -> Result<Vec<u8>, IndexError> {
    let mut file = File::open(path).map_err(io_err(path))?;
    let len = file.metadata().map_err(io_err(path))?.len();
    if len != expect {
        return Err(format_err(
            path,
            format!("checksum mismatch — the file has {len} bytes, the manifest says {expect}"),
        ));
    }
    read_at(&mut file, 0, expect).map_err(io_err(path))
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
        let export = engine.export_corpus().unwrap();
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
        assert!(
            stats.fanout_total > 0,
            "query consulted no shards: {stats:?}"
        );
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
        let victim = dir.join(shard_file_name(manifest.shards.len() - 1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let lazy = open_sharded(&dir).expect("open is lazy; tamper undetected until load");
        let source = FileShardSource {
            dir: dir.clone(),
            shards: manifest.shards.clone(),
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

    /// Drops every `"meta_checksum":N` field from a manifest's text.
    fn strip_meta_checksums(text: &str) -> String {
        let key = ",\"meta_checksum\":";
        let mut out = String::new();
        let mut rest = text;
        while let Some(at) = rest.find(key) {
            out.push_str(&rest[..at]);
            rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn wrong_version_is_rejected_at_open() {
        let engine = small_engine();
        let dir = temp_dir("version");
        write_sharded(&engine, &dir, 2).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let version = format!("\"format_version\":{SHARDED_FORMAT_VERSION}");
        let sketch = serde_json::to_string(&engine.config().sketch).unwrap();
        let sketch = format!("\"sketch\":{sketch}");
        let probe_knobs = "\"ambiguity_window\":0.2,\"probe_vectors\":24,\"refine_top_k\":10";
        assert!(
            [version.as_str(), &sketch, probe_knobs]
                .iter()
                .all(|k| text.contains(k)),
            "manifest shape changed"
        );
        // A future version, a v7 manifest (the same fields plus each
        // shard's whole-file `checksum`), and v6-shaped manifests: no
        // structural shard checksums, with the tier recorded as `null` or
        // its probe knobs as `null` — fields the v8 layout cannot decode,
        // so only the version check can name what is wrong.
        let v6 = strip_meta_checksums(&text.replace(&version, "\"format_version\":6"));
        assert!(!v6.contains("meta_checksum"));
        let null_knobs = "\"ambiguity_window\":null,\"probe_vectors\":null,\"refine_top_k\":null";
        let v7 = text
            .replace(&version, "\"format_version\":7")
            .replace(",\"meta_checksum\":", ",\"checksum\":1,\"meta_checksum\":");
        for (manifest, found) in [
            (text.replace(&version, "\"format_version\":9"), 9),
            (v7, 7),
            (v6.replace(&sketch, "\"sketch\":null"), 6),
            (v6.replace(probe_knobs, null_knobs), 6),
        ] {
            std::fs::write(&path, manifest).unwrap();
            match open_sharded(&dir) {
                Err(IndexError::VersionMismatch {
                    found: f, expected, ..
                }) if f == found => {
                    assert_eq!(expected, SHARDED_FORMAT_VERSION);
                }
                other => panic!("v{found}: expected VersionMismatch, got {other:?}"),
            }
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
        assert!(
            cb2.misses > cb.misses,
            "the second query must price uncached pairs"
        );
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
        let m = read_manifest(&dir).unwrap();
        assert_eq!(m.target_count as usize, engine.target_count());
        assert_eq!(m.class_count as usize, engine.class_count());
        assert_eq!(m.shards, summary.shards);
        assert_eq!(m.shard_bytes, summary.shard_bytes);
        assert_eq!(m.core_bytes, summary.core_bytes);
        assert!(m.largest_shard_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// File names are fixed and no shard is skipped on a summary's word,
    /// so manifest keys naming files and a `prune.bin` sidecar (what
    /// earlier writers produced) are ignored. The manifest below names
    /// `/dev/zero` as its core file and `../elsewhere` as every shard
    /// file. The sidecar is checksum-consistent but claims every shard
    /// holds nothing (empty band filters, `complete = 1`, `min_digests =
    /// u64::MAX`); trusted, it would skip every shard for every query. The
    /// index must still open and score bit-identically to the resident
    /// engine.
    #[test]
    fn retired_file_keys_and_a_hostile_prune_sidecar_are_ignored() {
        let engine = small_engine();
        let dir = temp_dir("retired-files");
        let summary = write_sharded(&engine, &dir, 1).unwrap();
        assert!(!dir.join("prune.bin").exists());
        // The retired sidecar layout: magic and shard count, then per
        // shard the complete flag, min_digests, max_mult and two band-filter
        // word vectors.
        let mut w = Writer::new();
        w.raw(b"ESHXPRN1");
        w.u32(summary.shards as u32);
        for _ in 0..summary.shards {
            w.u8(1);
            w.u64(u64::MAX);
            w.u64(0);
            w.u64s(&[]);
            w.u64s(&[]);
        }
        let sidecar = w.into_bytes();
        std::fs::write(dir.join("prune.bin"), &sidecar).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let (core_key, row) = ("\"core_bytes\":", "{\"class_start\":");
        assert!(
            text.contains(core_key) && text.matches(row).count() == summary.shards,
            "manifest shape changed"
        );
        let text = text
            .replacen(
                core_key,
                &format!("\"core_file\":\"/dev/zero\",{core_key}"),
                1,
            )
            .replace(row, "{\"file\":\"../elsewhere\",\"class_start\":");
        let text = format!(
            "{},\"prune_file\":\"prune.bin\",\"prune_bytes\":{},\"prune_checksum\":{}}}",
            text.strip_suffix('}').unwrap(),
            sidecar.len(),
            checksum(&sidecar)
        );
        std::fs::write(&path, text).unwrap();

        let q = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5))
            .compile_function(&demo::heartbleed_like());
        let resident = engine.query(&q);
        let lazy = open_sharded(&dir).unwrap();
        let b = lazy.query(&q);
        assert_eq!(resident.scores.len(), b.scores.len());
        for (x, y) in resident.scores.iter().zip(&b.scores) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
        assert!(lazy.shard_stats().fanout_total > 0, "no shard consulted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hostile shard structure: truncations at every structural boundary
    /// and at seeded offsets, and the length fields (`nprocs`,
    /// `blob_len`, each table row's offset and length) set to 0,
    /// `u64::MAX`, `u64::MAX / 24` and the file length ± 1. The reader checks every length
    /// against the file size before it allocates or reads, so each case
    /// must be an `Err` — a panic, or an allocation sized from a hostile
    /// field, would abort this test.
    #[test]
    fn hostile_shard_structure_is_an_error_never_a_panic() {
        let engine = small_engine();
        let dir = temp_dir("hostile");
        write_sharded(&engine, &dir, 2).unwrap();
        let manifest: Manifest =
            serde_json::from_str(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap())
                .unwrap();
        let m = manifest.shards[0].clone();
        let path = dir.join(shard_file_name(0));
        let original = std::fs::read(&path).unwrap();
        let len = original.len() as u64;
        let s = read_shard_structure(&path, 0, &m).unwrap();
        let rows: Vec<u64> = (0..s.table.len() as u64)
            .map(|i| SHARD_HEAD + i * TABLE_ROW)
            .collect();
        let blob_len_at = s.blob_start - 8;
        let blob_end = s.blob_start + s.blob_len;

        let mut cuts = vec![
            0,
            8,
            16,
            24,
            SHARD_HEAD,
            blob_len_at,
            s.blob_start,
            blob_end,
        ];
        cuts.extend([blob_end + 8, len - 1]);
        cuts.extend(rows.iter().flat_map(|&r| [r, r + 8, r + 16]));
        cuts.extend(s.table.iter().map(|&(off, _, _)| s.blob_start + off));
        let mut x = 0x5EED_0FF5_E7E7_0001u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cuts.push(x % len);
        }
        // A cut at the file's end (an empty cache segment) is no cut.
        cuts.retain(|&c| c < len);
        let mut cases: Vec<Vec<u8>> = cuts
            .iter()
            .map(|&c| original[..c as usize].to_vec())
            .collect();
        let mut fields = vec![24, blob_len_at];
        fields.extend(rows.iter().flat_map(|&r| [r, r + 8]));
        for &at in &fields {
            // `u64::MAX / TABLE_ROW`: the largest record count whose
            // table size does not overflow.
            for v in [0, u64::MAX, u64::MAX / TABLE_ROW, len - 1, len, len + 1] {
                let mut bytes = original.clone();
                bytes[at as usize..at as usize + 8].copy_from_slice(&v.to_le_bytes());
                // An edit that writes the field's own value is no edit.
                if bytes != original {
                    cases.push(bytes);
                }
            }
        }

        for (k, bytes) in cases.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            // Against the recorded size, and against a manifest that
            // agrees with the damaged size — the latter drives the
            // reader's own length checks instead of the size check.
            for recorded in [m.bytes, bytes.len() as u64] {
                let source = FileShardSource {
                    dir: dir.clone(),
                    shards: vec![ShardManifest {
                        bytes: recorded,
                        ..m.clone()
                    }],
                };
                assert!(
                    source.open_shard(0).is_err(),
                    "case {k} (recorded {recorded}B) opened"
                );
            }
        }
        std::fs::write(&path, &original).unwrap();
        let source = FileShardSource {
            dir: dir.clone(),
            shards: vec![m],
        };
        assert!(source.open_shard(0).is_ok(), "the restored shard must open");
        std::fs::remove_dir_all(&dir).ok();
    }
}
