//! Class records in their binary layout. Every class of a generated
//! scale corpus round-trips through `encode_record`/`decode_record` and
//! through a written and reopened index; writing is deterministic;
//! `core.bin` keeps its pinned bytes; and hostile record
//! bytes decode to `Err` or to a procedure that validates — never a
//! panic, and never an allocation sized from a count the bytes cannot
//! back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use esh_core::{EngineConfig, SimilarityEngine};
use esh_corpus::scale::{stream_scale_corpus_with_threads, ScaleConfig};
use esh_index::{decode_record, encode_record, open_sharded, shard_record_ranges, write_sharded};
use esh_ivl::{InputKind, Op, Operand, Proc, Sort, VarId};

/// Records the largest single allocation made on the current thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(|c| c.get()))
}

fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("esh-records-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// The scale corpus the pins below are recorded on: 1000 procedures,
/// default configuration.
fn scale_engine() -> &'static SimilarityEngine {
    static ENGINE: OnceLock<SimilarityEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut engine = SimilarityEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        stream_scale_corpus_with_threads(&ScaleConfig::new(1000, 0x5eed), 2, |p| {
            engine.add_target(p.display(), &p.proc_);
        });
        engine
    })
}

/// `stable_hash64` over a file's bytes, eight at a time.
fn digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    esh_strands::stable_hash64(
        std::iter::once(bytes.len() as u64).chain(bytes.chunks(8).map(|c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        })),
    )
}

#[test]
fn every_scale_class_round_trips_through_its_record_and_the_index() {
    let engine = scale_engine();
    let export = engine.export_corpus().unwrap();
    assert!(export.targets.len() >= 1000 && !export.classes.is_empty());
    for (ci, c) in export.classes.iter().enumerate() {
        assert_eq!(
            decode_record(&encode_record(&c.proc_)).as_ref(),
            Ok(&c.proc_),
            "class {ci}"
        );
    }
    let dir = scratch("roundtrip");
    write_sharded(engine, &dir, 8).unwrap();
    let reopened = open_sharded(&dir).unwrap().export_corpus().unwrap();
    assert_eq!(reopened.classes.len(), export.classes.len());
    for (ci, (a, b)) in export.classes.iter().zip(&reopened.classes).enumerate() {
        assert_eq!(a.hash, b.hash, "class {ci}");
        assert_eq!(a.proc_, b.proc_, "class {ci}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `core.bin` stores no corpus counts: the reopened engine sums each
/// class's from the target strand lists, and must report exactly the
/// counts (and so the H0 weights) of the engine it was written from.
#[test]
fn reopened_index_derives_every_corpus_count() {
    let engine = scale_engine();
    let dir = scratch("counts");
    write_sharded(engine, &dir, 8).unwrap();
    let reopened = open_sharded(&dir).unwrap();
    assert_eq!(
        reopened.common_classes(usize::MAX),
        engine.common_classes(usize::MAX)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writing_one_engine_twice_gives_identical_files() {
    let engine = scale_engine();
    let dir = scratch("twice");
    let (a, b) = (dir.join("a.eshx"), dir.join("b.eshx"));
    write_sharded(engine, &a, 8).unwrap();
    write_sharded(engine, &b, 8).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert!(names.len() > 3, "{names:?}");
    for name in &names {
        let (x, y) = (
            std::fs::read(a.join(name)).unwrap(),
            std::fs::read(b.join(name)).unwrap(),
        );
        assert!(x == y, "{name:?} differs between two writes");
    }
    assert_eq!(std::fs::read_dir(&b).unwrap().count(), names.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// `core.bin` as the format-8 writer writes it for this engine: class
/// rows without corpus counts, target rows without basic-block counts,
/// and no residual cache section.
#[test]
fn core_bytes_are_pinned() {
    const CORE_DIGEST: u64 = 0x8c57_d4b1_75f0_de54;
    let dir = scratch("pinned");
    write_sharded(scale_engine(), &dir, 8).unwrap();
    let core = digest(&dir.join("core.bin"));
    assert_eq!(core, CORE_DIGEST, "{core:#x}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_op_sort_and_input_kind_round_trips() {
    let mut p = Proc::new("all-ops");
    let a = p.declare("a", Sort::Bv(64), Some(InputKind::Register));
    let m = p.declare("mem0", Sort::Mem, Some(InputKind::Memory));
    let r = p.declare("r", Sort::Bv(64), Some(InputKind::CallResult));
    let k = p.declare("k", Sort::Bv(64), Some(InputKind::Clobber));
    let (va, vr, vk) = (Operand::Var(a), Operand::Var(r), Operand::Var(k));
    let mut next = 0;
    let mut emit = |p: &mut Proc, sort: Sort, op: Op, args: Vec<Operand>| {
        next += 1;
        let v = p.declare(format!("v{next}"), sort, None);
        p.assign(v, op, args);
        Operand::Var(v)
    };
    for op in [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::LShr,
        Op::AShr,
    ] {
        emit(&mut p, Sort::Bv(64), op, vec![va, vr]);
    }
    for op in [Op::Copy, Op::Not, Op::Neg] {
        emit(&mut p, Sort::Bv(64), op, vec![vk]);
    }
    let mut cond = va;
    for op in [Op::Eq, Op::Ne, Op::Ult, Op::Ule, Op::Slt, Op::Sle] {
        cond = emit(&mut p, Sort::Bv(1), op, vec![va, Operand::c64(u64::MAX)]);
    }
    emit(&mut p, Sort::Bv(64), Op::Ite, vec![cond, va, vr]);
    let lo = emit(&mut p, Sort::Bv(8), Op::Extract(7, 0), vec![va]);
    let hi = emit(&mut p, Sort::Bv(56), Op::Extract(63, 8), vec![va]);
    emit(&mut p, Sort::Bv(64), Op::Concat, vec![hi, lo]);
    emit(&mut p, Sort::Bv(64), Op::Zext(64), vec![lo]);
    emit(&mut p, Sort::Bv(32), Op::Sext(32), vec![lo]);
    emit(
        &mut p,
        Sort::Bv(32),
        Op::Load(32),
        vec![Operand::Var(m), va],
    );
    let half = Operand::Const {
        value: 0xbeef,
        width: 16,
    };
    emit(
        &mut p,
        Sort::Mem,
        Op::Store(16),
        vec![Operand::Var(m), va, half],
    );
    assert!(p.validate().is_empty(), "{:?}", p.validate());
    assert_eq!(decode_record(&encode_record(&p)), Ok(p));
}

/// A decoded struct is wider than its encoding (a 6-byte variable
/// decodes into a 40-byte `Var`), so allocations are bounded per record
/// byte, plus room for an error message. A count trusted from the bytes
/// (`u32::MAX` variables) would blow far past this.
const ALLOC_PER_RECORD_BYTE: usize = 16;
const ALLOC_SLACK: usize = 256;

/// Decodes `bytes` and asserts the contract for hostile input: `Err`,
/// or a procedure that validates; no panic; no outsized allocation.
fn check_hostile(bytes: &[u8], case: &str) -> bool {
    let (out, largest) = largest_alloc(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode_record(bytes)))
    });
    let out = out.unwrap_or_else(|_| panic!("{case}: decode panicked"));
    assert!(
        largest <= ALLOC_PER_RECORD_BYTE * bytes.len() + ALLOC_SLACK,
        "{case}: a {}-byte record allocated {largest} bytes at once",
        bytes.len()
    );
    match out {
        Ok(p) => {
            assert!(
                p.validate().is_empty(),
                "{case}: decoded an invalid procedure"
            );
            true
        }
        Err(_) => false,
    }
}

/// A seeded mutation loop over real records from a written index:
/// truncation at every length, single bytes set to tag-like values,
/// every `u32` position set to inflated counts, out-of-range ids and
/// the widths 0 and 65, seeded multi-byte flips, and procedures
/// re-encoded with one targeted defect each.
#[test]
fn hostile_record_bytes_are_an_error_or_a_valid_procedure() {
    let dir = scratch("hostile");
    write_sharded(scale_engine(), &dir, 8).unwrap();
    let mut records: Vec<Vec<u8>> = Vec::new();
    for shard in [0, 7, 60] {
        let bytes = std::fs::read(dir.join(format!("shard-{shard:04}.bin"))).unwrap();
        for (_, start, len) in shard_record_ranges(&dir, shard).unwrap() {
            records.push(bytes[start as usize..(start + len) as usize].to_vec());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    records.sort_by_key(Vec::len);
    let mut x = 0x5EED_0BAD_C0DE_0001u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // The smallest, the largest and a seeded sample between.
    let mut picks = vec![0, records.len() - 1];
    picks.extend((0..10).map(|_| rand() as usize % records.len()));

    let mut survived = 0usize;
    let mut cases = 0usize;
    for &ri in &picks {
        let rec = &records[ri];
        let p = decode_record(rec).expect("a written record decodes");
        let nvars = p.vars.len() as u32;
        let mut run = |bytes: &[u8], case: String| {
            cases += 1;
            survived += check_hostile(bytes, &format!("record {ri}: {case}")) as usize;
        };
        for cut in 0..rec.len() {
            run(&rec[..cut], format!("cut at {cut}"));
        }
        for at in 0..rec.len() {
            for v in [0u8, 1, 2, 4, 5, 19, 20, 24, 25, 0x7F, 0xFF] {
                let mut b = rec.clone();
                b[at] = v;
                run(&b, format!("byte {at} = {v}"));
            }
        }
        for at in 0..rec.len() - 3 {
            for v in [
                0,
                65,
                nvars,
                nvars + 1,
                rec.len() as u32,
                u32::MAX / 2,
                u32::MAX,
            ] {
                let mut b = rec.clone();
                b[at..at + 4].copy_from_slice(&v.to_le_bytes());
                run(&b, format!("u32 at {at} = {v}"));
            }
        }
        for f in 0..256 {
            let mut b = rec.clone();
            for _ in 0..1 + rand() % 4 {
                let at = rand() as usize % b.len();
                b[at] ^= 1 + (rand() % 255) as u8;
            }
            run(&b, format!("flip set {f}"));
        }
        let mut trailing = rec.clone();
        trailing.push(0);
        assert!(!check_hostile(&trailing, "trailing byte"));

        // Targeted defects, each re-encoded into a well-formed record.
        let (k, a) = p
            .stmts
            .iter()
            .enumerate()
            .find_map(|(k, s)| {
                s.args
                    .iter()
                    .position(|o| matches!(o, Operand::Var(_)))
                    .map(|a| (k, a))
            })
            .expect("a statement reads a variable");
        let mut defects: Vec<(&str, Proc)> = Vec::new();
        for id in [nvars, u32::MAX] {
            let mut q = p.clone();
            q.stmts[k].args[a] = Operand::Var(VarId(id));
            defects.push(("out-of-range operand", q));
            let mut q = p.clone();
            q.stmts[k].dst = VarId(id);
            defects.push(("out-of-range dst", q));
        }
        for w in [0, 65] {
            let mut q = p.clone();
            q.vars[q.stmts[k].dst.index()].sort = Sort::Bv(w);
            defects.push(("var width", q));
            let mut q = p.clone();
            q.stmts[k].args[a] = Operand::Const { value: 1, width: w };
            defects.push(("constant width", q));
        }
        for op in [
            Op::Zext(65),
            Op::Sext(0),
            Op::Load(12),
            Op::Store(72),
            Op::Extract(64, 0),
        ] {
            let mut q = p.clone();
            q.stmts[k].op = op;
            defects.push(("op immediate", q));
        }
        for (what, q) in defects {
            assert!(
                !check_hostile(&encode_record(&q), what),
                "record {ri}: {what} decoded"
            );
        }
    }
    assert!(cases > 10_000, "only {cases} cases ran");
    assert!(survived < cases, "no mutation was refused");
}
