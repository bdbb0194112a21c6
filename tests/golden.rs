//! Golden digests: the parity checks a behaviour-neutral change must pass,
//! pinned as `stable_hash64` digests under `tests/golden/`.
//!
//! - `paper_drivers.txt`: the JSON the five smoke paper drivers write
//!   (`table1`, `table2`, `table3`, `fig5`, `fig6`, each run as
//!   `<driver> smoke`), rendered by the same calls the drivers make.
//! - `seed7_index.txt`: every file `esh index build` writes for the
//!   200-procedure `esh corpus gen --seed 7` corpus at 16 targets per
//!   shard.
//! - `seed7_queries.txt`: `esh query --index --json` top-200 over that
//!   index for `gen_7_0` and `gen_7_3 [gcc 4.6`: outcome, query name and
//!   every match's rank, name and the bits of its three `f64` scores.
//!   Latency and queue time are dropped.
//!
//! A mismatch lists every entry that moved. After a deliberate change,
//! `ESH_BLESS=1 cargo test --test golden` rewrites the digest files; the
//! change must then say which entries moved and why.

use std::path::{Path, PathBuf};
use std::process::Command;

use esh_core::EngineConfig;
use esh_corpus::Corpus;
use esh_eval::experiments::{
    build_engine, fig6_indices, run_fig5, run_fig6, run_table1, run_table2, run_table3, Scale,
};
use esh_serve::protocol::QueryResponse;
use esh_strands::stable_hash64;

/// Digest of a byte string: its length, then its bytes as little-endian
/// words (the last one zero-padded).
fn digest(bytes: &[u8]) -> u64 {
    let words = bytes.chunks(8).map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    stable_hash64(std::iter::once(bytes.len() as u64).chain(words))
}

/// Compares `(name, digest)` pairs with `tests/golden/<file>`, or rewrites
/// that file when `ESH_BLESS=1`.
fn check(file: &str, actual: &[(String, u64)]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    let render: String = actual.iter().map(|(name, d)| format!("{name} {d:016x}\n")).collect();
    if std::env::var_os("ESH_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with ESH_BLESS=1 to create it)", path.display()));
    let mut moved = Vec::new();
    let lines: Vec<&str> = expected.lines().collect();
    for (name, d) in actual {
        let want = lines
            .iter()
            .find_map(|l| l.strip_prefix(name.as_str())?.strip_prefix(' '));
        let got = format!("{d:016x}");
        if want != Some(got.as_str()) {
            moved.push(format!("{name}: golden {want:?}, now {got}"));
        }
    }
    if lines.len() != actual.len() {
        moved.push(format!("{} golden entries, {} now", lines.len(), actual.len()));
    }
    assert!(moved.is_empty(), "{file}: digests moved:\n  {}", moved.join("\n  "));
}

/// Digest of a driver result as the driver writes it.
macro_rules! json {
    ($value:expr) => {
        digest(serde_json::to_string_pretty(&$value).unwrap().as_bytes())
    };
}

#[test]
fn paper_driver_smoke_json_is_golden() {
    let corpus = Corpus::build(&Scale::Smoke.corpus_config());
    let engine = build_engine(&corpus, EngineConfig::default());
    let indices = fig6_indices(&corpus, 40);
    let actual = vec![
        ("table1.json".to_string(), json!(run_table1(&corpus, &engine))),
        ("table2.json".to_string(), json!(run_table2(&corpus, EngineConfig::default()))),
        ("table3.json".to_string(), json!(run_table3(24))),
        ("fig5.json".to_string(), json!(run_fig5(&corpus, &engine))),
        ("fig6.json".to_string(), json!(run_fig6(&corpus, &indices, EngineConfig::default()))),
    ];
    check("paper_drivers.txt", &actual);
}

/// Runs the shipped `esh` binary and returns its stdout.
fn esh(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_esh")).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "esh {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Digest of one ranked response, latency and queue time excluded.
fn response_digest(stdout: &[u8]) -> u64 {
    let r: QueryResponse = serde_json::from_str(std::str::from_utf8(stdout).unwrap().trim())
        .expect("one JSON response line");
    let mut words = vec![digest(format!("{:?}", r.outcome).as_bytes())];
    words.push(digest(r.query.unwrap_or_default().as_bytes()));
    for m in &r.matches {
        words.extend([m.rank, digest(m.name.as_bytes())]);
        words.extend([m.ges.to_bits(), m.s_log.to_bits(), m.s_vcp.to_bits()]);
    }
    stable_hash64(words)
}

/// A scratch directory, removed when dropped (also when a check fails).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn seed7_index_and_rankings_are_golden() {
    let scratch = Scratch(std::env::temp_dir().join(format!("esh-golden-{}", std::process::id())));
    let dir = &scratch.0;
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let corpus = dir.join("g.json");
    let index = dir.join("g.eshx");
    let (corpus_s, index_s) = (corpus.to_str().unwrap(), index.to_str().unwrap());
    esh(&["corpus", "gen", "--procs", "200", "--seed", "7", "--out", corpus_s]);
    esh(&["index", "build", corpus_s, index_s, "16"]);

    let mut files: Vec<(String, u64)> = std::fs::read_dir(&index)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), digest(&std::fs::read(e.path()).unwrap()))
        })
        .collect();
    files.sort();
    check("seed7_index.txt", &files);
    let queries: Vec<(String, u64)> = ["gen_7_0", "gen_7_3 [gcc 4.6"]
        .iter()
        .map(|q| {
            let out = esh(&["query", "--index", index_s, "--json", corpus_s, q, "200"]);
            (q.replace(' ', "_"), response_digest(&out))
        })
        .collect();
    check("seed7_queries.txt", &queries);
}
