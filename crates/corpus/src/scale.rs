//! Scale-tier corpus generation: a seeded stream of synthetic
//! procedures at 10k+ scale.
//!
//! The paper-shaped corpus ([`crate::CorpusConfig`]) materializes every
//! source function and every compiled procedure before returning — fine
//! at ~1500 procedures, hostile at 10k+. This module instead *streams*:
//! source functions are index-addressable
//! ([`esh_minic::gen::generate_scale_source`] re-seeds per index), so the
//! generator works through fixed-size chunks of sources, fans each chunk
//! across the compiler matrix with scoped threads, emits the chunk's
//! procedures, and drops everything before the next chunk.
//!
//! The emit order is deterministic and **source-major**: all compilations
//! of source 0 (in matrix order), then all of source 1, … — so a prefix
//! of the stream at any size covers the full compiler matrix as evenly
//! as possible, and `--procs N` truncates to exactly `N` procedures.

use esh_cc::{Compiler, OptLevel, Toolchain};
use esh_minic::gen::generate_scale_source;

use crate::{CompiledProc, PatchTag};

/// Sources generated (and compiled across the matrix) per streaming
/// chunk. Bounds peak memory to `SCALE_CHUNK × matrix` procedures.
pub const SCALE_CHUNK: usize = 64;

/// The scale-tier compiler matrix: the paper's 7 vendor/version pairs
/// (gcc 4.{6,8,9}, CLang 3.{4,5}, icc {14,15}) each at `-O0`, `-O2` and
/// `-O3` — 21 toolchain configurations.
pub fn scale_matrix() -> Vec<Toolchain> {
    let mut matrix = Vec::new();
    for tc in Toolchain::paper_matrix() {
        for opt in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            matrix.push(Toolchain { opt, ..tc });
        }
    }
    matrix
}

/// Knobs for the scale-tier generator.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Total procedures to emit (exact; the stream truncates).
    pub procs: usize,
    /// Generation seed.
    pub seed: u64,
    /// Package name stamped on every emitted procedure.
    pub package: String,
}

impl ScaleConfig {
    /// A configuration emitting exactly `procs` procedures from `seed`.
    pub fn new(procs: usize, seed: u64) -> ScaleConfig {
        ScaleConfig {
            procs,
            seed,
            package: "synth-scale".to_string(),
        }
    }

    /// Distinct source functions needed to cover `self.procs` emissions.
    pub fn source_count(&self) -> usize {
        self.procs.div_ceil(scale_matrix().len())
    }
}

/// Streams the scale corpus for `config`, calling `emit` once per
/// compiled procedure in the deterministic source-major order. Returns
/// the number of procedures emitted (== `config.procs`). Compiles with
/// one thread per toolchain configuration (the historical default).
pub fn stream_scale_corpus(config: &ScaleConfig, emit: impl FnMut(CompiledProc)) -> usize {
    stream_scale_corpus_with_threads(config, scale_matrix().len(), emit)
}

/// [`stream_scale_corpus`] with at most `threads` compile threads per
/// chunk. The emitted stream is byte-identical for every thread count —
/// per-chunk results splice back in matrix order regardless of which
/// worker compiled them.
///
/// Memory stays bounded by one chunk ([`SCALE_CHUNK`] sources × the
/// 21-configuration matrix) regardless of `config.procs`.
pub fn stream_scale_corpus_with_threads(
    config: &ScaleConfig,
    threads: usize,
    mut emit: impl FnMut(CompiledProc),
) -> usize {
    let matrix = scale_matrix();
    let mut emitted = 0usize;
    let mut next_source = 0u64;
    while emitted < config.procs {
        let sources: Vec<_> = (0..SCALE_CHUNK as u64)
            .map(|k| generate_scale_source(config.seed, next_source + k))
            .collect();
        next_source += SCALE_CHUNK as u64;

        // The worker pool hands out matrix indices; collecting in
        // matrix order keeps the result deterministic.
        let compiled: Vec<Vec<esh_asm::Procedure>> = crate::pooled(matrix.len(), threads, |c| {
            let tc = &matrix[c];
            let cc = Compiler::with_opt(tc.vendor, tc.version, tc.opt);
            sources.iter().map(|f| cc.compile_function(f)).collect()
        });

        'chunk: for (s, source) in sources.iter().enumerate() {
            for (c, tc) in matrix.iter().enumerate() {
                if emitted == config.procs {
                    break 'chunk;
                }
                emit(CompiledProc {
                    package: config.package.clone(),
                    func: source.name.clone(),
                    cve: None,
                    toolchain: tc.to_string(),
                    patch: PatchTag::Original,
                    proc_: compiled[c][s].clone(),
                });
                emitted += 1;
            }
        }
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_seven_vendors_times_three_opt_levels() {
        let m = scale_matrix();
        assert_eq!(m.len(), 21);
        let distinct: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(distinct.len(), 21);
    }

    #[test]
    fn stream_emits_exactly_n_deterministically() {
        let config = ScaleConfig::new(50, 77);
        let mut a = Vec::new();
        assert_eq!(stream_scale_corpus(&config, |p| a.push(p)), 50);
        assert_eq!(a.len(), 50);
        let mut b = Vec::new();
        stream_scale_corpus(&config, |p| b.push(p));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.proc_, y.proc_);
            assert_eq!(x.toolchain, y.toolchain);
        }
        // Source-major: the first 21 emissions are source 0 across the
        // whole matrix.
        assert!(a[..21].iter().all(|p| p.func == a[0].func));
        assert_ne!(a[21].func, a[0].func);
    }

    #[test]
    fn stream_spans_the_matrix_and_names_are_distinct() {
        let config = ScaleConfig::new(63, 5);
        let mut toolchains = std::collections::HashSet::new();
        let mut funcs = std::collections::HashSet::new();
        stream_scale_corpus(&config, |p| {
            toolchains.insert(p.toolchain.clone());
            funcs.insert(p.func.clone());
        });
        assert_eq!(toolchains.len(), 21);
        assert_eq!(funcs.len(), 3, "63 procs = 3 sources x 21 configs");
    }

    #[test]
    fn thread_count_never_changes_the_stream() {
        let config = ScaleConfig::new(47, 123);
        let mut full = Vec::new();
        stream_scale_corpus(&config, |p| full.push(p));
        for threads in [1, 4, 64] {
            let mut got = Vec::new();
            stream_scale_corpus_with_threads(&config, threads, |p| got.push(p));
            assert_eq!(got.len(), full.len(), "threads={threads}");
            for (x, y) in full.iter().zip(&got) {
                assert_eq!(x.proc_, y.proc_, "threads={threads}");
                assert_eq!(x.toolchain, y.toolchain, "threads={threads}");
            }
        }
    }

    #[test]
    fn truncation_mid_matrix_is_exact() {
        let config = ScaleConfig::new(25, 9);
        let mut n = 0;
        stream_scale_corpus(&config, |_| n += 1);
        assert_eq!(n, 25);
        assert_eq!(config.source_count(), 2);
    }
}
