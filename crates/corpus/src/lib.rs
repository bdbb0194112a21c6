#![warn(missing_docs)]

//! # esh-corpus — the evaluation test-bed
//!
//! Builds the substitute for the paper's corpus (§5.2–§5.3): eight
//! CVE-shaped vulnerable procedures (with patched source versions) plus a
//! large distractor set, each compiled across the full vendor/version
//! matrix — gcc 4.{6,8,9}, CLang 3.{4,5}, icc {14,15} — at the package's
//! default optimization level.
//!
//! Ground truth is tracked per compiled procedure: the originating
//! package, source function, toolchain and patch level. Two compiled
//! procedures are *similar* (a true positive for retrieval) when they
//! originate from the same source function, regardless of toolchain or
//! patch (§5.3 treats patched variants as targets to find).

pub mod scale;

use esh_asm::Procedure;
use esh_cc::{Compiler, OptLevel, Toolchain};
use esh_minic::patch::{apply_patch, PatchLevel};
use esh_minic::{demo, gen, Function};
use serde::{Deserialize, Serialize};

/// Patch level tag for ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatchTag {
    /// The vulnerable original.
    Original,
    /// Patched with `n` edits.
    Patched(u8),
}

/// One compiled procedure with full ground-truth metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledProc {
    /// Package name (e.g. `openssl-1.0.1f`).
    pub package: String,
    /// Source function base name (patch suffixes stripped).
    pub func: String,
    /// CVE id when this is one of the vulnerable procedures.
    pub cve: Option<String>,
    /// Toolchain description, e.g. `gcc 4.9`.
    pub toolchain: String,
    /// Patch level.
    pub patch: PatchTag,
    /// The binary procedure.
    pub proc_: Procedure,
}

impl CompiledProc {
    /// True positives: same source function.
    pub fn same_source(&self, other: &CompiledProc) -> bool {
        self.func == other.func
    }

    /// A unique display name.
    pub fn display(&self) -> String {
        let patch = match self.patch {
            PatchTag::Original => String::new(),
            PatchTag::Patched(n) => format!(" (patched x{n})"),
        };
        format!(
            "{}:{} [{}]{}",
            self.package, self.func, self.toolchain, patch
        )
    }
}

/// Corpus construction knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Toolchains to compile with.
    pub toolchains: Vec<Toolchain>,
    /// Number of generated distractor functions.
    pub distractors: usize,
    /// Seed for distractor generation.
    pub seed: u64,
    /// Include patched source versions of the CVE procedures.
    pub patched_versions: bool,
    /// Size of the `DEFINE_SORT_FUNCTIONS`-style template family (§6.6).
    pub template_family: usize,
    /// Include wrapper procedures (§6.6).
    pub wrappers: bool,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            toolchains: Toolchain::paper_matrix(),
            distractors: 24,
            seed: 0xe5e5,
            patched_versions: true,
            template_family: 4,
            wrappers: true,
        }
    }
}

impl CorpusConfig {
    /// A small configuration for tests (two toolchains, few distractors).
    pub fn small() -> CorpusConfig {
        CorpusConfig {
            toolchains: vec![Toolchain::paper_matrix()[2], Toolchain::paper_matrix()[4]],
            distractors: 6,
            patched_versions: false,
            template_family: 0,
            wrappers: false,
            ..CorpusConfig::default()
        }
    }

    /// The paper-scale configuration (§5.2: ~1500 target procedures).
    pub fn paper_scale() -> CorpusConfig {
        CorpusConfig {
            distractors: 180,
            ..CorpusConfig::default()
        }
    }

    /// Builds the corpus from this configuration.
    pub fn build(&self) -> Corpus {
        Corpus::build(self)
    }
}

/// The CVE packages of Table 1, in order: `(cve, package, function)`.
pub fn cve_packages() -> Vec<(&'static str, &'static str, Function)> {
    vec![
        ("CVE-2014-0160", "openssl-1.0.1f", demo::heartbleed_like()),
        ("CVE-2014-6271", "bash-4.3", demo::shellshock_like()),
        ("CVE-2015-3456", "qemu-2.3", demo::venom_like()),
        ("CVE-2014-9295", "ntp-4.2.7", demo::clobberin_time_like()),
        ("CVE-2014-7169", "bash-4.3p1", demo::shellshock2_like()),
        ("CVE-2011-0444", "wireshark-1.4", demo::ws_snmp_like()),
        ("CVE-2014-4877", "wget-1.15", demo::wget_like()),
        ("CVE-2015-6826", "ffmpeg-2.4.6", demo::ffmpeg_like()),
    ]
}

/// The short aliases used in Table 1's rows.
pub fn cve_aliases() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Heartbleed", "CVE-2014-0160"),
        ("Shellshock", "CVE-2014-6271"),
        ("Venom", "CVE-2015-3456"),
        ("Clobberin' Time", "CVE-2014-9295"),
        ("Shellshock #2", "CVE-2014-7169"),
        ("ws-snmp", "CVE-2011-0444"),
        ("wget", "CVE-2014-4877"),
        ("ffmpeg", "CVE-2015-6826"),
    ]
}

/// One source procedure awaiting compilation: `(package, func, cve,
/// patch, function, opt level)`.
type SourceSpec = (String, String, Option<String>, PatchTag, Function, OptLevel);

/// Runs `job(i)` for every index in `0..n` across at most `threads`
/// scoped worker threads (an atomic index dispenser — no work splitting
/// up front), returning the results in index order. Result order is
/// independent of `threads`, which is what keeps `--threads` a pure
/// throughput knob: corpus proc order, and everything downstream of it,
/// stays byte-identical.
pub(crate) fn pooled<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                *slots[i].lock().expect("pool slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("pool slot poisoned")
                .expect("every pool index ran")
        })
        .collect()
}

/// Compiles every source with one toolchain, in source order.
fn compile_toolchain(tc: Toolchain, sources: &[SourceSpec]) -> Vec<CompiledProc> {
    sources
        .iter()
        .map(|(package, func, cve, patch, f, opt)| {
            let cc = Compiler::with_opt(tc.vendor, tc.version, *opt);
            CompiledProc {
                package: package.clone(),
                func: func.clone(),
                cve: cve.clone(),
                toolchain: format!("{} {}", tc.vendor, tc.version),
                patch: *patch,
                proc_: cc.compile_function(f),
            }
        })
        .collect()
}

/// The built test-bed.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Corpus {
    /// Every compiled procedure, queries and targets alike.
    pub procs: Vec<CompiledProc>,
}

impl Corpus {
    /// Builds a corpus per `config` with one compile thread per
    /// toolchain (the historical default).
    pub fn build(config: &CorpusConfig) -> Corpus {
        Corpus::build_with_threads(config, config.toolchains.len())
    }

    /// Builds a corpus per `config` using at most `threads` compile
    /// threads. The result is byte-identical for every thread count.
    pub fn build_with_threads(config: &CorpusConfig, threads: usize) -> Corpus {
        let mut procs = Vec::new();
        let mut sources: Vec<SourceSpec> = Vec::new();

        for (cve, package, f) in cve_packages() {
            // OpenSSL defaults to -O3, the rest to -O2 (§5.2).
            let opt = if package.starts_with("openssl") {
                OptLevel::O3
            } else {
                OptLevel::O2
            };
            sources.push((
                package.to_string(),
                f.name.clone(),
                Some(cve.to_string()),
                PatchTag::Original,
                f.clone(),
                opt,
            ));
            if config.patched_versions {
                for (k, level) in [(1u8, PatchLevel::Minor), (3, PatchLevel::Moderate)] {
                    let mut p = apply_patch(&f, level, u64::from(k) ^ config.seed);
                    p.name = f.name.clone();
                    sources.push((
                        format!("{package}-p{k}"),
                        f.name.clone(),
                        Some(cve.to_string()),
                        PatchTag::Patched(k),
                        p,
                        opt,
                    ));
                }
            }
        }

        // Distractors from Coreutils-like generated code.
        let module = gen::generate_module(config.seed, "coreutils-8.23", config.distractors);
        for f in module.functions {
            sources.push((
                "coreutils-8.23".to_string(),
                f.name.clone(),
                None,
                PatchTag::Original,
                f,
                OptLevel::O2,
            ));
        }
        if config.template_family > 0 {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(config.seed);
            for f in gen::generate_template_family(&mut rng, "strcmp_key", config.template_family) {
                sources.push((
                    "coreutils-8.23".to_string(),
                    f.name.clone(),
                    None,
                    PatchTag::Original,
                    f,
                    OptLevel::O2,
                ));
            }
        }
        if config.wrappers {
            let f = demo::exit_cleanup_wrapper();
            sources.push((
                "coreutils-8.23".to_string(),
                f.name.clone(),
                None,
                PatchTag::Original,
                f,
                OptLevel::O2,
            ));
        }

        // Toolchains compile independently, so fan them out across a
        // bounded worker pool; splicing the per-toolchain batches back
        // in toolchain order keeps the proc order identical to the old
        // sequential loop (pinned by `corpus_is_deterministic`).
        let batches = pooled(config.toolchains.len(), threads, |i| {
            compile_toolchain(config.toolchains[i], &sources)
        });
        for batch in batches {
            procs.extend(batch);
        }
        Corpus { procs }
    }

    /// Indices of procedures for a given CVE.
    pub fn cve_indices(&self, cve: &str) -> Vec<usize> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cve.as_deref() == Some(cve))
            .map(|(i, _)| i)
            .collect()
    }

    /// Picks the canonical query for a CVE: the unpatched variant compiled
    /// with `toolchain` (substring match, e.g. `"clang 3.5"`).
    pub fn query_for(&self, cve: &str, toolchain: &str) -> Option<usize> {
        self.procs.iter().position(|p| {
            p.cve.as_deref() == Some(cve)
                && p.patch == PatchTag::Original
                && p.toolchain.contains(toolchain)
        })
    }

    /// Groups the corpus into whole "binaries": one [`esh_asm::Program`] per
    /// `(package, toolchain)` pair — the unit BinDiff-style library
    /// matching operates on (§6.4 compares whole executables/libraries).
    pub fn as_programs(&self) -> Vec<esh_asm::Program> {
        let mut order: Vec<(String, String)> = Vec::new();
        let mut groups: std::collections::HashMap<(String, String), esh_asm::Program> =
            std::collections::HashMap::new();
        for p in &self.procs {
            let key = (p.package.clone(), p.toolchain.clone());
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups
                .entry(key.clone())
                .or_insert_with(|| esh_asm::Program::new(format!("{} [{}]", key.0, key.1)))
                .procs
                .push(p.proc_.clone());
        }
        order
            .into_iter()
            .map(|k| groups.remove(&k).expect("grouped"))
            .collect()
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn from_json(s: &str) -> Result<Corpus, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Convenience alias so callers can write `CorpusBuilder::default().build()`.
pub type CorpusBuilder = CorpusConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_builds_with_ground_truth() {
        let c = Corpus::build(&CorpusConfig::small());
        // 8 CVEs + 6 distractors, 2 toolchains.
        assert_eq!(c.procs.len(), (8 + 6) * 2);
        let hb = c.cve_indices("CVE-2014-0160");
        assert_eq!(hb.len(), 2);
        assert!(c.procs[hb[0]].same_source(&c.procs[hb[1]]));
        assert!(!c.procs[hb[0]].same_source(&c.procs[c.cve_indices("CVE-2015-3456")[0]]));
    }

    #[test]
    fn patched_versions_share_ground_truth() {
        let config = CorpusConfig {
            distractors: 0,
            template_family: 0,
            wrappers: false,
            toolchains: vec![Toolchain::paper_matrix()[0]],
            ..CorpusConfig::default()
        };
        let c = Corpus::build(&config);
        // 8 CVEs × 3 source versions × 1 toolchain.
        assert_eq!(c.procs.len(), 24);
        let hb = c.cve_indices("CVE-2014-0160");
        assert_eq!(hb.len(), 3);
        assert!(hb.iter().all(|i| c.procs[*i].func == c.procs[hb[0]].func));
        assert!(hb.iter().any(|i| c.procs[*i].patch != PatchTag::Original));
    }

    #[test]
    fn query_lookup_respects_toolchain() {
        let c = Corpus::build(&CorpusConfig::small());
        let q = c
            .query_for("CVE-2014-0160", "clang 3.5")
            .expect("query exists");
        assert!(c.procs[q].toolchain.contains("clang"));
        assert_eq!(c.procs[q].patch, PatchTag::Original);
        assert!(c.query_for("CVE-2014-0160", "gcc 9.9").is_none());
    }

    #[test]
    fn programs_group_by_package_and_toolchain() {
        let c = Corpus::build(&CorpusConfig::small());
        let programs = c.as_programs();
        // 9 packages (8 CVE + coreutils) × 2 toolchains.
        assert_eq!(programs.len(), 18);
        let total: usize = programs.iter().map(|p| p.procs.len()).sum();
        assert_eq!(total, c.procs.len());
        // The coreutils binary holds all the distractors.
        let coreutils = programs
            .iter()
            .find(|p| p.name.starts_with("coreutils"))
            .expect("coreutils binary");
        assert!(coreutils.procs.len() >= 6);
    }

    #[test]
    fn corpus_roundtrips_through_json() {
        let c = Corpus::build(&CorpusConfig::small());
        let json = c.to_json().expect("serializes");
        let back = Corpus::from_json(&json).expect("deserializes");
        assert_eq!(c.procs.len(), back.procs.len());
        assert_eq!(c.procs[0].proc_, back.procs[0].proc_);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::build(&CorpusConfig::small());
        let b = Corpus::build(&CorpusConfig::small());
        assert_eq!(a.procs.len(), b.procs.len());
        for (x, y) in a.procs.iter().zip(&b.procs) {
            assert_eq!(x.proc_, y.proc_);
        }
    }

    #[test]
    fn thread_count_never_changes_the_corpus() {
        let full = Corpus::build(&CorpusConfig::small());
        for threads in [1, 2, 7, 64] {
            let c = Corpus::build_with_threads(&CorpusConfig::small(), threads);
            assert_eq!(c.procs.len(), full.procs.len(), "threads={threads}");
            for (x, y) in full.procs.iter().zip(&c.procs) {
                assert_eq!(x.proc_, y.proc_, "threads={threads}");
                assert_eq!(x.toolchain, y.toolchain, "threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_preserves_index_order_at_any_width() {
        let n = 23;
        for threads in [1, 3, 8, 100] {
            let out = pooled(n, threads, |i| i * i);
            assert_eq!(
                out,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        assert!(pooled(0, 4, |i| i).is_empty());
    }

    #[test]
    fn paper_scale_matches_corpus_size() {
        // (8×3 CVE versions + 180 distractors + 4 templates + 1 wrapper) × 7
        // toolchains ≈ the paper's 1500 target procedures.
        let expected = (24 + 180 + 4 + 1) * 7;
        assert_eq!(expected, 1463);
        let cfg = CorpusConfig::paper_scale();
        assert_eq!(cfg.distractors, 180);
    }
}
