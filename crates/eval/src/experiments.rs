//! Drivers regenerating every table and figure of the paper's evaluation.
//!
//! Each `run_*` function returns a structured result and can render itself
//! as text; the `esh-eval` binaries and the `esh-bench` criterion harness
//! call these. Scales control corpus size: `Smoke` for CI, `Default` for
//! a laptop run, `Paper` for the full ~1500-procedure corpus.

use esh_baselines::{match_libraries, tracy_similarity};
use esh_core::{EngineConfig, QueryScores, ScoringMode, SimilarityEngine, TargetId};
use esh_corpus::{cve_aliases, cve_packages, Corpus, CorpusConfig, PatchTag};
use esh_strands::strand_stats;
use serde::{Deserialize, Serialize};

use crate::render::{f3, heatmap, TextTable};
use crate::roc::{croc_auc, false_positives, roc_auc};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: two toolchains, few distractors (CI).
    Smoke,
    /// Medium: the full toolchain matrix, reduced distractor count.
    Default,
    /// The paper-scale corpus (~1500 procedures).
    Paper,
}

impl Scale {
    /// The corpus configuration for this scale.
    pub fn corpus_config(self) -> CorpusConfig {
        match self {
            Scale::Smoke => CorpusConfig::small(),
            Scale::Default => CorpusConfig::default(),
            Scale::Paper => CorpusConfig::paper_scale(),
        }
    }

    /// Parses `smoke`/`default`/`paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Builds an engine over the whole corpus.
pub fn build_engine(corpus: &Corpus, config: EngineConfig) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(config);
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

/// Labels a query's scores against ground truth, excluding the query's own
/// corpus entry.
fn labelled(
    corpus: &Corpus,
    scores: &QueryScores,
    query_idx: usize,
    mode: ScoringMode,
) -> Vec<(f64, bool)> {
    let qf = &corpus.procs[query_idx].func;
    scores
        .scores
        .iter()
        .filter(|s| s.target != TargetId(query_idx))
        .map(|s| (s.score(mode), &corpus.procs[s.target.0].func == qf))
        .collect()
}

/// Metrics of one method on one experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MethodMetrics {
    /// Human-examiner false positives.
    pub fp: usize,
    /// ROC AUC.
    pub roc: f64,
    /// CROC AUC.
    pub croc: f64,
}

fn metrics(items: &[(f64, bool)]) -> MethodMetrics {
    MethodMetrics {
        fp: false_positives(items),
        roc: roc_auc(items),
        croc: croc_auc(items),
    }
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// The alias used in the paper ("Heartbleed", ...).
    pub alias: String,
    /// CVE id.
    pub cve: String,
    /// Basic blocks of the query.
    pub basic_blocks: usize,
    /// Strand count of the query.
    pub strands: usize,
    /// S-VCP ablation.
    pub s_vcp: MethodMetrics,
    /// S-LOG ablation.
    pub s_log: MethodMetrics,
    /// Full Esh.
    pub esh: MethodMetrics,
}

/// Table 1: the eight vulnerability searches under each scoring mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// One row per CVE experiment.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "#",
            "Alias",
            "CVE",
            "#BB",
            "#Strands",
            "S-VCP FP",
            "S-VCP ROC",
            "S-VCP CROC",
            "S-LOG FP",
            "S-LOG ROC",
            "S-LOG CROC",
            "Esh FP",
            "Esh ROC",
            "Esh CROC",
        ]);
        for (i, r) in self.rows.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                r.alias.clone(),
                r.cve.clone(),
                r.basic_blocks.to_string(),
                r.strands.to_string(),
                r.s_vcp.fp.to_string(),
                f3(r.s_vcp.roc),
                f3(r.s_vcp.croc),
                r.s_log.fp.to_string(),
                f3(r.s_log.roc),
                f3(r.s_log.croc),
                r.esh.fp.to_string(),
                f3(r.esh.roc),
                f3(r.esh.croc),
            ]);
        }
        t.render()
    }
}

/// The query toolchain alternates per experiment so no vendor is favoured
/// (§5.3 "alternating the query used").
pub fn query_toolchain_rotation() -> Vec<&'static str> {
    vec![
        "clang 3.5",
        "gcc 4.9",
        "icc 15.0",
        "gcc 4.8",
        "clang 3.4",
        "icc 14.0",
        "gcc 4.6",
        "clang 3.5",
    ]
}

/// Runs the Table 1 experiment against a prebuilt engine.
pub fn run_table1(corpus: &Corpus, engine: &SimilarityEngine) -> Table1 {
    let rotation = query_toolchain_rotation();
    let mut rows = Vec::new();
    for (i, (alias, cve)) in cve_aliases().into_iter().enumerate() {
        let query_idx = corpus
            .query_for(cve, rotation[i % rotation.len()])
            .or_else(|| corpus.query_for(cve, ""))
            .expect("corpus contains the CVE");
        let qp = &corpus.procs[query_idx].proc_;
        let stats = strand_stats(qp);
        let scores = engine.query(qp);
        let m = |mode| metrics(&labelled(corpus, &scores, query_idx, mode));
        rows.push(Table1Row {
            alias: alias.to_string(),
            cve: cve.to_string(),
            basic_blocks: stats.basic_blocks,
            strands: stats.strands,
            s_vcp: m(ScoringMode::SVcp),
            s_log: m(ScoringMode::SLog),
            esh: m(ScoringMode::Esh),
        });
    }
    Table1 { rows }
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2: an aspect combination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Compiler-version aspect enabled.
    pub versions: bool,
    /// Cross-vendor aspect enabled.
    pub cross: bool,
    /// Patch aspect enabled.
    pub patches: bool,
    /// TRACY (Ratio-70) ROC AUC.
    pub tracy: f64,
    /// Esh ROC AUC.
    pub esh: f64,
}

/// Table 2: TRACY vs Esh across problem aspects.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// The seven aspect combinations.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Versions", "Cross", "Patches", "TRACY (Ratio-70)", "Esh"]);
        let check = |b: bool| if b { "x".to_string() } else { String::new() };
        for r in &self.rows {
            t.row(vec![
                check(r.versions),
                check(r.cross),
                check(r.patches),
                f3(r.tracy),
                f3(r.esh),
            ]);
        }
        t.render()
    }
}

/// Runs Table 2 on the Heartbleed query (the paper focuses on experiment
/// #1 for this comparison).
pub fn run_table2(corpus: &Corpus, engine_config: EngineConfig) -> Table2 {
    let cve = "CVE-2014-0160";
    let query_idx = corpus
        .query_for(cve, "gcc 4.9")
        .or_else(|| corpus.query_for(cve, ""))
        .expect("heartbleed in corpus");
    let query = &corpus.procs[query_idx];
    let combos = [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (true, false, true),
        (false, true, true),
        (true, true, true),
    ];
    let query_vendor = query.toolchain.split(' ').next().unwrap_or("").to_string();
    let mut rows = Vec::new();
    for (versions, cross, patches) in combos {
        // Target set: all non-CVE-family procedures (distractors) plus the
        // true-positive variants selected by the aspect combination.
        let mut targets: Vec<usize> = Vec::new();
        for (i, p) in corpus.procs.iter().enumerate() {
            if i == query_idx {
                continue;
            }
            if p.func != query.func {
                targets.push(i);
                continue;
            }
            let same_vendor = p.toolchain.starts_with(&query_vendor);
            let same_toolchain = p.toolchain == query.toolchain;
            let is_patched = p.patch != PatchTag::Original;
            let aspect_ok = match (versions, cross, patches) {
                (true, false, false) => same_vendor && !same_toolchain && !is_patched,
                (false, true, false) => !same_vendor && !is_patched,
                (false, false, true) => same_toolchain && is_patched,
                (true, true, false) => !same_toolchain && !is_patched,
                (true, false, true) => same_vendor && (!same_toolchain || is_patched),
                (false, true, true) => !same_vendor,
                (true, true, true) => true,
                _ => unreachable!(),
            };
            if aspect_ok && (!same_toolchain || is_patched) {
                targets.push(i);
            }
        }
        let mut engine = SimilarityEngine::new(engine_config.clone());
        for &i in &targets {
            engine.add_target(corpus.procs[i].display(), &corpus.procs[i].proc_);
        }
        let scores = engine.query(&query.proc_);
        let esh_items: Vec<(f64, bool)> = scores
            .scores
            .iter()
            .enumerate()
            .map(|(k, s)| (s.ges, corpus.procs[targets[k]].func == query.func))
            .collect();
        let tracy_items: Vec<(f64, bool)> = targets
            .iter()
            .map(|&i| {
                (
                    tracy_similarity(&query.proc_, &corpus.procs[i].proc_),
                    corpus.procs[i].func == query.func,
                )
            })
            .collect();
        rows.push(Table2Row {
            versions,
            cross,
            patches,
            tracy: roc_auc(&tracy_items),
            esh: roc_auc(&esh_items),
        });
    }
    Table2 { rows }
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// CVE alias.
    pub alias: String,
    /// Whether BinDiff paired the vulnerable procedure correctly.
    pub matched: bool,
    /// BinDiff similarity when matched.
    pub similarity: Option<f64>,
    /// BinDiff confidence when matched.
    pub confidence: Option<f64>,
}

/// Table 3: BinDiff on cross-vendor, patched whole libraries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per CVE.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Alias", "Matched?", "Similarity", "Confidence"]);
        for r in &self.rows {
            t.row(vec![
                r.alias.clone(),
                if r.matched { "yes" } else { "no" }.into(),
                r.similarity.map(f3).unwrap_or_else(|| "-".into()),
                r.confidence.map(f3).unwrap_or_else(|| "-".into()),
            ]);
        }
        t.render()
    }
}

/// Runs Table 3: each CVE's library compiled with gcc 4.9 vs the patched
/// source compiled with icc 15.0 (whole-library matching, as BinDiff
/// requires). icc is the vendor pair that preserves the most structure,
/// giving BinDiff its best shot — the paper likewise reports that its two
/// successes were exactly the cases "where the number of blocks and
/// branches remained the same".
pub fn run_table3(distractor_count: usize) -> Table3 {
    use esh_asm::Program;
    use esh_cc::{Compiler, Vendor, VendorVersion};
    use esh_minic::gen;
    use esh_minic::patch::{apply_patch, PatchLevel};

    let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let other = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    let module = gen::generate_module(0x7ab1e3, "lib", distractor_count);
    let mut rows = Vec::new();
    for (alias, cve) in cve_aliases() {
        let (_, _, f) = cve_packages()
            .into_iter()
            .find(|(c, _, _)| *c == cve)
            .expect("cve exists");
        let mut lib_a = Program::new("a");
        lib_a.procs.push(gcc.compile_function(&f));
        for d in &module.functions {
            lib_a.procs.push(gcc.compile_function(d));
        }
        let mut lib_b = Program::new("b");
        let mut patched = apply_patch(&f, PatchLevel::Moderate, 5);
        patched.name = f.name.clone();
        lib_b.procs.push(other.compile_function(&patched));
        for d in &module.functions {
            lib_b.procs.push(other.compile_function(d));
        }
        let matches = match_libraries(&lib_a, &lib_b);
        let hit = matches.iter().find(|m| m.a == f.name);
        let matched = hit.map(|m| m.b == f.name).unwrap_or(false);
        rows.push(Table3Row {
            alias: alias.to_string(),
            matched,
            similarity: hit.filter(|m| m.b == f.name).map(|m| m.similarity),
            confidence: hit.filter(|m| m.b == f.name).map(|m| m.confidence),
        });
    }
    Table3 { rows }
}

// ---------------------------------------------------------------- Figure 5

/// One bar of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Bar {
    /// Target display name.
    pub name: String,
    /// Normalized GES.
    pub score: f64,
    /// Ground truth: same source as the query.
    pub is_tp: bool,
}

/// Figure 5: the Heartbleed search, one bar per target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// Bars in rank order (best first).
    pub bars: Vec<Fig5Bar>,
    /// Lowest true-positive normalized GES.
    pub min_tp: f64,
    /// Highest false-positive normalized GES.
    pub max_fp: f64,
    /// ROC AUC of the ranking.
    pub roc: f64,
    /// CROC AUC of the ranking.
    pub croc: f64,
}

impl Fig5 {
    /// The TP/FP separation gap (positive = clean separation, as the
    /// paper's 0.419 vs 0.333).
    pub fn gap(&self) -> f64 {
        self.min_tp - self.max_fp
    }

    /// Renders bars as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 5 — Heartbleed search: gap = {:.3} (min TP {:.3} vs max FP {:.3}), \
             ROC = {:.3}, CROC = {:.3}\n",
            self.gap(),
            self.min_tp,
            self.max_fp,
            self.roc,
            self.croc
        ));
        for b in self.bars.iter().take(30) {
            let bar = "#".repeat((b.score * 50.0).round() as usize);
            let tag = if b.is_tp { "TP" } else { "  " };
            out.push_str(&format!("{:5.3} {tag} |{bar:<50}| {}\n", b.score, b.name));
        }
        out
    }
}

/// Runs the Figure 5 experiment (query: Heartbleed compiled with CLang
/// 3.5, as in §6.1).
pub fn run_fig5(corpus: &Corpus, engine: &SimilarityEngine) -> Fig5 {
    let cve = "CVE-2014-0160";
    let query_idx = corpus
        .query_for(cve, "clang 3.5")
        .or_else(|| corpus.query_for(cve, ""))
        .expect("heartbleed in corpus");
    let query = &corpus.procs[query_idx];
    let scores = engine.query(&query.proc_);
    let normalized = scores.normalized();
    let mut bars: Vec<Fig5Bar> = scores
        .scores
        .iter()
        .zip(normalized.iter())
        .filter(|(s, _)| s.target != TargetId(query_idx))
        .map(|(s, (_, v))| Fig5Bar {
            name: corpus.procs[s.target.0].display(),
            score: *v,
            is_tp: corpus.procs[s.target.0].func == query.func,
        })
        .collect();
    bars.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let min_tp = bars
        .iter()
        .filter(|b| b.is_tp)
        .map(|b| b.score)
        .fold(f64::INFINITY, f64::min);
    let max_fp = bars
        .iter()
        .filter(|b| !b.is_tp)
        .map(|b| b.score)
        .fold(f64::NEG_INFINITY, f64::max);
    let items: Vec<(f64, bool)> = bars.iter().map(|b| (b.score, b.is_tp)).collect();
    Fig5 {
        min_tp,
        max_fp,
        roc: roc_auc(&items),
        croc: croc_auc(&items),
        bars,
    }
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: the all-vs-all heat map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6 {
    /// Query display names (same order on both axes).
    pub labels: Vec<String>,
    /// Row-normalized GES matrix.
    pub matrix: Vec<Vec<f64>>,
    /// Mean per-row ROC AUC.
    pub avg_roc: f64,
    /// Mean per-row CROC AUC.
    pub avg_croc: f64,
    /// Ground-truth source function per row.
    pub funcs: Vec<String>,
}

impl Fig6 {
    /// Renders the heat map.
    pub fn render(&self) -> String {
        format!(
            "Figure 6 — all-vs-all: avg ROC = {:.3}, avg CROC = {:.3}\n{}",
            self.avg_roc,
            self.avg_croc,
            heatmap(&self.matrix, &self.labels)
        )
    }

    /// Symmetry defect: mean `|m[i][j] - m[j][i]|` (the paper notes GES
    /// is asymmetric).
    pub fn asymmetry(&self) -> f64 {
        let n = self.matrix.len();
        if n == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sum += (self.matrix[i][j] - self.matrix[j][i]).abs();
                    count += 1;
                }
            }
        }
        sum / count.max(1) as f64
    }
}

/// Runs the Figure 6 experiment over `indices` (queries = targets).
pub fn run_fig6(corpus: &Corpus, indices: &[usize], engine_config: EngineConfig) -> Fig6 {
    let mut engine = SimilarityEngine::new(engine_config);
    for &i in indices {
        engine.add_target(corpus.procs[i].display(), &corpus.procs[i].proc_);
    }
    let mut matrix = Vec::new();
    let mut rocs = Vec::new();
    let mut crocs = Vec::new();
    for (row_k, &qi) in indices.iter().enumerate() {
        let scores = engine.query(&corpus.procs[qi].proc_);
        let normalized = scores.normalized();
        let row: Vec<f64> = normalized.iter().map(|(_, v)| *v).collect();
        let items: Vec<(f64, bool)> = scores
            .scores
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != row_k)
            .map(|(k, s)| {
                (
                    s.ges,
                    corpus.procs[indices[k]].func == corpus.procs[qi].func,
                )
            })
            .collect();
        if items.iter().any(|(_, p)| *p) {
            rocs.push(roc_auc(&items));
            crocs.push(croc_auc(&items));
        }
        matrix.push(row);
    }
    Fig6 {
        labels: indices.iter().map(|&i| corpus.procs[i].display()).collect(),
        funcs: indices
            .iter()
            .map(|&i| corpus.procs[i].func.clone())
            .collect(),
        matrix,
        avg_roc: rocs.iter().sum::<f64>() / rocs.len().max(1) as f64,
        avg_croc: crocs.iter().sum::<f64>() / crocs.len().max(1) as f64,
    }
}

/// Picks the Figure 6 query set: `count` procedures sampled round-robin
/// over source functions, several compilations each (the paper uses 40
/// queries including `ftp_syst` and `ff_rv34_decode_init_thread_copy`).
pub fn fig6_indices(corpus: &Corpus, count: usize) -> Vec<usize> {
    let mut funcs: Vec<&str> = Vec::new();
    // wget and ffmpeg first, as in the paper.
    for want in ["ftp_syst", "ff_rv34_decode_init_thread_copy"] {
        if corpus.procs.iter().any(|p| p.func == want) {
            funcs.push(want);
        }
    }
    for p in &corpus.procs {
        if !funcs.contains(&p.func.as_str()) && p.cve.is_none() {
            funcs.push(&p.func);
        }
    }
    let mut out = Vec::new();
    'outer: for f in funcs {
        let variants: Vec<usize> = corpus
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.func == f && p.patch == PatchTag::Original)
            .map(|(i, _)| i)
            .take(3)
            .collect();
        if variants.len() < 2 {
            continue;
        }
        for v in variants {
            out.push(v);
            if out.len() >= count {
                break 'outer;
            }
        }
    }
    out
}

// ------------------------------------------------------------- Limitations

/// §6.6's limitation study: wrappers and template procedures as queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Limitations {
    /// ROC when querying the `exit_cleanup` wrapper.
    pub wrapper_roc: Option<f64>,
    /// Number of strands the wrapper query retains after filtering
    /// (§6.6: trivial procedures yield very few usable strands).
    pub wrapper_strands: usize,
    /// ROC when querying one template-family member, counting only the
    /// *same* member as positive (clones count as negatives).
    pub template_strict_roc: Option<f64>,
    /// ROC counting every family member as positive.
    pub template_family_roc: Option<f64>,
}

impl Limitations {
    /// Renders the study.
    pub fn render(&self) -> String {
        let s = |o: Option<f64>| o.map(f3).unwrap_or_else(|| "n/a".into());
        format!(
            "Limitations (§6.6)\n\
             wrapper query strands after filtering: {}\n\
             wrapper ROC:                           {}\n\
             template ROC (strict positives):       {}\n\
             template ROC (family as positives):    {}\n",
            self.wrapper_strands,
            s(self.wrapper_roc),
            s(self.template_strict_roc),
            s(self.template_family_roc),
        )
    }
}

/// Runs the limitation study against a prebuilt engine whose corpus
/// includes wrappers and a template family.
pub fn run_limitations(corpus: &Corpus, engine: &SimilarityEngine) -> Limitations {
    let find = |f: &str| corpus.procs.iter().position(|p| p.func == f);
    let mut out = Limitations {
        wrapper_roc: None,
        wrapper_strands: 0,
        template_strict_roc: None,
        template_family_roc: None,
    };
    if let Some(qi) = find("exit_cleanup") {
        let scores = engine.query(&corpus.procs[qi].proc_);
        out.wrapper_strands = scores.query_strands;
        let items = labelled(corpus, &scores, qi, ScoringMode::Esh);
        if items.iter().any(|(_, p)| *p) {
            out.wrapper_roc = Some(roc_auc(&items));
        }
    }
    if let Some(qi) = find("strcmp_key_0") {
        let scores = engine.query(&corpus.procs[qi].proc_);
        let strict = labelled(corpus, &scores, qi, ScoringMode::Esh);
        if strict.iter().any(|(_, p)| *p) {
            out.template_strict_roc = Some(roc_auc(&strict));
        }
        let family: Vec<(f64, bool)> = scores
            .scores
            .iter()
            .filter(|s| s.target != TargetId(qi))
            .map(|s| {
                (
                    s.ges,
                    corpus.procs[s.target.0].func.starts_with("strcmp_key"),
                )
            })
            .collect();
        if family.iter().any(|(_, p)| *p) {
            out.template_family_roc = Some(roc_auc(&family));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_corpus() -> Corpus {
        Corpus::build(&Scale::Smoke.corpus_config())
    }

    fn quick_engine_config() -> EngineConfig {
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn table3_smoke() {
        let t3 = run_table3(4);
        assert_eq!(t3.rows.len(), 8);
        let rendered = t3.render();
        assert!(rendered.contains("Heartbleed"));
        assert!(rendered.contains("Matched?"));
    }

    #[test]
    fn fig6_indices_prefer_multi_compiled_functions() {
        let c = smoke_corpus();
        let idx = fig6_indices(&c, 6);
        assert!(idx.len() >= 4);
        // Each selected function appears at least twice.
        for &i in &idx {
            let f = &c.procs[i].func;
            assert!(idx.iter().filter(|&&j| c.procs[j].func == *f).count() >= 2);
        }
    }

    #[test]
    #[ignore = "slow: full smoke-scale Table 1 (run explicitly or via the table1 binary)"]
    fn table1_smoke_end_to_end() {
        let c = smoke_corpus();
        let engine = build_engine(&c, quick_engine_config());
        let t1 = run_table1(&c, &engine);
        assert_eq!(t1.rows.len(), 8);
        // Esh should dominate S-VCP on average (the paper's headline).
        let esh_avg: f64 = t1.rows.iter().map(|r| r.esh.croc).sum::<f64>() / 8.0;
        let svcp_avg: f64 = t1.rows.iter().map(|r| r.s_vcp.croc).sum::<f64>() / 8.0;
        assert!(
            esh_avg >= svcp_avg - 0.05,
            "esh {esh_avg} vs s-vcp {svcp_avg}"
        );
    }
}
