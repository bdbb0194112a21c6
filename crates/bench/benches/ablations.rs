//! Ablation benches for the design choices DESIGN.md calls out: the
//! signature prefilter, the minimum-strand-size threshold and the
//! size-ratio filter. Each prints its accuracy effect once and times the
//! query under both settings.

use criterion::{criterion_group, criterion_main, Criterion};
use esh_core::{EngineConfig, SimilarityEngine, VcpConfig};
use esh_corpus::{Corpus, CorpusConfig};
use esh_eval::roc_auc;
use std::hint::black_box;

fn engine_with(corpus: &Corpus, config: EngineConfig) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(config);
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

fn roc_of(corpus: &Corpus, engine: &SimilarityEngine, qi: usize) -> f64 {
    let scores = engine.query(&corpus.procs[qi].proc_);
    let items: Vec<(f64, bool)> = scores
        .scores
        .iter()
        .filter(|s| s.target.0 != qi)
        .map(|s| {
            (
                s.ges,
                corpus.procs[s.target.0].func == corpus.procs[qi].func,
            )
        })
        .collect();
    roc_auc(&items)
}

fn bench_prefilter_ablation(c: &mut Criterion) {
    let corpus = Corpus::build(&CorpusConfig::small());
    let qi = corpus.query_for("CVE-2014-0160", "").expect("heartbleed");
    let on = engine_with(&corpus, EngineConfig::default());
    let off = engine_with(
        &corpus,
        EngineConfig {
            prefilter_threshold: 0.0,
            ..EngineConfig::default()
        },
    );
    println!(
        "\n=== Ablation: signature prefilter ===\n\
         ROC with prefilter:    {:.3}\nROC without prefilter: {:.3} (must be equal: the \
         filter is an exact upper bound)",
        roc_of(&corpus, &on, qi),
        roc_of(&corpus, &off, qi)
    );
    let qp = corpus.procs[qi].proc_.clone();
    c.bench_function("ablation/query_with_prefilter", |b| {
        b.iter(|| black_box(on.query(&qp)))
    });
    c.bench_function("ablation/query_without_prefilter", |b| {
        b.iter(|| black_box(off.query(&qp)))
    });
}

fn bench_min_strand_size(c: &mut Criterion) {
    let corpus = Corpus::build(&CorpusConfig::small());
    let qi = corpus.query_for("CVE-2014-0160", "").expect("heartbleed");
    println!("\n=== Ablation: minimum strand size (§5.5, paper uses 5) ===");
    for min in [1usize, 3, 5, 8] {
        let cfg = EngineConfig {
            vcp: VcpConfig {
                min_strand_vars: min,
                ..VcpConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = engine_with(&corpus, cfg);
        println!(
            "min_strand_vars = {min}: ROC = {:.3}",
            roc_of(&corpus, &engine, qi)
        );
    }
    let engine = engine_with(&corpus, EngineConfig::default());
    let qp = corpus.procs[qi].proc_.clone();
    c.bench_function("ablation/query_default_strand_threshold", |b| {
        b.iter(|| black_box(engine.query(&qp)))
    });
}

fn bench_granularity(c: &mut Criterion) {
    use esh_core::Granularity;
    let corpus = Corpus::build(&CorpusConfig::small());
    let qi = corpus.query_for("CVE-2014-0160", "").expect("heartbleed");
    println!("\n=== Ablation: decomposition granularity (§3.2) ===");
    for (name, g) in [
        ("strands", Granularity::Strands),
        ("whole-blocks", Granularity::WholeBlocks),
    ] {
        let cfg = EngineConfig { granularity: g, ..EngineConfig::default() };
        let engine = engine_with(&corpus, cfg);
        println!(
            "{name}: ROC = {:.3} ({} classes)",
            roc_of(&corpus, &engine, qi),
            engine.class_count()
        );
    }
    let engine = engine_with(
        &corpus,
        EngineConfig { granularity: Granularity::WholeBlocks, ..EngineConfig::default() },
    );
    let qp = corpus.procs[qi].proc_.clone();
    c.bench_function("ablation/query_whole_block_granularity", |b| {
        b.iter(|| black_box(engine.query(&qp)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prefilter_ablation, bench_min_strand_size, bench_granularity
);
criterion_main!(benches);
