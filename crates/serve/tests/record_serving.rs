//! The daemon serves corpus members from their target records: it
//! refuses a corpus that does not name the engine's targets in order,
//! and once started it lifts no query strand.

use std::io::ErrorKind;
use std::time::Duration;

use esh_cc::{Compiler, Vendor, VendorVersion};
use esh_core::{EngineConfig, SimilarityEngine, TargetId};
use esh_corpus::{CompiledProc, Corpus, PatchTag};
use esh_minic::demo;
use esh_serve::protocol::{http_get, ranked_matches, remote_query, Outcome, QueryRequest};
use esh_serve::server::{ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Two demo functions, each built by clang 3.5 and icc 15.
fn corpus() -> Corpus {
    let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5));
    let icc = Compiler::new(Vendor::Icc, VendorVersion::new(15, 0));
    let mut procs = Vec::new();
    for f in [demo::saturating_sum(), demo::wget_like()] {
        for (toolchain, cc) in [("clang 3.5", &clang), ("icc 15.0", &icc)] {
            procs.push(CompiledProc {
                package: "record".into(),
                func: f.name.clone(),
                cve: None,
                toolchain: toolchain.into(),
                patch: PatchTag::Original,
                proc_: cc.compile_function(&f),
            });
        }
    }
    Corpus { procs }
}

fn engine_over(corpus: &Corpus) -> SimilarityEngine {
    let mut engine = SimilarityEngine::new(EngineConfig::default());
    for p in &corpus.procs {
        engine.add_target(p.display(), &p.proc_);
    }
    engine
}

fn loopback() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

fn refused(engine: SimilarityEngine, corpus: Corpus) -> String {
    match Server::start(engine, corpus, loopback()) {
        Ok(server) => {
            server.shutdown();
            panic!("a corpus that does not mirror the engine was served");
        }
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidInput, "{e}");
            e.to_string()
        }
    }
}

#[test]
fn a_daemon_over_a_reordered_corpus_is_refused() {
    let corpus = corpus();
    let mut reordered = corpus.clone();
    reordered.procs.swap(0, 2);
    let why = refused(engine_over(&corpus), reordered);
    assert!(why.contains("target 0"), "{why}");
}

#[test]
fn a_daemon_over_a_shorter_corpus_is_refused() {
    let corpus = corpus();
    let mut shorter = corpus.clone();
    shorter.procs.pop();
    let why = refused(engine_over(&corpus), shorter);
    assert!(why.contains("4 targets"), "{why}");
}

#[test]
fn served_members_match_offline_and_lift_nothing() {
    let corpus = corpus();
    let offline = engine_over(&corpus);
    let server = Server::start(engine_over(&corpus), corpus.clone(), loopback())
        .expect("a mirrored corpus serves");
    let addr = server.local_addr().to_string();
    for (qi, p) in corpus.procs.iter().enumerate() {
        let resp =
            remote_query(&addr, &QueryRequest::new(p.display()), TIMEOUT).expect("query answers");
        assert_eq!(resp.outcome, Outcome::Ok);
        assert_eq!(resp.query.as_deref(), Some(p.display().as_str()));
        let expected = ranked_matches(&offline.query(&p.proc_), Some(TargetId(qi)), 10);
        assert_eq!(resp.matches.len(), expected.len());
        for (a, b) in resp.matches.iter().zip(&expected) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ges.to_bits(), b.ges.to_bits(), "{}", a.name);
        }
    }
    let (_, metrics) = http_get(&addr, "/metrics", TIMEOUT).expect("metrics answer");
    assert!(
        metrics.contains("esh_query_strands_lifted_total 0\n"),
        "{metrics}"
    );
    server.shutdown();
}
