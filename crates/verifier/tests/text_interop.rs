//! Interop: strands serialized to the textual IVL format and parsed back
//! verify identically — the guarantee that `.ivl` dumps are faithful
//! exchange artifacts (like the paper's `.bpl` files).

use esh_asm::parse_proc;
use esh_ivl::{lift, parse_proc_text, proc_to_text, Proc, VarId};
use esh_verifier::{InputNamer, Verdict, VerifierSession};

fn lift_text(text: &str) -> Proc {
    let p = parse_proc(&format!("proc t\nentry:\n{text}")).expect("parses");
    lift("t", &p.blocks[0].insts)
}

/// Decides every `(q var, t var)` pair of `asserts` on a fresh session,
/// with each `assumes` input pair unified to one shared name.
fn decide(
    (q, t): (&Proc, &Proc),
    assumes: &[(VarId, VarId)],
    asserts: &[(VarId, VarId)],
) -> Vec<Verdict> {
    let mut namer = InputNamer::new();
    for &(qi, ti) in assumes {
        let shared = namer.fresh();
        namer.unify(0, qi, shared);
        namer.unify(1, ti, shared);
    }
    let mut session = VerifierSession::new();
    let q_terms = session.encode(q, |v| namer.id_for(0, v));
    let t_terms = session.encode(t, |v| namer.id_for(1, v));
    asserts
        .iter()
        .map(|(qv, tv)| session.check_eq(q_terms[qv.index()], t_terms[tv.index()]))
        .collect()
}

#[test]
fn parsed_strands_verify_like_originals() {
    let q = lift_text("lea r14d, [r12+0x13]");
    let t = lift_text("mov r9, 0x13\nmov r13, rbx\nlea r13d, [r13+r9]");
    let q2 = parse_proc_text(&proc_to_text(&q)).expect("q roundtrips");
    let t2 = parse_proc_text(&proc_to_text(&t)).expect("t roundtrips");

    let run = |q: &Proc, t: &Proc| {
        // Compare the zero-extended 32-bit results (the final temps).
        let qv = *q.temps().last().expect("temps");
        let tv = *t.temps().last().expect("temps");
        decide((q, t), &[(q.inputs()[0], t.inputs()[0])], &[(qv, tv)])
    };
    assert_eq!(
        run(&q, &t),
        run(&q2, &t2),
        "verdicts must survive the text roundtrip"
    );
    assert_eq!(
        run(&q, &t2),
        run(&q2, &t),
        "mixed original/parsed pairs agree too"
    );
}

#[test]
fn text_dump_of_compiled_strand_is_parseable_and_equivalent() {
    use esh_cc::{Compiler, Vendor, VendorVersion};
    use esh_minic::demo;
    use esh_strands::extract_proc_strands;

    let cc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9));
    let p = cc.compile_function(&demo::ws_snmp_like());
    let strand = extract_proc_strands(&p)
        .into_iter()
        .max_by_key(|s| s.insts.len())
        .expect("strands");
    let lifted = lift("s", &strand.insts);
    let parsed = parse_proc_text(&proc_to_text(&lifted)).expect("parses");

    // Every temp of the original must verify equal to its same-named twin
    // under identity input matching.
    let assumes: Vec<_> = lifted.inputs().into_iter().zip(parsed.inputs()).collect();
    for &(qi, ti) in &assumes {
        assert_eq!(
            lifted.var(qi).name,
            parsed.var(ti).name,
            "input order preserved"
        );
    }
    let pairs: Vec<_> = lifted
        .temps()
        .into_iter()
        .map(|qv| {
            let name = &lifted.var(qv).name;
            let tv = parsed
                .temps()
                .into_iter()
                .find(|tv| &parsed.var(*tv).name == name)
                .expect("same temp names");
            (qv, tv)
        })
        .collect();
    let verdicts = decide((&lifted, &parsed), &assumes, &pairs);
    assert!(
        verdicts.iter().all(|v| *v == Verdict::Equal),
        "all {} temps must match: {verdicts:?}",
        pairs.len()
    );
}
