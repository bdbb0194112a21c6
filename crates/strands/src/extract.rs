//! Strand extraction — the paper's Algorithm 1.
//!
//! A *strand* is the set of instructions in one basic block needed to
//! compute a certain variable's value (a basic-block-level backward slice).
//! Blocks are sliced until every instruction is covered; the inputs of a
//! strand are the locations it reads before defining.

use esh_asm::{BasicBlock, Inst, Loc, Procedure};
use serde::{Deserialize, Serialize};

/// One extracted strand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Strand {
    /// Label of the source basic block.
    pub block: String,
    /// Indices of the strand's instructions within the block, ascending.
    pub indices: Vec<usize>,
    /// The instructions, in program order.
    pub insts: Vec<Inst>,
    /// Locations used before being defined (the strand's inputs).
    pub inputs: Vec<Loc>,
}

impl Strand {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the strand has no instructions (never produced by
    /// extraction; exists for container completeness).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Extracts all strands from one basic block (paper Algorithm 1).
///
/// The backward iteration from the *last* unused instruction minimizes the
/// number of strands, exactly as the paper notes. Each instruction's defs
/// and refs are computed once per block, and the slice buffers are reused
/// across the block's strands.
pub fn extract_block_strands(block: &BasicBlock) -> Vec<Strand> {
    let n = block.insts.len();
    let defs: Vec<Vec<Loc>> = block.insts.iter().map(Inst::defs).collect();
    let refs: Vec<Vec<Loc>> = block.insts.iter().map(Inst::refs).collect();
    let mut unused: Vec<bool> = vec![true; n];
    let mut member: Vec<bool> = vec![false; n];
    let mut vars_refed: Vec<Loc> = Vec::new();
    let mut vars_defed: Vec<Loc> = Vec::new();
    let mut strands = Vec::new();
    // maxUsed ← max(unusedInsts)
    while let Some(max_used) = (0..n).rev().find(|i| unused[*i]) {
        unused[max_used] = false;
        member.fill(false);
        member[max_used] = true;
        vars_refed.clone_from(&refs[max_used]);
        vars_defed.clone_from(&defs[max_used]);
        for i in (0..max_used).rev() {
            if !defs[i].iter().any(|d| vars_refed.contains(d)) {
                continue;
            }
            member[i] = true;
            // The defs this strand needs are the ones it referenced before
            // adding instruction `i`'s own refs.
            for d in &defs[i] {
                if vars_refed.contains(d) && !vars_defed.contains(d) {
                    vars_defed.push(*d);
                }
            }
            for r in &refs[i] {
                if !vars_refed.contains(r) {
                    vars_refed.push(*r);
                }
            }
            unused[i] = false;
        }
        let indices: Vec<usize> = (0..n).filter(|i| member[*i]).collect();
        let insts: Vec<Inst> = indices.iter().map(|i| block.insts[*i].clone()).collect();
        let inputs: Vec<Loc> = vars_refed
            .iter()
            .filter(|r| !vars_defed.contains(r))
            .copied()
            .collect();
        strands.push(Strand {
            block: block.label.clone(),
            indices,
            insts,
            inputs,
        });
    }
    strands
}

/// Extracts the strands of every basic block of `proc_`.
pub fn extract_proc_strands(proc_: &Procedure) -> Vec<Strand> {
    proc_
        .blocks
        .iter()
        .flat_map(extract_block_strands)
        .collect()
}

/// Summary statistics in the shape of the paper's Table 1 (`#BB`,
/// `#Strands`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrandStats {
    /// Number of basic blocks.
    pub basic_blocks: usize,
    /// Number of extracted strands.
    pub strands: usize,
    /// Total instructions.
    pub insts: usize,
}

/// Computes [`StrandStats`] for a procedure.
pub fn strand_stats(proc_: &Procedure) -> StrandStats {
    StrandStats {
        basic_blocks: proc_.blocks.len(),
        strands: extract_proc_strands(proc_).len(),
        insts: proc_.inst_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_asm::parse_proc;

    fn block_of(text: &str) -> BasicBlock {
        parse_proc(&format!("proc t\nentry:\n{text}"))
            .expect("parses")
            .blocks[0]
            .clone()
    }

    #[test]
    fn every_instruction_is_covered() {
        let b = block_of(
            "lea r14d, [r12+0x13]\nmov r13, rax\nmov eax, r12d\nlea rcx, [r13+0x3]\n\
             shr eax, 0x8\nlea rsi, [rbx+0x3]\nmov byte ptr [r13+0x1], al\n\
             mov byte ptr [r13+0x2], r12b\nmov rdi, rcx\ncall memcpy/3",
        );
        let strands = extract_block_strands(&b);
        let mut covered = vec![false; b.insts.len()];
        for s in &strands {
            for i in &s.indices {
                covered[*i] = true;
            }
        }
        assert!(
            covered.iter().all(|c| *c),
            "uncovered instructions: {covered:?}"
        );
    }

    #[test]
    fn figure1_strand_shapes() {
        // The target code of Figure 1(c): strand ③ is
        // `mov r13, rbx; lea rcx, [r13+3]` — data-dependent, not contiguous.
        let b = block_of(
            "shr eax, 0x8\nlea r14d, [r12+0x13]\nmov r13, rbx\nmov byte ptr [r13+0x1], al\n\
             mov byte ptr [r13+0x2], r12b\nlea rcx, [r13+0x3]\nmov rdi, rcx",
        );
        let strands = extract_block_strands(&b);
        // Find the strand ending at `mov rdi, rcx` (index 6).
        let s = strands
            .iter()
            .find(|s| s.indices.contains(&6))
            .expect("strand exists");
        // It must pull in lea rcx (5) and mov r13, rbx (2), but not shr eax.
        assert!(s.indices.contains(&5));
        assert!(s.indices.contains(&2));
        assert!(!s.indices.contains(&0));
        // Its input is rbx (plus nothing else register-wise).
        assert!(s.inputs.contains(&Loc::reg(esh_asm::Reg64::Rbx)));
    }

    #[test]
    fn independent_computations_become_separate_strands() {
        let b = block_of("mov rax, rdi\nadd rax, 0x1\nmov rbx, rsi\nadd rbx, 0x2");
        let strands = extract_block_strands(&b);
        assert_eq!(strands.len(), 2);
        // Extraction starts from the last unused instruction.
        assert_eq!(strands[0].indices, vec![2, 3]);
        assert_eq!(strands[1].indices, vec![0, 1]);
    }

    #[test]
    fn inputs_are_read_before_def() {
        let b = block_of("mov rax, rdi\nadd rax, rsi");
        let strands = extract_block_strands(&b);
        assert_eq!(strands.len(), 1);
        let inputs = &strands[0].inputs;
        assert!(inputs.contains(&Loc::reg(esh_asm::Reg64::Rdi)));
        assert!(inputs.contains(&Loc::reg(esh_asm::Reg64::Rsi)));
        assert!(!inputs.contains(&Loc::reg(esh_asm::Reg64::Rax)));
    }

    #[test]
    fn flag_dependence_links_cmp_to_jcc() {
        let b = block_of("mov rax, rdi\ncmp rax, rsi\njl somewhere");
        let strands = extract_block_strands(&b);
        assert_eq!(strands.len(), 1, "cmp+jcc+feeding mov form one strand");
        assert_eq!(strands[0].indices, vec![0, 1, 2]);
    }

    #[test]
    fn push_sequences_chain_through_rsp() {
        // The paper (§6.2) observes prologue push sequences form strands.
        let b = block_of("push rbp\npush rbx\npush r12\npush r13");
        let strands = extract_block_strands(&b);
        assert_eq!(strands.len(), 1);
        assert_eq!(strands[0].len(), 4);
    }

    #[test]
    fn proc_stats_count_blocks_and_strands() {
        let p = parse_proc(
            "proc f\nentry:\nmov rax, rdi\ntest rax, rax\nje out\nbody:\nadd rax, 0x1\nout:\nret\n",
        )
        .expect("parses");
        let st = strand_stats(&p);
        assert_eq!(st.basic_blocks, 3);
        assert!(st.strands >= 3);
        assert_eq!(st.insts, 5);
    }
}
