#![warn(missing_docs)]

//! # esh-strands — procedure decomposition into strands
//!
//! Implements the paper's §3.2: procedures are decomposed at basic-block
//! boundaries into *strands* (block-level backward slices, Algorithm 1).
//! Also provides the structural/semantic strand hashing used by the
//! similarity engine to deduplicate compiler-replicated strands and to
//! prefilter verifier queries without affecting exactness.
//!
//! # Examples
//!
//! Decompose a parsed procedure into strands:
//!
//! ```
//! use esh_asm::parse_proc;
//! use esh_strands::extract_proc_strands;
//!
//! let p = parse_proc("proc f\nentry:\nmov rax, rdi\nadd rax, 0x1\nret\n")?;
//! let strands = extract_proc_strands(&p);
//! assert!(!strands.is_empty());
//! # Ok::<(), esh_asm::ParseError>(())
//! ```

mod extract;
mod hash;

pub use extract::{extract_block_strands, extract_proc_strands, strand_stats, Strand, StrandStats};
pub use hash::{
    semantic_signature, stable_hash64, stable_mix, structural_hash, Signature, SIGNATURE_SEEDS,
    STABLE_HASH_SEED,
};

use esh_ivl::Proc;

/// Lifts a strand to IVL with a canonical name.
pub fn lift_strand(s: &Strand) -> Proc {
    esh_ivl::lift(
        &format!("{}#{}", s.block, s.indices.first().copied().unwrap_or(0)),
        &s.insts,
    )
}
