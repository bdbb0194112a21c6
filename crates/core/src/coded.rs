//! Dictionary-coded multisets: the signature filter and the sketch rung
//! price a cell by counting over small integer ids instead of merging
//! two sorted `u64` lists.
//!
//! The values a corpus computes are few: every signature-round value and
//! every base-sketch digest of every class goes into one dictionary,
//! `u64 → u32 id`, and each class multiset (signature round 0, round 1,
//! base sketch) is stored as its distinct `(id, multiplicity)` runs. A
//! tile worker loads the query strand it prices into a [`StrandTable`],
//! one multiplicity per id and multiset, once per `(item, strand)`. A
//! cell then costs one table read per class run, with no chain of
//! dependent loads and no data-dependent branch:
//!
//! - multiset intersection = Σ over the class runs of
//!   `min(class multiplicity, strand multiplicity)`;
//! - strand entries present in the class = Σ strand multiplicity;
//! - class entries present in the strand = Σ class multiplicity where the
//!   strand's is nonzero.
//!
//! These are the counts [`Signature::either_overlap_reaches`] and
//! [`SemanticSketch::containment_both`] compute by merging, so every
//! ratio, decision and score is bit-identical; those merges stay as the
//! reference the tests hold the kernel to. A strand value the dictionary
//! lacks (a query strand that is no corpus class) still counts toward its
//! multiset's length but matches nothing, exactly as in the merge, since
//! no class holds it.

use std::collections::HashMap;

use esh_strands::{Signature, SIGNATURE_SEEDS};

use crate::prefilter::SemanticSketch;

/// Signature rounds per strand: every class carries exactly this many
/// (`semantic_signature` builds them, and an index reader refuses any
/// other count).
const ROUNDS: usize = SIGNATURE_SEEDS.len();

/// Coded multisets per strand: the signature rounds, then the base
/// sketch's digests.
const MULTISETS: usize = ROUNDS + 1;

/// The base sketch's position among a strand's multisets.
const SKETCH: usize = ROUNDS;

/// One distinct value of a class multiset.
#[derive(Debug, Clone, Copy)]
struct Run {
    id: u32,
    mult: u32,
}

/// The corpus classes' signatures and base sketches, dictionary-coded.
/// Derived from the classes on the engine's first query and rebuilt
/// whenever they change; never persisted.
#[derive(Debug)]
pub(crate) struct CodedClasses {
    ids: HashMap<u64, u32>,
    runs: Vec<Run>,
    /// Class `ci`'s multiset `k` is `runs[starts[ci * MULTISETS + k]..]`,
    /// up to the next entry; a final entry closes the last class.
    starts: Vec<u32>,
}

/// The signature rounds and base-sketch digests of one strand, each
/// tagged with its multiset position. Every strand has [`ROUNDS`]
/// rounds; a strand without a sketch (the tier is off) has an empty
/// sketch multiset.
fn multisets<'s>(
    signature: &'s Signature,
    sketch: Option<&'s SemanticSketch>,
) -> impl Iterator<Item = (usize, &'s [u64])> {
    debug_assert_eq!(signature.rounds.len(), ROUNDS);
    let rounds = signature.rounds.iter().map(Vec::as_slice);
    let digests = sketch.map_or(&[][..], |s| &s.digests[..]);
    rounds.enumerate().chain([(SKETCH, digests)])
}

/// The `(value, multiplicity)` runs of a sorted multiset.
fn runs_of(values: &[u64]) -> impl Iterator<Item = (u64, usize)> + '_ {
    values
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
}

impl CodedClasses {
    /// Codes every class's signature rounds and base sketch, class `i`
    /// being the `i`-th. Each class has [`ROUNDS`] sorted signature
    /// rounds and sorted digests, as the engine keeps them.
    pub(crate) fn build<'c>(
        classes: impl Iterator<Item = (&'c Signature, Option<&'c SemanticSketch>)>,
    ) -> CodedClasses {
        let mut coded = CodedClasses {
            ids: HashMap::new(),
            runs: Vec::new(),
            starts: Vec::new(),
        };
        for (signature, sketch) in classes {
            for (_, values) in multisets(signature, sketch) {
                coded.starts.push(coded.offset());
                for (value, mult) in runs_of(values) {
                    let next = u32::try_from(coded.ids.len()).expect("under 2^32 distinct values");
                    let id = *coded.ids.entry(value).or_insert(next);
                    let mult = u32::try_from(mult).expect("a multiset of under 2^32 values");
                    coded.runs.push(Run { id, mult });
                }
            }
        }
        coded.starts.push(coded.offset());
        coded.runs.shrink_to_fit();
        coded.starts.shrink_to_fit();
        coded
    }

    fn offset(&self) -> u32 {
        u32::try_from(self.runs.len()).expect("under 2^32 coded runs")
    }

    /// Distinct values in the dictionary.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Class `ci`'s runs of multiset `k`.
    fn multiset(&self, ci: usize, k: usize) -> &[Run] {
        let at = ci * MULTISETS + k;
        &self.runs[self.starts[at] as usize..self.starts[at + 1] as usize]
    }

    /// Codes a query strand's signature and base sketch against this
    /// dictionary.
    pub(crate) fn code(
        &self,
        signature: &Signature,
        sketch: Option<&SemanticSketch>,
    ) -> CodedStrand {
        let mut strand = CodedStrand {
            present: Vec::new(),
            lens: [0; MULTISETS],
        };
        let stride = self.len();
        for (k, values) in multisets(signature, sketch) {
            strand.lens[k] = values.len();
            for (value, mult) in runs_of(values) {
                if let Some(&id) = self.ids.get(&value) {
                    strand.present.push((k * stride + id as usize, mult));
                }
            }
        }
        strand
    }
}

/// A query strand coded against one [`CodedClasses`] dictionary: the
/// table slot and multiplicity of each value the dictionary holds, and
/// each multiset's full length.
#[derive(Debug, Clone)]
pub(crate) struct CodedStrand {
    present: Vec<(usize, usize)>,
    lens: [usize; MULTISETS],
}

/// The multiplicities of one query strand's values, indexed by multiset
/// and dictionary id; a tile worker keeps one and loads each strand it
/// prices. All entries are zero while nothing is loaded.
#[derive(Debug, Default)]
pub(crate) struct StrandTable {
    /// `mult[k * stride + id]`: how often multiset `k` holds value `id`,
    /// saturated at `u8::MAX`; a saturated entry's exact count is in
    /// `big`, by slot.
    mult: Vec<u8>,
    stride: usize,
    big: Vec<(usize, usize)>,
    /// The slots the loaded strand set, to clear when it is unloaded.
    set: Vec<usize>,
    lens: [usize; MULTISETS],
    /// Which strand is loaded, by a key the caller chooses.
    loaded: Option<(usize, usize)>,
}

/// Sums over one class multiset's runs against a loaded strand.
#[derive(Default)]
struct Counts {
    /// Size of the multiset intersection.
    common: usize,
    /// Strand entries, duplicates included, whose value the class holds.
    strand_in: usize,
    /// Class entries, duplicates included, whose value the strand holds.
    class_in: usize,
    /// The class multiset's length.
    class_len: usize,
}

#[inline(always)]
fn count_runs(runs: &[Run], strand_mult: impl Fn(usize) -> usize) -> Counts {
    let mut c = Counts::default();
    for r in runs {
        let (q, t) = (strand_mult(r.id as usize), r.mult as usize);
        c.common += q.min(t);
        c.strand_in += q;
        c.class_in += t * usize::from(q > 0);
        c.class_len += t;
    }
    c
}

/// `matched / len`, and 0.0 for an empty multiset.
fn ratio(matched: usize, len: usize) -> f64 {
    if len == 0 {
        0.0
    } else {
        matched as f64 / len as f64
    }
}

impl StrandTable {
    /// Loads `strand`, coded against `codes`, under `key`, unless that
    /// key is loaded already.
    pub(crate) fn load(&mut self, key: (usize, usize), codes: &CodedClasses, strand: &CodedStrand) {
        if self.loaded == Some(key) {
            return;
        }
        self.clear();
        self.stride = codes.len();
        self.mult.resize(MULTISETS * self.stride, 0);
        for &(slot, n) in &strand.present {
            if n >= usize::from(u8::MAX) {
                self.big.push((slot, n));
            }
            self.mult[slot] = u8::try_from(n).unwrap_or(u8::MAX);
            self.set.push(slot);
        }
        self.lens = strand.lens;
        self.loaded = Some(key);
    }

    /// Unloads the loaded strand, zeroing only the entries it set.
    pub(crate) fn clear(&mut self) {
        for slot in self.set.drain(..) {
            self.mult[slot] = 0;
        }
        self.big.clear();
        self.loaded = None;
    }

    // Inlined into each caller, so the sums a caller does not read are
    // never computed.
    #[inline(always)]
    fn counts(&self, codes: &CodedClasses, ci: usize, k: usize) -> Counts {
        let base = k * self.stride;
        let table = &self.mult[base..base + self.stride];
        let runs = codes.multiset(ci, k);
        if self.big.is_empty() {
            return count_runs(runs, |id| usize::from(table[id]));
        }
        count_runs(runs, |id| match table[id] {
            u8::MAX => self
                .big
                .iter()
                .find(|b| b.0 == base + id)
                .map_or(0, |b| b.1),
            m => usize::from(m),
        })
    }

    /// Whether the loaded strand's signature overlap bound with class
    /// `ci`'s reaches `t` in either direction: exactly
    /// [`Signature::either_overlap_reaches`], with its early returns for
    /// a NaN, non-positive or above-1 threshold and its exit at the first
    /// round where both directions fall below `t`.
    pub(crate) fn signature_reaches(&self, codes: &CodedClasses, ci: usize, t: f64) -> bool {
        if t.is_nan() || t <= 0.0 {
            return true;
        }
        if t > 1.0 {
            return false;
        }
        let (mut strand_below, mut class_below) = (false, false);
        for k in 0..ROUNDS {
            let c = self.counts(codes, ci, k);
            let matched = c.common as f64;
            // An empty round bounds its direction at 0, which is below t.
            strand_below |= self.lens[k] == 0 || matched / (self.lens[k] as f64) < t;
            class_below |= c.class_len == 0 || matched / (c.class_len as f64) < t;
            if strand_below && class_below {
                return false;
            }
        }
        true
    }

    /// The base-sketch containment bounds `(strand in class, class in
    /// strand)` against class `ci`: exactly
    /// [`SemanticSketch::containment_both`], bit for bit.
    pub(crate) fn containment_both(&self, codes: &CodedClasses, ci: usize) -> (f64, f64) {
        let c = self.counts(codes, ci, SKETCH);
        (
            ratio(c.strand_in, self.lens[SKETCH]),
            ratio(c.class_in, c.class_len),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A sorted multiset of 0–`max_len` values drawn from `alphabet`.
    fn multiset(rng: &mut StdRng, alphabet: u64, max_len: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..rng.gen_range(0..=max_len))
            .map(|_| rng.gen_range(0..alphabet))
            .collect();
        v.sort_unstable();
        v
    }

    fn strand(rng: &mut StdRng, alphabet: u64) -> (Signature, SemanticSketch) {
        let rounds = (0..ROUNDS).map(|_| multiset(rng, alphabet, 7)).collect();
        let sketch = SemanticSketch {
            digests: multiset(rng, alphabet, 7),
            minhash: Vec::new(),
        };
        (Signature { rounds }, sketch)
    }

    const THRESHOLDS: [f64; 9] = [0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, -0.5, f64::NAN, 1e-9];

    /// Holds the table kernel to the merges on every `(strand, class)`
    /// pair: the filter decision at each threshold and both containment
    /// bounds, bit for bit.
    fn assert_kernel_matches_merges(
        classes: &[(Signature, SemanticSketch)],
        strands: &[(Signature, SemanticSketch)],
    ) -> [usize; 2] {
        let codes = CodedClasses::build(classes.iter().map(|(s, k)| (s, Some(k))));
        let mut table = StrandTable::default();
        let mut outcomes = [0usize; 2];
        for (qi, (qs, qk)) in strands.iter().enumerate() {
            table.load((0, qi), &codes, &codes.code(qs, Some(qk)));
            for (ci, (cs, ck)) in classes.iter().enumerate() {
                for t in THRESHOLDS {
                    let want = qs.either_overlap_reaches(cs, t);
                    let got = table.signature_reaches(&codes, ci, t);
                    assert_eq!(got, want, "{qs:?} vs {cs:?} at t = {t}");
                    outcomes[usize::from(want)] += 1;
                }
                let (a, b) = table.containment_both(&codes, ci);
                let (want_a, want_b) = qk.containment_both(ck);
                assert_eq!(a.to_bits(), want_a.to_bits(), "{qk:?} in {ck:?}");
                assert_eq!(b.to_bits(), want_b.to_bits(), "{ck:?} in {qk:?}");
            }
        }
        table.clear();
        assert!(
            table.mult.iter().all(|&m| m == 0),
            "clear leaves a zero table"
        );
        outcomes
    }

    #[test]
    fn table_kernel_matches_the_merges() {
        // Small alphabets force duplicates, partial overlaps and empty
        // multisets on both sides; query strands draw from a wider
        // alphabet than the classes, so some of their values are absent
        // from the dictionary.
        let mut rng = StdRng::seed_from_u64(0xc0de_d1c7);
        let mut outcomes = [0usize; 2];
        for _ in 0..400 {
            let alphabet = rng.gen_range(1u64..=6);
            let classes: Vec<_> = (0..6).map(|_| strand(&mut rng, alphabet)).collect();
            let strands: Vec<_> = (0..6).map(|_| strand(&mut rng, alphabet + 3)).collect();
            let seen = assert_kernel_matches_merges(&classes, &strands);
            outcomes[0] += seen[0];
            outcomes[1] += seen[1];
        }
        assert!(
            outcomes.iter().all(|&n| n > 10_000),
            "both decisions exercised: {outcomes:?}"
        );
    }

    #[test]
    fn table_kernel_counts_multiplicities_past_the_table_element() {
        // 300 and 600 copies of one value overflow a `u8` entry; the
        // kernel must count them exactly, neither wrapped nor capped.
        let copies = |n: usize, v: u64| vec![v; n];
        let sided = |round: Vec<u64>, digests: Vec<u64>| {
            let rounds = vec![round; ROUNDS];
            let sketch = SemanticSketch {
                digests,
                minhash: Vec::new(),
            };
            (Signature { rounds }, sketch)
        };
        let with_tail = |n: usize| [copies(n, 7), vec![9]].concat();
        let classes = vec![
            sided(copies(600, 7), copies(600, 7)),
            sided(with_tail(300), with_tail(300)),
            sided(copies(256, 7), vec![8]),
            sided(vec![9], copies(255, 7)),
        ];
        let strands = vec![
            sided(copies(300, 7), copies(300, 7)),
            sided(with_tail(600), [copies(600, 7), vec![11]].concat()),
            sided(copies(255, 7), copies(254, 7)),
            sided([vec![3], copies(1000, 7)].concat(), vec![]),
        ];
        assert_kernel_matches_merges(&classes, &strands);
    }
}
