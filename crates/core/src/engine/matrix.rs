//! The matrix pass: every batch item's `query strand × corpus class` VCP
//! matrix, priced in one work-stealing pass over tiles by workers that
//! check verifier sessions out of the engine's pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use esh_solver::EquivStats;
use esh_verifier::VerifierSession;

use super::ladder::Rung;
use super::{BatchPass, SimilarityEngine};
use crate::coded::StrandTable;
use crate::prefilter::RungCounts;
use crate::shard::ShardError;
use crate::vcp::VcpPair;

/// Classes per work-stealing tile. Small enough that a tile of
/// expensive verifier calls cannot straggle the whole matrix, large
/// enough that queue contention on the atomic cursor is negligible.
const VCP_TILE: usize = 32;

/// A verifier session whose term pool has grown past this many terms
/// is dropped when its worker returns instead of going back to the pool:
/// past that point the memory cost outweighs what the warm caches save.
const SESSION_TERM_CAP: usize = 2_000_000;

/// One batch item's VCP matrix (`query strand × corpus class`) with the
/// rung that decided each cell.
pub(super) struct ItemMatrix {
    pub(super) vcp: Vec<Vec<VcpPair>>,
    pub(super) rung: Vec<Vec<Rung>>,
}

/// A pricing thread's private state: a verifier session and a strand
/// table checked out of the engine's pool (so term pools and verdict
/// caches stay warm across queries, not just across one query's tiles,
/// and the table's allocation is reused), the session's counters at
/// checkout, and the sketch rung's outcome counts.
/// [`SimilarityEngine::return_worker`] adds both to the engine's
/// counters once, rather than once per pair.
pub(super) struct Worker {
    pub(super) session: VerifierSession,
    /// The cheap rungs' table of the query strand being priced, loaded
    /// when the worker moves to a new `(item, strand)`.
    pub(super) table: StrandTable,
    stats0: EquivStats,
    pub(super) counts: RungCounts,
}

/// Holds one batch in [`SimilarityEngine::passes`] and releases it on
/// drop, also when the batch unwinds.
pub(super) struct PassGuard<'a>(&'a AtomicUsize);

impl Drop for PassGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SimilarityEngine {
    /// Enters one batch into [`SimilarityEngine::passes`]: returns how
    /// many other batches were running, and the guard that leaves.
    pub(super) fn enter_pass(&self) -> (usize, PassGuard<'_>) {
        let others = self.passes.fetch_add(1, Ordering::Relaxed);
        (others, PassGuard(&self.passes))
    }

    /// Checks a worker's verifier session and strand table out of the
    /// engine-owned pool.
    pub(super) fn checkout_worker(&self) -> Worker {
        let (session, table) = self
            .sessions
            .lock()
            .expect("session pool poisoned")
            .pop()
            .unwrap_or_else(|| {
                let session = VerifierSession::with_config(self.config.equiv);
                (session, StrandTable::default())
            });
        Worker {
            stats0: session.stats(),
            session,
            table,
            counts: RungCounts::default(),
        }
    }

    /// Adds a worker's counts to the engine's and returns its session,
    /// with its table cleared, to the pool unless its term pool outgrew
    /// [`SESSION_TERM_CAP`].
    pub(super) fn return_worker(&self, mut w: Worker) {
        w.table.clear();
        self.prefilter_stats.add_rungs(&w.counts);
        let delta = w.session.stats().delta_since(&w.stats0);
        self.solver
            .lock()
            .expect("solver counters poisoned")
            .add(&delta);
        if w.session.pool().len() <= SESSION_TERM_CAP {
            self.sessions
                .lock()
                .expect("session pool poisoned")
                .push((w.session, w.table));
        }
    }

    /// Computes the VCP matrices `query strand × corpus class` for a whole
    /// batch of prepared queries in one shared pass.
    ///
    /// Work is distributed dynamically: the flattened `(batch item, query
    /// strand, class-range)` tile space is consumed through one atomic
    /// cursor, so workers that land on cheap tiles (size-ratio or
    /// prefilter rejections, cache hits) immediately steal more instead of
    /// idling behind a static split — and tiles of different batch items
    /// interleave freely. Every cell is priced by
    /// [`SimilarityEngine::price_cell`].
    /// The calling thread is a worker itself; it spawns
    /// `min(threads, tiles) − 1` helpers, less one for every other batch
    /// running in this engine, so a lone query gets every core, batches
    /// that overlap get about one each, and `threads == 1` spawns none.
    /// Cancellation stays per-item: a cancelled item's remaining tiles are
    /// skipped while the rest of the batch keeps computing; its partial
    /// matrix is discarded by the caller.
    /// On a lazily backed engine the same pass is the **fan-out** step:
    /// the flat tile space already spans every shard's class range, a
    /// pair that survives pricing pulls its shard into memory (and its
    /// record is decoded on a cache miss), and `batch.touched` records
    /// which `(item, shard)` pairs were consulted. The final row
    /// copy-back below is the merge step — because shards partition the
    /// class index space in order, it concatenates per-shard submatrices
    /// into exactly the matrix a resident engine computes, bit for bit.
    /// Each cell's [`Rung`] rides along.
    pub(super) fn vcp_matrix_batch(
        &self,
        batch: &BatchPass<'_>,
    ) -> (Vec<ItemMatrix>, Vec<Option<ShardError>>) {
        let queries = &batch.queries;
        let nc = self.classes.len();
        let mut matrices: Vec<ItemMatrix> = queries
            .iter()
            .map(|q| {
                let nq = q.as_ref().map_or(0, |q| q.len());
                ItemMatrix {
                    vcp: vec![vec![VcpPair::default(); nc]; nq],
                    rung: vec![vec![Rung::Unpriced; nc]; nq],
                }
            })
            .collect();
        let tiles_per_query = nc.div_ceil(VCP_TILE);
        // Tile-space offsets per batch item: item `b` owns the global
        // tiles `[offsets[b], offsets[b + 1])`. Cancelled-at-prepare items
        // (`None`) own zero tiles.
        let mut offsets = Vec::with_capacity(queries.len() + 1);
        offsets.push(0usize);
        for q in queries {
            let nq = q.as_ref().map_or(0, |q| q.len());
            offsets.push(offsets.last().unwrap() + nq * tiles_per_query);
        }
        let total_tiles = *offsets.last().unwrap();
        // Per-item shard-failure latch: the first corrupted-shard error an
        // item hits is kept, the item's remaining tiles are skipped, and
        // the caller fails that item alone — neighbours keep computing.
        let shard_errors: Vec<OnceLock<ShardError>> =
            (0..queries.len()).map(|_| OnceLock::new()).collect();
        if total_tiles == 0 || nc == 0 {
            let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
            return (matrices, errors);
        }
        let offsets = &offsets;
        let cursor = AtomicUsize::new(0);
        let helpers = self
            .pass_threads()
            .max(1)
            .min(total_tiles)
            .saturating_sub(1 + batch.others);
        // The sketch rung's LSH candidate masks, resolved once before the
        // workers spawn: one per query strand of every item (mask[ci] =
        // class ci shares a band).
        let index = batch.derived.sketch_index.as_ref();
        let masks: Option<Vec<Vec<Option<Vec<bool>>>>> = index.map(|index| {
            queries
                .iter()
                .map(|q| {
                    q.as_ref().map_or_else(Vec::new, |q| {
                        q.iter()
                            .map(|s| s.sketch.as_ref().map(|s| index.candidates(s)))
                            .collect()
                    })
                })
                .collect()
        });
        let masks = &masks;
        let shard_errors_ref = &shard_errors;
        type Tile = (usize, usize, usize, Vec<VcpPair>, Vec<Rung>);
        let work = || -> Vec<Tile> {
            let mut w = self.checkout_worker();
            let mut out: Vec<Tile> = Vec::new();
            loop {
                let tile = cursor.fetch_add(1, Ordering::Relaxed);
                if tile >= total_tiles {
                    break;
                }
                // Decode (item, strand, class-range) from the flat tile id.
                let b = offsets.partition_point(|&o| o <= tile) - 1;
                // Poll cancellation (and the shard-failure latch) between
                // tiles: a timed-out, abandoned or corruption-failed item
                // stops issuing verifier work within one tile's latency
                // while the rest of the batch keeps going.
                if batch.items[b].cancel.is_cancelled() || shard_errors_ref[b].get().is_some() {
                    continue;
                }
                let it = batch.item(b).expect("tiles only for live items");
                let local = tile - offsets[b];
                let qi = local / tiles_per_query;
                let start = (local % tiles_per_query) * VCP_TILE;
                let end = (start + VCP_TILE).min(nc);
                let mask = masks.as_ref().and_then(|m| m[b][qi].as_deref());
                let mut row = vec![VcpPair::default(); end - start];
                let mut rungs = vec![Rung::Unpriced; end - start];
                for ((cell, rung), ci) in row.iter_mut().zip(&mut rungs).zip(start..end) {
                    match self.price_cell(&it, qi, ci, mask, &mut w) {
                        Ok((r, v)) => (*rung, *cell) = (r, v),
                        Err(e) => {
                            let _ = shard_errors_ref[b].set(e);
                        }
                    }
                }
                out.push((b, qi, start, row, rungs));
            }
            self.return_worker(w);
            out
        };
        let tiles: Vec<Tile> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
            let mut tiles = work();
            for h in handles {
                tiles.extend(h.join().expect("worker panicked"));
            }
            tiles
        });
        for (b, qi, start, row, rungs) in tiles {
            let end = start + row.len();
            matrices[b].vcp[qi][start..end].copy_from_slice(&row);
            matrices[b].rung[qi][start..end].copy_from_slice(&rungs);
        }
        let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
        (matrices, errors)
    }

    /// Threads that price one matrix pass: [`super::EngineConfig::threads`],
    /// with 0 resolved to the available parallelism once per process —
    /// the standard library re-reads the cgroup files on every call.
    fn pass_threads(&self) -> usize {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        match self.config.threads {
            0 => *AVAILABLE
                .get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
            n => n,
        }
    }
}
