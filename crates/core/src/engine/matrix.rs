//! The matrix pass: every batch item's `query strand × corpus class` VCP
//! matrix. Each `(item, strand)` row walks only its size-ratio window
//! through the signature filter, and workers that check verifier sessions
//! out of the engine's pool price the survivors in work-stealing tiles.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use esh_solver::EquivStats;
use esh_verifier::VerifierSession;

use super::ladder::Rung;
use super::{BatchPass, SimilarityEngine};
use crate::coded::StrandTable;
use crate::prefilter::RungCounts;
use crate::shard::ShardError;
use crate::vcp::{size_ratio_window, VcpPair};

/// Survivors per work-stealing tile. Small enough that a tile of
/// expensive verifier calls cannot straggle the whole matrix, large
/// enough that contention on a row's tile cursor is negligible.
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

/// One `(item, strand)` row of a matrix pass: its size-ratio window, as
/// positions of [`super::Derived::by_size`], what the worker that swept
/// it found, and the cursor that hands out its survivors' tiles.
struct Row {
    item: usize,
    qi: usize,
    window: Range<usize>,
    swept: OnceLock<Swept>,
    cursor: AtomicUsize,
}

/// A swept row: the strand's LSH candidate mask (`mask[ci]` = class `ci`
/// shares a band), and the classes that passed the cheap rungs, in
/// ascending order. An item that was cancelled or failed before its row
/// was swept leaves both empty.
struct Swept {
    mask: Option<Vec<bool>>,
    survivors: Vec<usize>,
}

/// Counts a claimed row as swept when dropped — also when the sweep
/// unwinds, so that no worker waits for it for ever.
struct SweepDone<'a>(&'a AtomicUsize);

impl Drop for SweepDone<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The next tile of the earliest swept row that has one left: the row,
/// what its sweep found and the tile's positions in its survivors. Rows
/// before `low` are known to have none left.
fn next_tile<'r>(rows: &'r [Row], low: &mut usize) -> Option<(usize, &'r Swept, Range<usize>)> {
    for (r, row) in rows.iter().enumerate().skip(*low) {
        let Some(swept) = row.swept.get() else {
            continue;
        };
        let len = swept.survivors.len();
        if row.cursor.load(Ordering::Relaxed) < len {
            let start = row.cursor.fetch_add(VCP_TILE, Ordering::Relaxed);
            if start < len {
                return Some((r, swept, start..len.min(start + VCP_TILE)));
            }
        }
        if r == *low {
            *low += 1;
        }
    }
    None
}

/// A pricing thread's private state: a verifier session and a strand
/// table checked out of the engine's pool (so term pools and verdict
/// caches stay warm across queries, not just across one query's tiles,
/// and the table's allocation is reused), the session's counters at
/// checkout, the sketch rung's outcome counts and the counted cache
/// lookups. [`SimilarityEngine::return_worker`] adds them to the
/// engine's counters once, rather than once per pair.
pub(super) struct Worker {
    pub(super) session: VerifierSession,
    /// The cheap rungs' table of the query strand being priced, loaded
    /// when the worker moves to a new `(item, strand)`.
    pub(super) table: StrandTable,
    stats0: EquivStats,
    pub(super) counts: RungCounts,
    pub(super) cache_hits: u64,
    pub(super) cache_misses: u64,
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
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Adds a worker's counts to the engine's and returns its session,
    /// with its table cleared, to the pool unless its term pool outgrew
    /// [`SESSION_TERM_CAP`].
    pub(super) fn return_worker(&self, mut w: Worker) {
        w.table.clear();
        self.prefilter_stats.add_rungs(&w.counts);
        self.cache.record_lookups(w.cache_hits, w.cache_misses);
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
    /// The pass visits the cells that survive, not the corpus. Each
    /// `(item, strand)` row binary-searches its size-ratio window among
    /// the classes in size order ([`size_ratio_window`]) and sweeps only
    /// that window through the signature filter
    /// ([`SimilarityEngine::row_survivors`]); every other cell stays
    /// `Filtered`. Under a config where every LSH non-candidate prunes,
    /// the row's non-candidates, inside the window or not, are recorded
    /// `Unpriced` instead. The survivors are then priced in ascending
    /// class order through the sketch rung and the exact step
    /// ([`SimilarityEngine::price_survivor`]), in tiles of
    /// [`VCP_TILE`].
    ///
    /// Work is distributed dynamically: a worker prices the next tile of
    /// the earliest swept row that has one, and sweeps the next unclaimed
    /// row when none does, so workers that land on cheap tiles (sketch
    /// prunes, cache hits) immediately steal more instead of idling
    /// behind a static split, and rows of different batch items
    /// interleave freely. On one thread this prices row by row in
    /// ascending class order, as a per-cell walk of the matrix would. A
    /// tile returns only the cells it priced; they are written into the
    /// matrices after the workers join.
    /// The calling thread is a worker itself; it spawns
    /// `min(threads, tiles) − 1` helpers, counting a tile per
    /// [`VCP_TILE`] cells of the rows' windows, less one for every other
    /// batch running in this engine, so a lone query gets every core,
    /// batches that overlap get about one each, and `threads == 1` spawns
    /// none.
    /// Cancellation stays per-item and is polled per row and per tile: a
    /// cancelled item's remaining rows and tiles are skipped while the
    /// rest of the batch keeps computing; its partial matrix is discarded
    /// by the caller.
    /// On a lazily backed engine the same pass is the **fan-out** step:
    /// a pair that survives pricing pulls its shard into memory (once per
    /// item and shard; its record is decoded on a cache miss), and
    /// `batch.touched` records which `(item, shard)` pairs were opened.
    /// Shards partition the class index space in order, so the cells
    /// written back form exactly the matrix a resident engine computes,
    /// bit for bit. Each cell's [`Rung`] rides along.
    pub(super) fn vcp_matrix_batch(
        &self,
        batch: &BatchPass<'_>,
    ) -> (Vec<ItemMatrix>, Vec<Option<ShardError>>) {
        let queries = &batch.queries;
        let derived = batch.derived;
        let nc = self.classes.len();
        let mut matrices: Vec<ItemMatrix> = queries
            .iter()
            .map(|q| {
                let nq = q.as_ref().map_or(0, |q| q.len());
                ItemMatrix {
                    vcp: vec![vec![VcpPair::default(); nc]; nq],
                    rung: vec![vec![Rung::Filtered; nc]; nq],
                }
            })
            .collect();
        // Per-item shard-failure latch: the first corrupted-shard error an
        // item hits is kept, the item's remaining rows and tiles are
        // skipped, and the caller fails that item alone — neighbours keep
        // computing.
        let shard_errors: Vec<OnceLock<ShardError>> =
            (0..queries.len()).map(|_| OnceLock::new()).collect();
        let rows: Vec<Row> = queries
            .iter()
            .enumerate()
            .flat_map(|(item, q)| {
                q.iter().flatten().enumerate().map(move |(qi, s)| Row {
                    item,
                    qi,
                    window: size_ratio_window(&self.config.vcp, s.vars, &derived.sorted_vars),
                    swept: OnceLock::new(),
                    cursor: AtomicUsize::new(0),
                })
            })
            .collect();
        if rows.is_empty() || nc == 0 {
            let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
            return (matrices, errors);
        }
        let window_cells: usize = rows.iter().map(|r| r.window.len()).sum();
        let helpers = self
            .pass_threads()
            .max(1)
            .min(window_cells.div_ceil(VCP_TILE))
            .saturating_sub(1 + batch.others);
        let next_row = AtomicUsize::new(0);
        let unswept = AtomicUsize::new(rows.len());
        // Polled between rows and tiles: a timed-out, abandoned or
        // corruption-failed item stops issuing verifier work within one
        // tile's latency while the rest of the batch keeps going.
        let live =
            |b: usize| !batch.items[b].cancel.is_cancelled() && shard_errors[b].get().is_none();
        // `(row, class, rung, value)` of every cell a tile priced.
        type Cell = (usize, usize, Rung, VcpPair);
        let work = || -> Vec<Cell> {
            let mut w = self.checkout_worker();
            let mut out: Vec<Cell> = Vec::new();
            let mut low = 0;
            loop {
                // Read before the scan: once every row was swept before
                // it, a scan that finds no tile means the pass is done.
                let all_swept = unswept.load(Ordering::Acquire) == 0;
                if let Some((r, swept, tile)) = next_tile(&rows, &mut low) {
                    let row = &rows[r];
                    if !live(row.item) {
                        continue;
                    }
                    let it = batch.item(row.item).expect("rows only of prepared items");
                    for &ci in &swept.survivors[tile] {
                        match self.price_survivor(&it, row.qi, ci, swept.mask.as_deref(), &mut w) {
                            Ok((rung, v)) => out.push((r, ci, rung, v)),
                            Err(e) => {
                                let _ = shard_errors[row.item].set(e);
                                break;
                            }
                        }
                    }
                    continue;
                }
                let r = next_row.fetch_add(1, Ordering::Relaxed);
                if r < rows.len() {
                    let _done = SweepDone(&unswept);
                    let row = &rows[r];
                    let swept = match batch.item(row.item).filter(|_| live(row.item)) {
                        Some(it) => {
                            let strand = &it.strands[row.qi];
                            let mask = derived.sketch_index.as_ref().and_then(|index| {
                                strand.sketch.as_ref().map(|s| index.candidates(s))
                            });
                            let survivors = self.row_survivors(
                                &it,
                                row.qi,
                                row.window.clone(),
                                mask.as_deref(),
                                &mut w,
                            );
                            Swept { mask, survivors }
                        }
                        None => Swept {
                            mask: None,
                            survivors: Vec::new(),
                        },
                    };
                    let _ = row.swept.set(swept);
                    continue;
                }
                if all_swept {
                    break;
                }
                // Every row is claimed and another worker is still
                // sweeping one: its tiles are about to open.
                std::thread::yield_now();
            }
            self.return_worker(w);
            out
        };
        let cells: Vec<Cell> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
            let mut cells = work();
            for h in handles {
                cells.extend(h.join().expect("worker panicked"));
            }
            cells
        });
        if batch.mask_settles {
            for row in &rows {
                let Some(mask) = row.swept.get().and_then(|s| s.mask.as_deref()) else {
                    continue;
                };
                for (rung, &candidate) in matrices[row.item].rung[row.qi].iter_mut().zip(mask) {
                    if !candidate {
                        *rung = Rung::Unpriced;
                    }
                }
            }
        }
        for (r, ci, rung, v) in cells {
            let m = &mut matrices[rows[r].item];
            m.vcp[rows[r].qi][ci] = v;
            m.rung[rows[r].qi][ci] = rung;
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
