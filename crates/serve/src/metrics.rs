//! Live server metrics: outcome counters, queue-depth high-water mark,
//! batch-coalescing counters, a fixed-bucket latency histogram and an
//! exact max-latency gauge.
//!
//! Everything is lock-free atomics so the hot path (workers recording an
//! outcome per request) never contends with scrapes of `/metrics`. The
//! histogram trades exactness for bounded memory: latencies are counted
//! into fixed millisecond buckets and quantiles report the upper bound of
//! the bucket containing the requested rank — the standard
//! Prometheus-histogram compromise.

use std::sync::atomic::{AtomicU64, Ordering};

use esh_core::{CacheStats, EquivStats, PrefilterStatsSnapshot, ShardStats};

use crate::protocol::Outcome;

/// Upper bounds (milliseconds, inclusive) of the latency histogram
/// buckets. The ladder extends well past one second — SAT-heavy queries
/// against cold caches routinely take seconds, and a histogram whose top
/// finite bucket sits at the p99 reports the cap, not the tail. The
/// interior is dense (≤1.5–2× between adjacent bounds) because
/// sub-shard demand decoding moved typical cold-query latencies into
/// the tens-to-hundreds-of-milliseconds range, where the old sparse
/// ladder quantized p50/p99 too coarsely to see a regression. An
/// implicit `+Inf` bucket still catches everything slower than the last
/// bound, and the Prometheus render reports it distinctly.
pub const LATENCY_BUCKETS_MS: [u64; 25] = [
    1, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500, 750, 1000, 1500, 2000, 5000,
    10_000, 20_000, 60_000, 120_000,
];

/// Value quantiles report when the ranked observation fell in the `+Inf`
/// overflow bucket — deliberately past every finite bound so an
/// overflowing tail is unmistakable in dashboards.
const OVERFLOW_MS: u64 = 300_000;

/// Concurrently-updatable server counters. One instance lives for the
/// whole daemon; workers record into it and `/metrics` renders it.
#[derive(Debug)]
pub struct ServerStats {
    ok: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    not_found: AtomicU64,
    bad_request: AtomicU64,
    shutting_down: AtomicU64,
    internal: AtomicU64,
    http: AtomicU64,
    queue_depth_hwm: AtomicU64,
    /// Exact maximum observed latency — the histogram's quantiles round
    /// up to bucket bounds, which hides the true tail.
    max_ms: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    coalesced_queries: AtomicU64,
    batch_occupancy_hwm: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> ServerStats {
        ServerStats {
            ok: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
            shutting_down: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            http: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            max_ms: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            coalesced_queries: AtomicU64::new(0),
            batch_occupancy_hwm: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Counts one finished (or rejected) query request.
    pub fn record_outcome(&self, outcome: Outcome) {
        let counter = match outcome {
            Outcome::Ok => &self.ok,
            Outcome::Overloaded => &self.overloaded,
            Outcome::DeadlineExceeded => &self.deadline_exceeded,
            Outcome::NotFound => &self.not_found,
            Outcome::BadRequest => &self.bad_request,
            Outcome::ShuttingDown => &self.shutting_down,
            Outcome::Internal => &self.internal,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one HTTP request (`/healthz`, `/metrics`, 404s).
    pub fn record_http(&self) {
        self.http.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one admission-to-response latency to the histogram and
    /// raises the exact max gauge.
    pub fn record_latency_ms(&self, ms: u64) {
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.max_ms.fetch_max(ms, Ordering::Relaxed);
    }

    /// Counts one executed batch of `size` member requests that
    /// collapsed to `unique` distinct engine queries.
    pub fn record_batch(&self, size: usize, unique: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(size as u64, Ordering::Relaxed);
        self.coalesced_queries
            .fetch_add(size.saturating_sub(unique) as u64, Ordering::Relaxed);
        self.batch_occupancy_hwm
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Raises the queue-depth high-water mark to `depth` if it is a new
    /// maximum.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth_hwm
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, with quantiles resolved.
    pub fn snapshot(&self) -> StatsSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        StatsSnapshot {
            ok: self.ok.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            bad_request: self.bad_request.load(Ordering::Relaxed),
            shutting_down: self.shutting_down.load(Ordering::Relaxed),
            internal: self.internal.load(Ordering::Relaxed),
            http: self.http.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            p50_ms: quantile(&buckets, 0.50),
            p99_ms: quantile(&buckets, 0.99),
            max_ms: self.max_ms.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_queries: self.batched_queries.load(Ordering::Relaxed),
            coalesced_queries: self.coalesced_queries.load(Ordering::Relaxed),
            batch_occupancy_hwm: self.batch_occupancy_hwm.load(Ordering::Relaxed),
        }
    }

    /// Renders the Prometheus-style `/metrics` payload, folding in the
    /// engine's VCP-cache, equivalence-decision, SAT-solver,
    /// sketch-prefilter and lazy-shard counters and its count of lifted
    /// query strands, so one scrape shows the whole serving stack.
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        cache: &CacheStats,
        equiv: &EquivStats,
        prefilter: &PrefilterStatsSnapshot,
        shards: &ShardStats,
        query_strands_lifted: u64,
        queue_depth: usize,
        pending_depth: usize,
    ) -> String {
        let s = self.snapshot();
        let mut out = String::new();
        for (label, v) in [
            ("ok", s.ok),
            ("overloaded", s.overloaded),
            ("deadline_exceeded", s.deadline_exceeded),
            ("not_found", s.not_found),
            ("bad_request", s.bad_request),
            ("shutting_down", s.shutting_down),
            ("internal", s.internal),
        ] {
            out.push_str(&format!("esh_requests_total{{outcome=\"{label}\"}} {v}\n"));
        }
        out.push_str(&format!("esh_http_requests_total {}\n", s.http));
        out.push_str(&format!("esh_queue_depth {queue_depth}\n"));
        out.push_str(&format!(
            "esh_queue_depth_high_water {}\n",
            s.queue_depth_hwm
        ));
        out.push_str(&format!(
            "esh_request_latency_ms{{quantile=\"0.5\"}} {}\n",
            s.p50_ms
        ));
        out.push_str(&format!(
            "esh_request_latency_ms{{quantile=\"0.99\"}} {}\n",
            s.p99_ms
        ));
        out.push_str(&format!("esh_request_latency_ms_max {}\n", s.max_ms));
        out.push_str(&format!("esh_batch_queue_depth {pending_depth}\n"));
        out.push_str(&format!("esh_batches_total {}\n", s.batches));
        out.push_str(&format!(
            "esh_batched_queries_total {}\n",
            s.batched_queries
        ));
        out.push_str(&format!(
            "esh_coalesced_queries_total {}\n",
            s.coalesced_queries
        ));
        out.push_str(&format!(
            "esh_batch_occupancy_high_water {}\n",
            s.batch_occupancy_hwm
        ));
        // Full cumulative histogram. The `+Inf` bucket is rendered as its
        // own series (not folded into the last finite bound) so overflow
        // is visible as the gap between `le="120000"` and `le="+Inf"`.
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "esh_request_latency_ms_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "esh_request_latency_ms_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("esh_vcp_cache_hits_total {}\n", cache.hits));
        out.push_str(&format!("esh_vcp_cache_misses_total {}\n", cache.misses));
        out.push_str(&format!("esh_vcp_cache_entries {}\n", cache.entries));
        out.push_str(&format!("esh_vcp_cache_hit_rate {:.6}\n", cache.hit_rate()));
        for (layer, n) in equiv.decisions() {
            out.push_str(&format!(
                "esh_equiv_decisions_total{{layer=\"{layer}\"}} {n}\n"
            ));
        }
        let solver = &equiv.solver;
        out.push_str(&format!("esh_sat_queries_total {}\n", solver.sat_queries));
        out.push_str(&format!("esh_sat_conflicts_total {}\n", solver.conflicts));
        out.push_str(&format!(
            "esh_sat_time_ms {:.3}\n",
            solver.sat_time_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "esh_prefilter_pairs_pruned_total {}\n",
            prefilter.pairs_pruned
        ));
        out.push_str(&format!(
            "esh_prefilter_sketch_collisions_total {}\n",
            prefilter.sketch_collisions
        ));
        out.push_str(&format!(
            "esh_prefilter_exact_fallbacks_total {}\n",
            prefilter.exact_fallbacks
        ));
        out.push_str(&format!(
            "esh_prefilter_ambiguous_probes_total {}\n",
            prefilter.ambiguous_probes
        ));
        out.push_str(&format!(
            "esh_prefilter_probe_escalations_total {}\n",
            prefilter.probe_escalations
        ));
        out.push_str(&format!(
            "esh_prefilter_probe_sketches_total {}\n",
            prefilter.probe_sketches
        ));
        out.push_str(&format!(
            "esh_prefilter_refined_pairs_total {}\n",
            prefilter.refined_pairs
        ));
        out.push_str(&format!(
            "esh_prefilter_refine_passes_total {}\n",
            prefilter.refine_passes
        ));
        // Scale tier: shard residency (gauges) and query fan-out
        // (counter). A fully resident engine (built in memory) reports
        // all-zero; a lazy `.eshx` index reports loaded < total until queries
        // have touched every segment, evictions and resident bytes only
        // move under a `--shard-budget-mb` cap, and the pruned counter
        // adds, per query, the shards the query read no class record
        // from (shards − that query's fan-out).
        out.push_str(&format!("esh_shards_total {}\n", shards.shards_total));
        out.push_str(&format!("esh_shards_loaded {}\n", shards.shards_loaded));
        out.push_str(&format!("esh_shard_fanout_total {}\n", shards.fanout_total));
        out.push_str(&format!(
            "esh_shards_evicted_total {}\n",
            shards.evicted_total
        ));
        out.push_str(&format!(
            "esh_shards_resident_bytes {}\n",
            shards.resident_bytes
        ));
        out.push_str(&format!(
            "esh_shards_resident_bytes_peak {}\n",
            shards.resident_bytes_peak
        ));
        out.push_str(&format!(
            "esh_shards_pruned_total {}\n",
            shards.pruned_total
        ));
        // Sub-shard demand decoding: decoded-vs-mapped byte gauges show
        // how much of the mapped corpus queries actually paid to decode,
        // and `partial` counts shards serving with raw neighbours still
        // undecoded. Fully resident engines report zeros.
        out.push_str(&format!(
            "esh_shard_decoded_bytes {}\n",
            shards.decoded_bytes
        ));
        out.push_str(&format!("esh_shard_mapped_bytes {}\n", shards.mapped_bytes));
        out.push_str(&format!(
            "esh_classes_decoded_total {}\n",
            shards.classes_decoded_total
        ));
        out.push_str(&format!("esh_shards_partial {}\n", shards.shards_partial));
        // Strands lifted from query assembly: a daemon scores corpus
        // members from their target records, so this stays flat.
        out.push_str(&format!(
            "esh_query_strands_lifted_total {query_strands_lifted}\n"
        ));
        out
    }
}

/// A plain copy of the counters at one instant — what the daemon prints
/// at shutdown and what the end-to-end tests and `perfbench` read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed queries.
    pub ok: u64,
    /// Requests rejected because the admission queue was full.
    pub overloaded: u64,
    /// Requests whose deadline expired before or during scoring.
    pub deadline_exceeded: u64,
    /// Requests naming no corpus procedure.
    pub not_found: u64,
    /// Unparseable request lines.
    pub bad_request: u64,
    /// `@shutdown` acknowledgements.
    pub shutting_down: u64,
    /// Server-side faults (for example a corrupted index shard).
    pub internal: u64,
    /// HTTP requests served by the metrics shim.
    pub http: u64,
    /// Deepest the admission queue ever got.
    pub queue_depth_hwm: u64,
    /// Median admission-to-response latency (bucket upper bound).
    pub p50_ms: u64,
    /// 99th-percentile latency (bucket upper bound).
    pub p99_ms: u64,
    /// Exact maximum latency observed (not a bucket bound).
    pub max_ms: u64,
    /// Engine batches executed by the coalescing tier.
    pub batches: u64,
    /// Requests that went through a batch (sum of batch sizes).
    pub batched_queries: u64,
    /// Requests that shared another member's engine pass (same corpus
    /// procedure in the same batch).
    pub coalesced_queries: u64,
    /// Largest batch ever executed.
    pub batch_occupancy_hwm: u64,
}

impl StatsSnapshot {
    /// Total query requests across all outcomes (HTTP excluded).
    pub fn total(&self) -> u64 {
        self.ok
            + self.overloaded
            + self.deadline_exceeded
            + self.not_found
            + self.bad_request
            + self.shutting_down
            + self.internal
    }
}

/// Bucket-resolved quantile: the upper bound of the bucket holding the
/// `q`-ranked observation (0 when the histogram is empty).
fn quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            return LATENCY_BUCKETS_MS.get(i).copied().unwrap_or(OVERFLOW_MS);
        }
    }
    OVERFLOW_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let stats = ServerStats::new();
        // 98 fast requests, 2 slow ones: p50 in the ≤3ms bucket, p99 in
        // the ≤500ms bucket.
        for _ in 0..98 {
            stats.record_latency_ms(3);
        }
        stats.record_latency_ms(400);
        stats.record_latency_ms(450);
        let s = stats.snapshot();
        assert_eq!(s.p50_ms, 3);
        assert_eq!(s.p99_ms, 500);
    }

    #[test]
    fn densified_ladder_separates_demand_decode_latencies() {
        // The sparse pre-v6 ladder jumped 50 → 100 → 200: a 60ms and a
        // 180ms query were two buckets apart at best. The dense interior
        // keeps sub-shard decode improvements visible as distinct bounds.
        let stats = ServerStats::new();
        stats.record_latency_ms(60);
        assert_eq!(stats.snapshot().p50_ms, 75);
        let stats = ServerStats::new();
        stats.record_latency_ms(130);
        assert_eq!(stats.snapshot().p50_ms, 150);
        let stats = ServerStats::new();
        stats.record_latency_ms(250);
        assert_eq!(stats.snapshot().p50_ms, 300);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = ServerStats::new().snapshot();
        assert_eq!(s.p50_ms, 0);
        assert_eq!(s.p99_ms, 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn overflow_latencies_land_in_the_terminal_bucket() {
        let stats = ServerStats::new();
        // A minute-long query now has its own finite bucket…
        stats.record_latency_ms(60_000);
        assert_eq!(stats.snapshot().p50_ms, 60_000);
        // …and only latencies past the whole ladder report the overflow
        // sentinel.
        let slow = ServerStats::new();
        slow.record_latency_ms(150_000);
        assert_eq!(slow.snapshot().p50_ms, OVERFLOW_MS);
    }

    #[test]
    fn render_reports_cumulative_buckets_and_distinct_inf() {
        let stats = ServerStats::new();
        stats.record_latency_ms(3);
        stats.record_latency_ms(1500);
        stats.record_latency_ms(150_000); // past every finite bound
        let text = stats.render(
            &CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            &EquivStats::default(),
            &PrefilterStatsSnapshot::default(),
            &ShardStats::default(),
            0,
            0,
            0,
        );
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"5\"} 1\n"));
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"1500\"} 2\n"));
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"2000\"} 2\n"));
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"120000\"} 2\n"));
        assert!(text.contains("esh_request_latency_ms_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn render_includes_prefilter_counters() {
        let text = ServerStats::new().render(
            &CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            &EquivStats::default(),
            &PrefilterStatsSnapshot {
                pairs_pruned: 41,
                sketch_collisions: 7,
                exact_fallbacks: 3,
                ambiguous_probes: 11,
                probe_escalations: 5,
                probe_sketches: 17,
                refined_pairs: 13,
                refine_passes: 2,
            },
            &ShardStats::default(),
            19,
            0,
            0,
        );
        assert!(text.contains("esh_query_strands_lifted_total 19\n"));
        assert!(text.contains("esh_prefilter_pairs_pruned_total 41\n"));
        assert!(text.contains("esh_prefilter_sketch_collisions_total 7\n"));
        assert!(text.contains("esh_prefilter_exact_fallbacks_total 3\n"));
        assert!(text.contains("esh_prefilter_ambiguous_probes_total 11\n"));
        assert!(text.contains("esh_prefilter_probe_escalations_total 5\n"));
        assert!(text.contains("esh_prefilter_probe_sketches_total 17\n"));
        assert!(text.contains("esh_prefilter_refined_pairs_total 13\n"));
        assert!(text.contains("esh_prefilter_refine_passes_total 2\n"));
    }

    #[test]
    fn render_includes_equiv_decision_counters() {
        let equiv = EquivStats {
            by_normalization: 11,
            by_random: 7,
            by_directed: 5,
            sat_equal: 3,
            sat_not_equal: 2,
            unknown: 1,
            cache_hits: 99,
            ..EquivStats::default()
        };
        let text = ServerStats::new().render(
            &CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            &equiv,
            &PrefilterStatsSnapshot::default(),
            &ShardStats::default(),
            0,
            0,
            0,
        );
        for line in [
            "esh_equiv_decisions_total{layer=\"normalization\"} 11\n",
            "esh_equiv_decisions_total{layer=\"random\"} 7\n",
            "esh_equiv_decisions_total{layer=\"directed\"} 5\n",
            "esh_equiv_decisions_total{layer=\"sat_equal\"} 3\n",
            "esh_equiv_decisions_total{layer=\"sat_not_equal\"} 2\n",
            "esh_equiv_decisions_total{layer=\"unknown\"} 1\n",
        ] {
            assert!(text.contains(line), "missing {line:?}");
        }
        assert_eq!(text.matches("esh_equiv_decisions_total").count(), 6);
    }

    #[test]
    fn render_includes_shard_residency_gauges() {
        let shards = ShardStats {
            shards_total: 9,
            shards_loaded: 4,
            fanout_total: 31,
            evicted_total: 5,
            resident_bytes: 4096,
            resident_bytes_peak: 8192,
            pruned_total: 17,
            decoded_bytes: 2048,
            mapped_bytes: 65_536,
            classes_decoded_total: 23,
            shards_partial: 3,
        };
        let text = ServerStats::new().render(
            &CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            &EquivStats::default(),
            &PrefilterStatsSnapshot::default(),
            &shards,
            0,
            0,
            0,
        );
        assert!(text.contains("esh_shards_total 9\n"));
        assert!(text.contains("esh_shards_loaded 4\n"));
        assert!(text.contains("esh_shard_fanout_total 31\n"));
        assert!(text.contains("esh_shards_evicted_total 5\n"));
        assert!(text.contains("esh_shards_resident_bytes 4096\n"));
        assert!(text.contains("esh_shards_resident_bytes_peak 8192\n"));
        assert!(text.contains("esh_shards_pruned_total 17\n"));
        assert!(text.contains("esh_shard_decoded_bytes 2048\n"));
        assert!(text.contains("esh_shard_mapped_bytes 65536\n"));
        assert!(text.contains("esh_classes_decoded_total 23\n"));
        assert!(text.contains("esh_shards_partial 3\n"));
    }

    #[test]
    fn internal_outcome_counts_and_renders() {
        let stats = ServerStats::new();
        stats.record_outcome(Outcome::Internal);
        let s = stats.snapshot();
        assert_eq!(s.internal, 1);
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn max_latency_gauge_is_exact_not_a_bucket_bound() {
        let stats = ServerStats::new();
        stats.record_latency_ms(3);
        stats.record_latency_ms(437); // p-quantiles would report 500
        let s = stats.snapshot();
        assert_eq!(s.max_ms, 437);
        assert_eq!(s.p99_ms, 500, "bucket quantile rounds up; max must not");
        stats.record_latency_ms(12);
        assert_eq!(stats.snapshot().max_ms, 437, "max is monotone");
    }

    #[test]
    fn batch_counters_accumulate_and_render() {
        let stats = ServerStats::new();
        stats.record_batch(6, 4); // 6 riders, 4 engine items → 2 coalesced
        stats.record_batch(1, 1);
        let s = stats.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_queries, 7);
        assert_eq!(s.coalesced_queries, 2);
        assert_eq!(s.batch_occupancy_hwm, 6);
        let text = stats.render(
            &CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            &EquivStats::default(),
            &PrefilterStatsSnapshot::default(),
            &ShardStats::default(),
            0,
            0,
            3,
        );
        assert!(text.contains("esh_batches_total 2\n"));
        assert!(text.contains("esh_batched_queries_total 7\n"));
        assert!(text.contains("esh_coalesced_queries_total 2\n"));
        assert!(text.contains("esh_batch_occupancy_high_water 6\n"));
        assert!(text.contains("esh_batch_queue_depth 3\n"));
        assert!(text.contains("esh_request_latency_ms_max 0\n"));
    }

    #[test]
    fn high_water_mark_is_monotone() {
        let stats = ServerStats::new();
        stats.observe_queue_depth(3);
        stats.observe_queue_depth(7);
        stats.observe_queue_depth(2);
        assert_eq!(stats.snapshot().queue_depth_hwm, 7);
    }

    #[test]
    fn outcomes_count_into_distinct_counters() {
        let stats = ServerStats::new();
        stats.record_outcome(Outcome::Ok);
        stats.record_outcome(Outcome::Ok);
        stats.record_outcome(Outcome::Overloaded);
        stats.record_outcome(Outcome::DeadlineExceeded);
        let s = stats.snapshot();
        assert_eq!(s.ok, 2);
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.total(), 4);
    }
}
