package server

import (
	"net/http"
	"sync/atomic"

	"shark"
	"shark/internal/obs"
)

// observer is the server's observability assembly: the metrics
// registry scraped at /metrics, the latency histograms, the
// statement counters, and the slow-query ring buffer. One observer
// lives for the server's lifetime; statement handlers feed it.
type observer struct {
	reg  *obs.Registry
	qlog *obs.QueryLog

	stmtSeconds *obs.Histogram // per-statement wall time
	taskSeconds *obs.Histogram // per-task service time

	// Statement counters, atomics: bumped from concurrent statement
	// goroutines, read by /metrics scrapes and tests.
	stmtStarted  atomic.Int64
	stmtFinished atomic.Int64
	stmtErrors   atomic.Int64
}

// newObserver wires the registry over the cluster's existing counters
// — every metric reads live state through a closure, so scrapes never
// copy or lock more than the counter itself.
func newObserver(cl *shark.Cluster, cfg Config) *observer {
	o := &observer{
		reg:         obs.NewRegistry(),
		qlog:        obs.NewQueryLog(cfg.QueryLogSize, cfg.SlowQueryThreshold),
		stmtSeconds: obs.NewLatencyHistogram(),
		taskSeconds: obs.NewLatencyHistogram(),
	}
	cl.SetTaskObserver(o.taskSeconds.Observe)

	counter := func(name, help string, fn func() int64) {
		o.reg.Counter(name, help, func() float64 { return float64(fn()) })
	}

	// Server statement lifecycle.
	counter("shark_server_statements_started_total", "statements begun executing", o.stmtStarted.Load)
	counter("shark_server_statements_finished_total", "statements completed (success or error)", o.stmtFinished.Load)
	counter("shark_server_statement_errors_total", "statements that returned an error", o.stmtErrors.Load)
	o.reg.Histogram("shark_server_statement_seconds", "statement wall time", o.stmtSeconds)
	o.reg.Histogram("shark_task_seconds", "task service time", o.taskSeconds)

	// RDD scheduler.
	sm := cl.SchedulerMetrics()
	counter("shark_scheduler_tasks_launched_total", "tasks handed to workers", sm.TasksLaunched.Load)
	counter("shark_scheduler_task_retries_total", "task attempts retried after failure", sm.TaskRetries.Load)
	counter("shark_scheduler_fetch_failures_total", "reduce tasks failed on lost map output", sm.FetchFailures.Load)
	counter("shark_scheduler_map_stage_reruns_total", "map tasks re-run to regenerate lost output", sm.MapStageReruns.Load)
	counter("shark_scheduler_speculative_tasks_total", "backup tasks launched for stragglers", sm.SpeculativeTasks.Load)
	counter("shark_scheduler_stages_run_total", "stages executed", sm.StagesRun.Load)
	counter("shark_scheduler_cache_hits_total", "cached partitions served from local memory", sm.CacheHits.Load)
	counter("shark_scheduler_cache_recomputes_total", "cached partitions rebuilt from lineage", sm.CacheRecomputes.Load)
	counter("shark_scheduler_remote_cache_hits_total", "cached partitions fetched from another worker", sm.RemoteCacheHits.Load)
	counter("shark_scheduler_disk_hits_total", "cached partitions read from the disk tier", sm.DiskHits.Load)
	counter("shark_scheduler_cancelled_mid_partition_total", "task bodies aborted mid-partition on cancel", sm.CancelledMidPartition.Load)
	counter("shark_pde_broadcast_conversions_total", "shuffle joins converted to broadcast at runtime", sm.BroadcastConversions.Load)
	counter("shark_pde_skew_splits_total", "hot reduce buckets split across tasks", sm.SkewSplits.Load)
	counter("shark_pde_adaptive_coalesces_total", "reduce stages with runtime-chosen parallelism", sm.AdaptiveCoalesces.Load)

	// Dispatcher.
	dm := cl.Metrics()
	counter("shark_dispatch_steals_total", "tasks run away from their live home worker", dm.Steals.Load)
	counter("shark_dispatch_cancelled_tasks_total", "queued tasks dropped by job cancellation", dm.CancelledTasks.Load)
	counter("shark_dispatch_locality_hits_total", "tasks run on a preferred worker", dm.LocalityHits.Load)
	counter("shark_dispatch_locality_misses_total", "preferred-location tasks run elsewhere", dm.LocalityMisses.Load)
	counter("shark_cache_evictions_total", "cached blocks dropped with no disk copy", dm.CacheEvictions.Load)
	counter("shark_cache_evicted_bytes_total", "bytes of cached blocks dropped", dm.BytesEvicted.Load)
	counter("shark_disk_spilled_blocks_total", "memory-tier victims caught by disk tiers", dm.SpilledBlocks.Load)
	counter("shark_disk_spilled_bytes_total", "bytes spilled to disk tiers", dm.BytesSpilled.Load)

	// Shuffle service.
	sh := cl.ShuffleMetrics()
	counter("shark_shuffle_fetch_calls_total", "reduce-side bucket fetch calls", sh.FetchCalls.Load)
	counter("shark_shuffle_fetched_pairs_total", "pairs returned by bucket fetches", sh.FetchedPairs.Load)
	counter("shark_shuffle_spilled_reads_total", "bucket fetches served from spilled storage", sh.SpilledReads.Load)

	// Instantaneous cluster state.
	o.reg.Gauge("shark_cluster_backlog_tasks", "tasks queued, not yet running",
		func() float64 { return float64(cl.Backlog()) })
	o.reg.Gauge("shark_cluster_workers_alive", "live workers",
		func() float64 { return float64(len(cl.AliveWorkers())) })
	return o
}

// statementDone records one finished statement: wall-time histogram,
// finished/error counters, and the slow-query log.
func (o *observer) statementDone(tr *obs.Trace, err error) {
	// The query-log entry lands before the finished counter moves, so
	// anything that saw the counter can read the trace.
	o.qlog.Record(tr)
	o.stmtSeconds.Observe(tr.Duration())
	if err != nil {
		o.stmtErrors.Add(1)
	}
	o.stmtFinished.Add(1)
}

// ObsHandler returns the HTTP surface of the server's observability
// assembly: /metrics (Prometheus text), /queries (slow-query log) and
// /debug/pprof/*. Serve it on a sidecar listener (shark-server's
// -obs-addr), never the client-facing wire port.
func (s *Server) ObsHandler() http.Handler {
	return obs.Handler(s.obs.reg, s.obs.qlog)
}

// QueryLog exposes the statement-trace ring behind /queries for
// embedding callers.
func (s *Server) QueryLog() *obs.QueryLog {
	return s.obs.qlog
}

// connGauge registers the live-connection gauge; split from
// newObserver because the observer is built before the Server exists.
func (s *Server) connGauge() {
	s.obs.reg.Gauge("shark_server_connections", "live client connections", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
}
