package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported with --trace 1 by
// every workload. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// Workload-level figures that are too noisy to gate (read_p99_ms: a
	// served read's tail is set by fsync and garbage-collection stalls and
	// its run-to-run spread is wider than any allowed bound) or that apply
	// to one workload only.
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"recovery_s", "s"},
	{"error_rate", "ratio"},
	{"read_samples", "count"},
	{"trace.overhead_share", "ratio"},
	// Set-up.
	{"mth.generate_s", "s"},
	{"mth.load_s", "s"},
	// Front end.
	{"sqlparse.parse_us_p50", "us"},
	{"middleware.scope_us_p50", "us"},
	{"rewrite.rewrite_us_p50", "us"},
	{"optimizer.optimize_us_p50", "us"},
	{"optimizer.serialize_us_p50", "us"},
	{"engine.plan_us_p50", "us"},
	{"middleware.rewrite_cache_hit_ratio", "ratio"},
	{"middleware.rewrite_cache_lookups", "count"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.plan_cache_lookups", "count"},
	// Engine.
	{"engine.exec_ms_p50", "ms"},
	{"engine.exec_ms_p99", "ms"},
	{"engine.exec_share", "ratio"},
	{"engine.udf_calls_per_op", "count"},
	{"engine.udf_cache_hit_ratio", "ratio"},
	{"engine.rows_streamed_per_result_row", "count"},
	{"engine.commit_us_p50", "us"},
	// Wire and server.
	{"wire.hop_us_p50", "us"},
	{"server.admission_waits", "count"},
	// Write-ahead log.
	{"wal.apply_us_p50", "us"},
	{"wal.apply_us_p99", "us"},
	{"wal.snapshots", "count"},
	{"wal.bytes_per_write", "B"},
	{"wal.replay_records", "count"},
	// Load generator and runtime.
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.lag_ms_p99_late", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
}

// shardLayer are the shard layer's metrics, reported with --trace 1 after
// perLayer by cross_tenant_sharded only. That workload is not in
// BENCHMARK.json while internal/shard fails its correctness check (see
// README.md), so these are not in the declared per-layer set either.
var shardLayer = []metricDef{
	{"shard.scatter_per_op", "count"},
	{"shard.partials_per_op", "count"},
	{"shard.fallback_per_op", "count"},
	{"shard.scatter_ms_p50", "ms"},
	{"shard.partial_ms_p50", "ms"},
	{"shard.fallback_ms_p50", "ms"},
}

// phase measures what a stretch of the run cost the process: heap bytes
// allocated and the share of CPU time the garbage collector used.
type phase struct {
	start        time.Time
	alloc        uint64
	gcCPU, total float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

func beginPhase() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPU()
	return phase{start: time.Now(), alloc: ms.TotalAlloc, gcCPU: gc, total: total}
}

// phaseCost is what a phase cost.
type phaseCost struct {
	wall          time.Duration
	allocBytes    uint64
	gcCPUFraction float64
}

func (p phase) end() phaseCost {
	wall := time.Since(p.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPU()
	c := phaseCost{wall: wall, allocBytes: ms.TotalAlloc - p.alloc}
	if total > p.total {
		c.gcCPUFraction = (gc - p.gcCPU) / (total - p.total)
	}
	return c
}

// peakRSSMB is the peak resident set size of this process so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms, us and sec convert durations to the float units metrics use.
func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func us(d time.Duration) float64  { return float64(d) / 1e3 }
func sec(d time.Duration) float64 { return d.Seconds() }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
