// Command perfbench is mtbase's benchmark. It runs one workload for a
// fixed time, checks every result it gets, and prints each metric by name
// with its unit; its last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run first measures untraced as --trace 0 does, then
// replays the same statement stream through the public layers with a span
// around each call, and reports the per-layer metrics. See README.md.
//
// Usage:
//
//	perfbench --workload cross_tenant|cross_tenant_sharded|tenant_served \
//	    --seed N --seconds S --trace 0|1 [--record FILE]
//	perfbench compare BASE.jsonl CHANGE.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workDir holds everything a run writes: durable stores, span files.
const workDir = ".bench_build/perfbench"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	record   string
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks, for the report
	metrics           map[string]float64
	meta              map[string]any
	report            []string // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), meta: make(map[string]any)}
}

// fail records a failed check against one attempted statement.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// printf adds a report line.
func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// heldOutSeed is reserved for confirming a claimed gain on a seed no one
// tuned against (choosing-metrics §6.3). Do not use it while developing.
const heldOutSeed = 990001

type workloadFunc func(o *options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"cross_tenant":         func(o *options) (*outcome, error) { return runAnalytic(o, false) },
	"cross_tenant_sharded": func(o *options) (*outcome, error) { return runAnalytic(o, true) },
	"tenant_served":        runServed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "seed for data generation and statement order")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.record, "record", "", "append the run's record (metadata + result) to this JSON-lines file")
	fs.Parse(os.Args[1:])
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct := out.failed == 0
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if o.workload == "cross_tenant_sharded" {
			defs = append(append([]metricDef(nil), perLayer...), shardLayer...)
		}
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	meta := runMeta(&o)
	for k, v := range out.meta {
		meta[k] = v
	}

	for _, line := range out.report {
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Println("FAILED:", p)
	}
	for _, d := range defs {
		fmt.Printf("metric %-36s %14.6g %s\n", d.Name, out.metrics[d.Name], d.Unit)
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	if o.record != "" {
		if err := appendRecord(o.record, record{Meta: meta, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a result set: the run's metadata and its result.
type record struct {
	Meta   map[string]any `json:"meta"`
	Result result         `json:"result"`
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMeta is the metadata every result carries.
func runMeta(o *options) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"held_out_seed":  heldOutSeed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         buildRevision(),
		"host":           host,
		"started_at_utc": time.Now().UTC().Format(time.RFC3339),
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildRevision is the commit the Go toolchain stamped into the binary when
// it was built inside a git checkout ("unknown" otherwise), with "+dirty"
// when the tree had uncommitted changes.
func buildRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
