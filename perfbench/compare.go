package main

// The comparator: `perfbench compare BASE.jsonl CHANGE.jsonl` reads two
// result sets (JSON lines written with --record) and, for every
// (workload, end-to-end metric), prints each side's median and quartiles,
// the change in the median with its base, and a verdict by the
// choosing-metrics rules. It exits 1 when any verdict is "worse".

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpecPath is the benchmark definition, read from the repository
// root the comparator runs in.
const benchSpecPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the comparator's judgement of one (workload, metric).
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// winShare is the share of pairs a change must win to count as improved.
const winShare = 0.9

// judge compares the runs of a change against the runs of its base, paired
// in order. lowerBetter gives the metric's direction and bound the share
// of the base median by which it may worsen.
//
//   - improved: the change wins ≥ 9/10 of the pairs and the medians differ,
//     in the change's favour, by more than the base's interquartile range;
//   - worse: the base's own spread (IQR ÷ median) is within the bound and
//     the change's median is worse than the base's by more than the bound;
//   - unchanged: the base's spread is within the bound and the change's
//     median is within the bound — or every run of the change reads better
//     than every run of the base;
//   - unresolved: the base's spread is wider than the bound.
func judge(base, change []float64, lowerBetter bool, bound float64) verdict {
	if len(base) == 0 || len(change) == 0 {
		return unresolved
	}
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	pairs := min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	need := int(math.Ceil(winShare * float64(pairs)))
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	iqr := bq3 - bq1
	worsening := (cmed - bmed) / math.Abs(bmed) // > 0: change is worse
	if !lowerBetter {
		worsening = -worsening
	}
	switch {
	case wins >= need && math.Abs(cmed-bmed) > iqr && better(cmed, bmed):
		return improved
	case iqr/math.Abs(bmed) <= bound && worsening > bound:
		return worse
	case iqr/math.Abs(bmed) <= bound, allBetter(change, base, better):
		return unchanged
	}
	return unresolved
}

func allBetter(change, base []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// readResultSet reads records grouped by workload, in file order.
func readResultSet(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		w, _ := r.Meta["workload"].(string)
		if trace, _ := r.Meta["trace"].(bool); trace {
			continue // traced runs carry per-layer metrics only
		}
		out[w] = append(out[w], r)
	}
	return out, sc.Err()
}

func metricSeries(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	raw, err := os.ReadFile(benchSpecPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", benchSpecPath, err)
		return 2
	}
	base, err := readResultSet(args[0])
	if err == nil {
		var change map[string][]record
		change, err = readResultSet(args[1])
		if err == nil {
			return compareSets(w, spec, base, change)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func compareSets(w io.Writer, spec benchSpec, base, change map[string][]record) int {
	var names []string
	for n := range base {
		if _, ok := change[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(w, "%-22s %-16s %5s %32s %32s %18s  %s\n", "workload", "metric", "runs",
		"base q1 / median / q3", "change q1 / median / q3", "delta (of base)", "verdict")
	for _, n := range names {
		for _, m := range spec.EndToEnd {
			b, c := metricSeries(base[n], m.Name), metricSeries(change[n], m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := judge(b, c, m.Better == "lower", m.Bound)
			if v == worse {
				status = 1
			}
			bq1, bmed, bq3 := quartiles(b)
			cq1, cmed, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-22s %-16s %2d/%-2d %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+9.4g (%+6.1f%%)  %s\n",
				n, m.Name, len(b), len(c), bq1, bmed, bq3, cq1, cmed, cq3, cmed-bmed, 100*(cmed-bmed)/math.Abs(bmed), v)
		}
	}
	return status
}
