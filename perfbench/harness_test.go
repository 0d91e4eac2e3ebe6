package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{1, 0.99, 1, 0},
		{7, 0.5, 4, 3},
	} {
		v, beyond := percentile(seq(c.n), c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %g) = %g, %d beyond; want %g, %d", c.n, c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("empty sample: %g, %d", v, b)
	}
}

// p99 counts as measured only with at least ten samples beyond it, i.e.
// from 1,000 samples on.
func TestTailTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {5000, true}, {100, false}} {
		if _, beyond, ok := tail(seq(c.n), 0.99); ok != c.ok || ok != (beyond >= minBeyond) {
			t.Errorf("n=%d: ok=%v beyond=%d, want ok=%v", c.n, ok, beyond, c.ok)
		}
	}
	// Unsorted input is sorted, not trusted, and left as it was.
	s := []float64{5, 1, 4, 2, 3}
	if v, _ := percentile(s, 0.5); v != 3 || s[0] != 5 {
		t.Errorf("median of shuffled 1..5 = %g, input now %v", v, s)
	}
}

// quartiles must match Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{seq(10), 2.75, 5.5, 8.25},
		// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
		{seq(5), 1.5, 3, 4.5},
		// statistics.quantiles([10, 1, 7, 3], n=4) == [1.5, 5.0, 9.25]
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPoissonScheduleSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, offset %d differs", i)
		}
		if a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("offset %d = %v out of order or range", i, a[i])
		}
	}
	// 10,000 expected arrivals; a Poisson count is within ±4σ (400).
	if n := len(a); n < 9600 || n > 10400 {
		t.Errorf("%d arrivals at 1000/s over 10s", n)
	}
}

// fakeClock is a virtual clock: sleeping advances it, and so does the
// work each request does.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) work(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeSender(c *fakeClock) *sender   { return &sender{start: c.t, now: c.now, sleep: c.sleep} }

func TestOpenLoopDueTimeAndLag(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	due := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond, 50 * time.Millisecond}
	work := []time.Duration{5 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	got := newFakeSender(clk).run(due, nil, func(i int) { clk.work(work[i]) })
	want := []timing{
		{Due: 10 * time.Millisecond, Sent: 10 * time.Millisecond, Done: 15 * time.Millisecond},
		// The 5ms stall delays the next two requests: they are sent late
		// and their latency counts from when they were due.
		{Due: 11 * time.Millisecond, Sent: 15 * time.Millisecond, Done: 16 * time.Millisecond},
		{Due: 12 * time.Millisecond, Sent: 16 * time.Millisecond, Done: 17 * time.Millisecond},
		// Caught up: the generator sleeps until due.
		{Due: 50 * time.Millisecond, Sent: 50 * time.Millisecond, Done: 51 * time.Millisecond},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if l := got[1].Latency(); l != 5*time.Millisecond {
		t.Errorf("latency from due = %v, want 5ms", l)
	}
	if l := got[1].Lag(); l != 4*time.Millisecond {
		t.Errorf("lag = %v, want 4ms", l)
	}
	if s := got[1].Service(); s != time.Millisecond {
		t.Errorf("service = %v, want 1ms", s)
	}
}

// The served stream: the open-loop requests, one per due time, then the
// closed-loop ones; each session only touches its own tenants, and every
// DELETE removes an order the same session inserted earlier for that
// tenant, so replaying a session's requests in order rebuilds its state.
func TestServedStreamPhasesAndOwnership(t *testing.T) {
	data := mth.Generate(mth.Config{SF: 0.001, Tenants: servedTenants, Dist: mth.Zipf, Seed: 5, Mode: engine.ModePostgres})
	const closed = 300
	st := genServed(5, 200, 2*time.Second, closed, data)
	again := genServed(5, 200, 2*time.Second, closed, data)
	total := 0
	for s := range st.reqs {
		if len(st.reqs[s]) != st.open(s)+closed {
			t.Fatalf("session %d: %d requests, want %d open + %d closed", s, len(st.reqs[s]), st.open(s), closed)
		}
		if len(again.reqs[s]) != len(st.reqs[s]) || again.reqs[s][len(st.reqs[s])-1] != st.reqs[s][len(st.reqs[s])-1] {
			t.Fatalf("session %d: the same seed drew another stream", s)
		}
		total += st.open(s)
		owned := map[int64]bool{}
		for _, tn := range sessionTenants(s) {
			owned[tn] = true
		}
		inserted := map[int64]int64{} // order key → tenant
		for i, rq := range st.reqs[s] {
			if !owned[rq.tenant] {
				t.Fatalf("session %d request %d: tenant %d is another session's", s, i, rq.tenant)
			}
			switch rq.kind {
			case writeInsert:
				inserted[rq.order] = rq.tenant
			case writeDelete:
				if tn, ok := inserted[rq.key]; !ok || tn != rq.tenant {
					t.Fatalf("session %d request %d: deletes order %d it did not insert for tenant %d", s, i, rq.key, rq.tenant)
				}
				delete(inserted, rq.key)
			}
		}
	}
	if total < 300 || total > 500 {
		t.Errorf("%d open-loop requests at 200/s over 2s", total)
	}
}

// Set-up in before() delays the request, showing as lag, not service.
func TestOpenLoopBeforeHookCountsAsLag(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	got := newFakeSender(clk).run([]time.Duration{time.Millisecond},
		func(int) { clk.work(3 * time.Millisecond) },
		func(int) { clk.work(time.Millisecond) })
	if got[0].Lag() != 3*time.Millisecond || got[0].Service() != time.Millisecond || got[0].Latency() != 4*time.Millisecond {
		t.Errorf("timing %+v", got[0])
	}
}

func TestPreciseSleep(t *testing.T) {
	for _, d := range []time.Duration{0, 30 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		preciseSleep(d)
		if el := time.Since(start); el < d {
			t.Errorf("preciseSleep(%v) returned after %v", d, el)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: covered once
		{Name: "c", Parent: 2, Start: 25, End: 35},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // clipped to its parent
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 1, -1, func(id int) { ran = id == -1 })
	if !ran {
		t.Error("nil tracer must still run the call")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		want        verdict
	}{
		{"same runs", base, true, unchanged},
		{"20% faster, every pair", scale(base, 0.8), true, improved},
		{"20% slower, every pair, bound 10%", scale(base, 1.2), true, worse},
		{"3% slower: resolved but within the bound", scale(base, 1.03), true, unchanged},
		{"higher is better: 20% more", scale(base, 1.2), false, improved},
		{"higher is better: 20% less", scale(base, 0.8), false, worse},
		// Half the pairs won, half lost, median 15% worse than a steady
		// base: worse than the bound, whatever the pairs say.
		{"noisy", []float64{80, 150, 80, 150, 80, 150, 80, 150, 80, 150}, true, worse},
		// Only 8/10 pairs lost, median 30% worse.
		{"8/10 lost, 30% worse", []float64{130, 131, 128.7, 130, 132.6, 127.4, 130, 131.3, 90, 90}, true, worse},
	} {
		if got := judge(base, c.change, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A base wider than the bound cannot show "unchanged"...
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := judge(wide, wide, true, 0.1); got != unresolved {
		t.Errorf("wide base against itself: %s, want unresolved", got)
	}
	// ...unless every change run beats every base run.
	if got := judge(wide, scale(wide, 0.3), true, 0.1); got != improved {
		t.Errorf("every run better: %s, want improved", got)
	}
}

// The metric table the program reports must be the one BENCHMARK.json
// declares, name for name and unit for unit.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// For whole a and b, I_x(a, b) = P(Binomial(a+b-1, x) ≥ a).
	binomTail := func(x float64, a, b int) float64 {
		n := a + b - 1
		var p float64
		for j := a; j <= n; j++ {
			lc, _ := math.Lgamma(float64(n + 1))
			l1, _ := math.Lgamma(float64(j + 1))
			l2, _ := math.Lgamma(float64(n - j + 1))
			p += math.Exp(lc - l1 - l2 + float64(j)*math.Log(x) + float64(n-j)*math.Log(1-x))
		}
		return p
	}
	for _, c := range []struct {
		x    float64
		a, b int
	}{
		{0.3, 1, 1}, {0.3, 2, 1}, {0.3, 1, 2}, {0.7, 3, 4},
		{0.2, 23, 23}, {0.45, 23, 23}, {0.55, 23, 22}, {0.9, 5, 30},
	} {
		got, want := regIncBeta(c.x, float64(c.a), float64(c.b)), binomTail(c.x, c.a, c.b)
		if math.Abs(got-want) > 1e-9*math.Max(want, 1e-6) && math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%g(%d,%d) = %.12g, want %.12g", c.x, c.a, c.b, got, want)
		}
	}
	if got := regIncBeta(0.5, 22.5, 22.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("I_0.5(22.5,22.5) = %.12g, want 0.5 by symmetry", got)
	}
}

func TestHDMedian(t *testing.T) {
	// Symmetric values: the estimate is their centre.
	if got := hdMedian([]float64{4, 1, 3, 2, 5, 6}); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("hdMedian(1..6) = %g, want 3.5", got)
	}
	// n = 3: Beta(2, 2) has CDF 3x²-2x³, so the weights are 7/27, 13/27
	// and 7/27.
	if got := hdMedian([]float64{27, 0, 0}); math.Abs(got-7) > 1e-9 {
		t.Errorf("hdMedian(0, 0, 27) = %g, want 7", got)
	}
	// Weights sum to one.
	if got := hdMedian([]float64{7, 7, 7, 7, 7}); math.Abs(got-7) > 1e-12 {
		t.Errorf("hdMedian of a constant = %g, want 7", got)
	}
	// Two middle values trading places move it by little; the sample
	// median jumps by their gap.
	base := seq(44)
	swapped := seq(44)
	swapped[21], swapped[22] = 25, 21 // 22 → 25 and 23 → 21
	d := hdMedian(swapped) - hdMedian(base)
	if math.Abs(d) > 0.5 {
		t.Errorf("swap near the middle moved the estimate by %g", d)
	}
}

func TestPairMedianTakesEachPairsMedianFirst(t *testing.T) {
	// Four pairs, three sweeps each; an outlier in one pair's runs does
	// not move its median, so the result equals that of the pair medians.
	ops := []aop{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 0}, {1, 0}, {2, 0}, {3, 0}}
	lats := []float64{1, 2, 10, 20, 1, 2, 10, 20, 1, 900, 10, 20}
	if got, want := pairMedian(ops, lats), hdMedian([]float64{1, 2, 10, 20}); got != want {
		t.Errorf("pairMedian = %g, want %g", got, want)
	}
}
