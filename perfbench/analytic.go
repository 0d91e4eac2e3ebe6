package main

// The cross_tenant and cross_tenant_sharded workloads: the paper's §6
// setup. One closed-loop session (C = 1, SET SCOPE = "IN ()" after every
// tenant granted it READ, so D′ is all tenants) runs sweeps of Q1–Q22 at
// canonical and o4 in a seeded order, against an unsharded instance or
// against mth.LoadMTSharded(data, 2) through shard.Conn.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/shard"
)

const (
	analyticSF      = 0.01
	analyticTenants = 10
	analyticShards  = 2
	setupRepeats    = 9 // set-ups per run; setup_s is their median
)

var analyticLevels = []optimizer.Level{optimizer.Canonical, optimizer.O4}

// aop is one analytic operation: query index (into mth.Queries) at a level,
// with the query's setup and teardown statements (Q15's view) included.
type aop struct {
	q     int
	level optimizer.Level
}

// opStream yields sweeps of every (query, level) pair, each sweep in its
// own seeded order.
type opStream struct {
	r    *rand.Rand
	nq   int
	cur  []aop
	next int
}

func newOpStream(seed int64, nq int) *opStream {
	return &opStream{r: rand.New(rand.NewSource(seed)), nq: nq}
}

// sweepDone reports whether the last operation popped ended a sweep.
func (s *opStream) sweepDone() bool { return s.next == len(s.cur) }

func (s *opStream) pop() aop {
	if s.next == len(s.cur) {
		s.cur = s.cur[:0]
		for q := 0; q < s.nq; q++ {
			for _, l := range analyticLevels {
				s.cur = append(s.cur, aop{q, l})
			}
		}
		s.r.Shuffle(len(s.cur), func(i, j int) { s.cur[i], s.cur[j] = s.cur[j], s.cur[i] })
		s.next = 0
	}
	s.next++
	return s.cur[s.next-1]
}

// sqlSession is what the workload needs of middleware.Conn and shard.Conn.
type sqlSession interface {
	Exec(sql string) (*engine.Result, error)
	SetOptLevel(optimizer.Level)
}

// analyticRig is one loaded instance and its C = 1 session.
type analyticRig struct {
	mw   *mth.Instance        // unsharded deployment, or nil
	sh   *mth.ShardedInstance // sharded deployment, or nil
	conn sqlSession
	mwc  *middleware.Conn // the unsharded session, for layer-by-layer calls
}

type setupTime struct{ gen, load, total time.Duration }

// buildAnalytic generates the data, loads it, grants C = 1 READ on every
// tenant and opens the session: the set-up setup_s times.
func buildAnalytic(cfg mth.Config, sharded bool, tr *tracer) (*analyticRig, setupTime, error) {
	var st setupTime
	t0 := time.Now()
	root := tr.begin("setup", 0, -1)
	var data *mth.Data
	tr.do("mth.generate", 0, root, func(int) { data = mth.Generate(cfg) })
	t1 := time.Now()
	rig := &analyticRig{}
	var err error
	tr.do("mth.load", 0, root, func(int) {
		if sharded {
			rig.sh, err = mth.LoadMTSharded(data, analyticShards)
		} else {
			rig.mw, err = mth.LoadMT(data)
		}
	})
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	tr.do("middleware.grant", 0, root, func(int) {
		if sharded {
			if err = rig.sh.GrantReadTo(1); err == nil {
				var c *shard.Conn
				c, err = rig.sh.Connect(1, "IN ()")
				rig.conn = c
			}
			return
		}
		if err = rig.mw.GrantReadTo(1); err == nil {
			rig.mwc, err = rig.mw.Connect(1, "IN ()")
			rig.conn = rig.mwc
		}
	})
	tr.end(root)
	if err != nil {
		return nil, st, err
	}
	st = setupTime{gen: t1.Sub(t0), load: t2.Sub(t1), total: time.Since(t0)}
	return rig, st, nil
}

// middlewares lists every middleware server of the deployment (shards and
// the gather replica when sharded).
func (r *analyticRig) middlewares() []*middleware.Server {
	if r.mw != nil {
		return []*middleware.Server{r.mw.Srv}
	}
	return append(append([]*middleware.Server{}, r.sh.Srv.Shards()...), r.sh.Srv.Replica())
}

// counters are the program's own counters summed over the deployment.
type counters struct {
	eng              engine.Stats
	rwHits, rwMisses int64
	shard            shard.StatsSnapshot
}

func (r *analyticRig) counters() counters {
	var c counters
	for _, mw := range r.middlewares() {
		addEngineStats(&c.eng, mw.DB().Stats.Snapshot())
		h, m := mw.RewriteCacheStats()
		c.rwHits += h
		c.rwMisses += m
	}
	if r.sh != nil {
		c.shard = r.sh.Srv.Stats().Snapshot()
	}
	return c
}

func addEngineStats(dst *engine.Stats, s engine.Stats) {
	dst.UDFCalls += s.UDFCalls
	dst.UDFCacheHits += s.UDFCacheHits
	dst.PlanCacheHits += s.PlanCacheHits
	dst.PlanCacheMisses += s.PlanCacheMisses
	dst.RowsStreamed += s.RowsStreamed
}

func (c counters) minus(b counters) counters {
	return counters{
		eng: engine.Stats{
			UDFCalls:        c.eng.UDFCalls - b.eng.UDFCalls,
			UDFCacheHits:    c.eng.UDFCacheHits - b.eng.UDFCacheHits,
			PlanCacheHits:   c.eng.PlanCacheHits - b.eng.PlanCacheHits,
			PlanCacheMisses: c.eng.PlanCacheMisses - b.eng.PlanCacheMisses,
			RowsStreamed:    c.eng.RowsStreamed - b.eng.RowsStreamed,
		},
		rwHits:   c.rwHits - b.rwHits,
		rwMisses: c.rwMisses - b.rwMisses,
		shard: shard.StatsSnapshot{
			RoutedSingle:   c.shard.RoutedSingle - b.shard.RoutedSingle,
			RoutedScatter:  c.shard.RoutedScatter - b.shard.RoutedScatter,
			RoutedFallback: c.shard.RoutedFallback - b.shard.RoutedFallback,
			PartialsPushed: c.shard.PartialsPushed - b.shard.PartialsPushed,
		},
	}
}

// route names the path a sharded statement took, from counter deltas.
func (c counters) route() string {
	switch {
	case c.shard.RoutedFallback > 0:
		return "fallback"
	case c.shard.PartialsPushed > 0:
		return "partial"
	case c.shard.RoutedScatter > 0:
		return "scatter"
	case c.shard.RoutedSingle > 0:
		return "single"
	}
	return "none"
}

// analyticChecker verifies every result. cross_tenant: the first result of
// each (query, level) must equal plain TPC-H (mth.Diff) and every repeat
// must equal the first exactly. cross_tenant_sharded: every result must
// equal the unsharded result exactly.
type analyticChecker struct {
	plain  []*engine.Result
	oracle map[aop]string
	first  map[aop]string
}

func (c *analyticChecker) check(op aop, res *engine.Result) string {
	key := exactKey(res)
	if c.oracle != nil {
		if key != c.oracle[op] {
			return "differs from the unsharded result: " + firstDiff(key, c.oracle[op])
		}
		return ""
	}
	if want, ok := c.first[op]; ok {
		if key != want {
			return "differs from its first result: " + firstDiff(key, want)
		}
		return ""
	}
	if d := mth.Diff(res, c.plain[op.q]); d != "" {
		return "differs from plain TPC-H: " + d
	}
	c.first[op] = key
	return ""
}

// checkOp checks one operation's outcome, recording a failure; it
// reports whether the operation succeeded.
func checkOp(out *outcome, c *analyticChecker, queries []mth.Query, op aop, res *engine.Result, err error, phase string) bool {
	if err == nil {
		if p := c.check(op, res); p != "" {
			err = errors.New(p)
		}
	}
	if err != nil {
		out.fail("%sQ%d %s: %v", phase, queries[op.q].ID, op.level, err)
		return false
	}
	return true
}

// exactKey renders a result the way the engine prints it: columns, then
// every row in order with each cell's kind and text.
func exactKey(res *engine.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// firstDiff describes the first line where two exact keys differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: got %q, want %q (%d vs %d lines)", i, a, b, len(g), len(w))
		}
	}
	return "equal"
}

// newAnalyticChecker builds the oracle from the same generated data.
func newAnalyticChecker(cfg mth.Config, sharded bool, queries []mth.Query) (*analyticChecker, map[aop]time.Duration, error) {
	data := mth.Generate(cfg)
	c := &analyticChecker{first: make(map[aop]string)}
	if !sharded {
		plain, err := mth.LoadPlain(data, cfg.Mode)
		if err != nil {
			return nil, nil, err
		}
		for _, q := range queries {
			res, err := mth.RunOnPlain(plain, q)
			if err != nil {
				return nil, nil, err
			}
			c.plain = append(c.plain, res)
		}
		return c, nil, nil
	}
	inst, err := mth.LoadMT(data)
	if err != nil {
		return nil, nil, err
	}
	if err := inst.GrantReadTo(1); err != nil {
		return nil, nil, err
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		return nil, nil, err
	}
	c.oracle = make(map[aop]string)
	warm := make(map[aop]time.Duration) // second (warm) execution time
	for qi, q := range queries {
		for _, l := range analyticLevels {
			conn.SetOptLevel(l)
			for rep := 0; rep < 2; rep++ {
				t := time.Now()
				res, err := mth.RunOnMT(conn, q)
				if err != nil {
					return nil, nil, err
				}
				warm[aop{qi, l}] = time.Since(t)
				c.oracle[aop{qi, l}] = exactKey(res)
			}
		}
	}
	return c, warm, nil
}

func analyticConfig(seed int64) mth.Config {
	return mth.Config{SF: analyticSF, Tenants: analyticTenants, Dist: mth.Uniform, Seed: seed, Mode: engine.ModePostgres}
}

func runAnalytic(o *options, sharded bool) (*outcome, error) {
	out := newOutcome()
	cfg := analyticConfig(o.seed)
	queries := mth.Queries(cfg.SF)

	checker, unshardedWarm, err := newAnalyticChecker(cfg, sharded, queries)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	runtime.GC()

	// Set up several times; keep the last instance.
	var rig *analyticRig
	var gens, loads, totals []float64
	for i := 0; i < setupRepeats; i++ {
		rig = nil
		runtime.GC()
		var st setupTime
		rig, st, err = buildAnalytic(cfg, sharded, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		gens, loads, totals = append(gens, sec(st.gen)), append(loads, sec(st.load)), append(totals, sec(st.total))
	}
	out.metrics["setup_s"] = median(totals)
	out.printf("set-ups s: %.4f", totals)
	out.metrics["mth.generate_s"] = median(gens)
	out.metrics["mth.load_s"] = median(loads)
	out.meta["rows"] = rowCounts(rig.data())
	shards := 1
	if sharded {
		shards = analyticShards
	}
	out.meta["config"] = fmt.Sprintf("sf=%g T=%d dist=%s mode=postgres C=1 scope=IN () levels=canonical,o4 shards=%d",
		cfg.SF, cfg.Tenants, cfg.Dist, shards)
	out.meta["loop"] = "closed, 1 session"

	measure := time.Duration(o.seconds * float64(time.Second))

	// Warm-up sweep: fills the statement, plan and UDF caches (a cost paid
	// once per process, not per statement) and checks every (query, level)
	// once; not timed.
	stream := newOpStream(o.seed, len(queries))
	warm := make([]aop, 2*len(queries))
	for i := range warm {
		warm[i] = stream.pop()
	}
	for _, op := range warm {
		rig.conn.SetOptLevel(op.level)
		res, err := mth.RunOnMT(rig.conn, queries[op.q])
		checkOp(out, checker, queries, op, res, err, "")
	}

	// Untraced measured run: whole sweeps, so every (query, level) weighs
	// the same in the percentiles.
	runtime.GC()
	var ops []aop
	var lats, lags []float64
	var busy time.Duration
	var resultRows int64
	before := rig.counters()
	ph := beginPhase()
	prevEnd := time.Now()
	for time.Since(ph.start) < measure || !stream.sweepDone() {
		op := stream.pop()
		rig.conn.SetOptLevel(op.level)
		t := time.Now()
		res, err := mth.RunOnMT(rig.conn, queries[op.q])
		lat := time.Since(t)
		lags = append(lags, ms(t.Sub(prevEnd)))
		busy += lat
		ops = append(ops, op)
		lats = append(lats, ms(lat))
		if checkOp(out, checker, queries, op, res, err, "") {
			resultRows += int64(len(res.Rows))
		}
		prevEnd = time.Now()
	}
	cost := ph.end()
	delta := rig.counters().minus(before)
	out.attempted = len(warm) + len(ops)
	n := float64(len(ops))

	out.metrics["qps"] = n / sec(busy)
	out.metrics["read_p50_ms"] = pairMedian(ops, lats)
	p99, beyond, ok := tail(lats, 0.99)
	out.metrics["read_p99_ms"] = p99
	out.metrics["alloc_kb_per_op"] = float64(cost.allocBytes) / 1024 / n
	out.metrics["read_samples"] = n
	out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	out.metrics["runtime.gc_cpu_fraction"] = cost.gcCPUFraction
	lag99, _ := percentile(lags, 0.99)
	out.metrics["loadgen.lag_ms_p99"] = lag99
	lateLag, _ := percentile(lags[len(lags)/2:], 0.99)
	out.metrics["loadgen.lag_ms_p99_late"] = lateLag
	out.printf("reads: %d over %.1fs (%d beyond p99; p99 supported by ≥%d: %v)", len(ops), sec(cost.wall), beyond, minBeyond, ok)

	rw := float64(delta.rwHits + delta.rwMisses)
	out.metrics["middleware.rewrite_cache_hit_ratio"] = ratio(float64(delta.rwHits), rw)
	out.metrics["middleware.rewrite_cache_lookups"] = rw
	pl := float64(delta.eng.PlanCacheHits + delta.eng.PlanCacheMisses)
	out.metrics["engine.plan_cache_hit_ratio"] = ratio(float64(delta.eng.PlanCacheHits), pl)
	out.metrics["engine.plan_cache_lookups"] = pl
	out.metrics["engine.udf_calls_per_op"] = float64(delta.eng.UDFCalls) / n
	out.metrics["engine.udf_cache_hit_ratio"] = ratio(float64(delta.eng.UDFCacheHits), float64(delta.eng.UDFCalls+delta.eng.UDFCacheHits))
	out.metrics["engine.rows_streamed_per_result_row"] = ratio(float64(delta.eng.RowsStreamed), float64(resultRows))
	out.metrics["shard.scatter_per_op"] = float64(delta.shard.RoutedScatter) / n
	out.metrics["shard.partials_per_op"] = float64(delta.shard.PartialsPushed) / n
	out.metrics["shard.fallback_per_op"] = float64(delta.shard.RoutedFallback) / n
	out.metrics["peak_rss_mb"] = peakRSSMB()

	if !o.trace {
		return out, nil
	}
	rig = nil
	runtime.GC()
	if err := tracedAnalytic(o, out, cfg, sharded, queries, warm, ops, sum(lats), checker, unshardedWarm); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return out, nil
}

// data returns the generated data the rig was loaded from.
func (r *analyticRig) data() *mth.Data {
	if r.mw != nil {
		return r.mw.Data
	}
	return r.sh.Data
}

// pairMedian is the median latency of the analytic workload: the
// Harrell–Davis median (hdMedian) over the (query, level) pairs of each
// pair's median latency. Every pair runs once a sweep, so this is the
// median of the sweep's latency distribution; taking each pair's median
// first removes its run-to-run noise, and the Harrell–Davis weights make
// the result move smoothly when the middle pairs trade places — the
// sample median of 44 values jumps by the gap between them, and the
// plain median of all samples jumps between whole query clusters.
func pairMedian(ops []aop, lats []float64) float64 {
	by := make(map[aop][]float64)
	for i, op := range ops {
		by[op] = append(by[op], lats[i])
	}
	meds := make([]float64, 0, len(by))
	for _, v := range by {
		meds = append(meds, median(v))
	}
	return hdMedian(meds)
}

func rowCounts(d *mth.Data) map[string]int {
	return map[string]int{
		"region": len(d.Region), "nation": len(d.Nation), "supplier": len(d.Supplier),
		"part": len(d.Part), "partsupp": len(d.Partsupp), "customer": len(d.Customer),
		"orders": len(d.Orders), "lineitem": len(d.Lineitem),
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// perQuery accumulates the traced run's per-(query, level) figures.
type perQuery struct {
	exec   []float64 // statement self time in the engine, ms
	udf    []float64
	allocs []float64
	route  string
}

// tracedAnalytic replays the untraced run's operation sequence on a fresh
// instance with a span around every call into a layer.
func tracedAnalytic(o *options, out *outcome, cfg mth.Config, sharded bool, queries []mth.Query,
	warm, ops []aop, untracedMS float64, checker *analyticChecker, unshardedWarm map[aop]time.Duration) error {
	tr := newTracer()
	rig, _, err := buildAnalytic(cfg, sharded, tr)
	if err != nil {
		return err
	}
	mirror := newStmtCacheMirror()
	for _, op := range warm {
		res, _, err := tracedOp(nil, 0, rig, mirror, queries[op.q], op.level)
		checkOp(out, checker, queries, op, res, err, "traced warm-up ")
	}
	per := make(map[aop]*perQuery)
	execName := "engine.exec"
	if sharded {
		execName = "shard.exec"
	}
	routeMS := map[string][]float64{}
	var roots []int
	for i, op := range ops {
		req := int64(i + 1)
		pq := per[op]
		if pq == nil {
			pq = &perQuery{}
			per[op] = pq
		}
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := rig.counters()
		res, root, err := tracedOp(tr, req, rig, mirror, queries[op.q], op.level)
		c := rig.counters().minus(c0)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		roots = append(roots, root)
		if sharded {
			// The route and its latency are measured whether or not the
			// result passes its check; a failure is counted below.
			pq.route = c.route()
			d := float64(tr.dur(root)) / 1e6
			routeMS[pq.route] = append(routeMS[pq.route], d)
		}
		out.attempted++
		if !checkOp(out, checker, queries, op, res, err, "traced ") {
			continue
		}
		pq.udf = append(pq.udf, float64(c.eng.UDFCalls))
		pq.allocs = append(pq.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	self := selfTimes(tr.spans)
	byName := map[string][]float64{}
	var tracedMS, execMS float64
	for i, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i])/1e3)
		if s.Name == execName {
			execMS += float64(self[i]) / 1e6
			pq := per[ops[s.Req-1]]
			pq.exec = append(pq.exec, float64(self[i])/1e6)
		}
	}
	for _, r := range roots {
		tracedMS += float64(tr.dur(r)) / 1e6
	}
	layerMetrics(out, byName)
	execs := byName[execName]
	for i := range execs {
		execs[i] /= 1e3 // µs → ms
	}
	out.metrics["engine.exec_ms_p50"] = median(execs)
	out.metrics["engine.exec_ms_p99"], _ = percentile(execs, 0.99)
	out.metrics["engine.exec_share"] = ratio(execMS, tracedMS)
	out.metrics["trace.overhead_share"] = ratio(tracedMS-untracedMS, untracedMS)
	out.metrics["shard.scatter_ms_p50"] = median(routeMS["scatter"])
	out.metrics["shard.partial_ms_p50"] = median(routeMS["partial"])
	out.metrics["shard.fallback_ms_p50"] = median(routeMS["fallback"])
	out.printf("traced: %d ops, %.1f ms traced vs %.1f ms untraced (overhead %.1f%%)",
		len(ops), tracedMS, untracedMS, 100*ratio(tracedMS-untracedMS, untracedMS))

	// Per-(query, level) table.
	keys := make([]aop, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return keys[i].level < keys[j].level
	})
	out.printf("per-query (traced): query level runs exec_ms_p50 udf_calls_p50 allocs_p50 route")
	for _, k := range keys {
		pq := per[k]
		out.printf("  Q%02d %-9s %3d %10.3f %10.0f %10.0f %s", queries[k.q].ID, k.level, len(pq.exec),
			median(pq.exec), median(pq.udf), median(pq.allocs), pq.route)
	}
	if sharded {
		q22 := queryIndex(queries, 22)
		for _, l := range analyticLevels {
			if pq := per[aop{q22, l}]; pq != nil {
				out.printf("finding: Q22 %s sharded (route %s) %.2f ms vs unsharded %.2f ms (warm, one run): the repartition fallback costs %.1fx",
					l, pq.route, median(pq.exec), ms(unshardedWarm[aop{q22, l}]), ratio(median(pq.exec), ms(unshardedWarm[aop{q22, l}])))
			}
		}
	} else {
		findings(out, tr, rig, mirror, queries)
	}
	return writeSpans(spanPath(o), tr.spans)
}

// tracedOp runs one analytic operation with spans and returns the
// query's result and the operation's root span.
func tracedOp(tr *tracer, req int64, rig *analyticRig, m *stmtCacheMirror, q mth.Query, level optimizer.Level) (*engine.Result, int, error) {
	root := tr.begin("op", req, -1)
	defer tr.end(root)
	rig.conn.SetOptLevel(level)
	ddl := func(stmts []string) error {
		for _, s := range stmts {
			var err error
			tr.do("middleware.ddl", req, root, func(int) { _, err = rig.conn.Exec(s) })
			if err != nil {
				return err
			}
			m.rewritten = map[string]string{} // DDL bumps the schema generation
		}
		return nil
	}
	if err := ddl(q.Setup); err != nil {
		return nil, root, err
	}
	var res *engine.Result
	var err error
	if rig.sh != nil {
		tr.do("shard.exec", req, root, func(int) { res, err = rig.conn.Exec(q.SQL) })
	} else {
		res, err = layeredQuery(tr, req, root, m, rig.mwc, rig.mw.Srv.DB(), level, q.SQL)
	}
	if terr := ddl(q.Teardown); terr != nil && err == nil {
		err = terr
	}
	return res, root, err
}

func queryIndex(queries []mth.Query, id int) int {
	for i, q := range queries {
		if q.ID == id {
			return i
		}
	}
	return -1
}

// findings measures the anomalies the benchmark is asked to attribute, on
// the traced unsharded instance: o4 against o3 on Q7 and Q18, and where
// Q1 canonical's allocations come from (front end or engine, serial or
// parallel execution).
func findings(out *outcome, tr *tracer, rig *analyticRig, m *stmtCacheMirror, queries []mth.Query) {
	const reps = 3
	type probe struct {
		execMS, frontMS, udf, allocs []float64
	}
	run := func(qi int, level optimizer.Level) probe {
		var p probe
		for rep := 0; rep <= reps; rep++ {
			var ms0, ms1 runtime.MemStats
			c0 := rig.counters()
			first := len(tr.spans)
			runtime.ReadMemStats(&ms0)
			_, root, err := tracedOp(tr, 0, rig, m, queries[qi], level)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				out.fail("finding probe Q%d %s: %v", queries[qi].ID, level, err)
				return p
			}
			if rep == 0 {
				continue // warm-up
			}
			c := rig.counters().minus(c0)
			self := selfTimes(tr.spans)[first:]
			var exec float64
			for i, s := range tr.spans[first:] {
				if s.Name == "engine.exec" {
					exec += float64(self[i]) / 1e6
				}
			}
			p.execMS = append(p.execMS, exec)
			p.frontMS = append(p.frontMS, float64(tr.dur(root))/1e6-exec)
			p.udf = append(p.udf, float64(c.eng.UDFCalls))
			p.allocs = append(p.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		return p
	}
	for _, id := range []int{7, 18} {
		qi := queryIndex(queries, id)
		o3, o4 := run(qi, optimizer.O3), run(qi, optimizer.O4)
		out.printf("finding: Q%d o4 %.1f ms vs o3 %.1f ms in the engine (front end %.2f vs %.2f ms; UDF calls %.0f vs %.0f; allocs %.0f vs %.0f): o4 is %.2fx o3",
			id, median(o4.execMS), median(o3.execMS), median(o4.frontMS), median(o3.frontMS),
			median(o4.udf), median(o3.udf), median(o4.allocs), median(o3.allocs),
			ratio(median(o4.execMS), median(o3.execMS)))
	}
	q1 := queryIndex(queries, 1)
	db := rig.mw.Srv.DB()
	par := run(q1, optimizer.Canonical)
	db.SetParallelism(1)
	serial := run(q1, optimizer.Canonical)
	db.SetParallelism(0)
	out.printf("finding: Q1 canonical allocs/op %.0f at parallelism %d vs %.0f serial (%.0f from parallel execution); exec %.1f vs %.1f ms",
		median(par.allocs), runtime.GOMAXPROCS(0), median(serial.allocs), median(par.allocs)-median(serial.allocs),
		median(par.execMS), median(serial.execMS))
}

func spanPath(o *options) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", workDir, o.workload, o.seed)
}
