package main

// The tenant_served workload: a durable server.Store (group-commit fsync
// per acknowledged write, a snapshot every 1024 records) served on TCP
// loopback, driven by two client sessions: first over an open loop of
// seeded Poisson arrivals (latency), then closed-loop, each session sending
// its next statement as soon as the last one returns (throughput). Each
// session owns half the tenants and cycles through them with the default
// scope {C}, so every row is written by one session only and the final
// state is a pure function of the statement stream.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/server"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wal"
	"mtbase/internal/wire"
)

const (
	servedSF       = 0.01
	servedTenants  = 10
	servedSessions = 2
	servedRate     = 250.0           // offered statements/s, open loop: an eighth of the 2-session capacity
	closedShare    = 3               // the closed-loop phase takes 1/closedShare of the measured time
	servedWarm     = 2 * time.Second // untimed open-loop warm-up before the measured open loop
	closedCap      = 10000           // statements/s a session cannot exceed closed-loop; sizes the closed stream
	snapEvery      = 1024            // records between snapshots: a few a run (mtserve defaults to 4096)
	tenantBlock    = 256             // statements a session runs for one tenant before moving to its next
	sampleEvery    = 16              // about one read in this many is checked against the oracle
	orderKeyBase   = 50_000_000
)

type reqKind uint8

const (
	readPoint reqKind = iota
	readRange
	writeUpdate
	writeInsert
	writeDelete
)

const (
	pointSQL  = "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = ?"
	rangeSQL  = "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders WHERE o_custkey = ? ORDER BY o_orderkey"
	updateSQL = "UPDATE customer SET c_acctbal = ? WHERE c_custkey = ?"
	insertSQL = "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, " +
		"o_orderpriority, o_clerk, o_shippriority, o_comment) " +
		"VALUES (?, ?, 'O', ?, DATE '1998-07-01', '3-MEDIUM', 'Clerk#000000001', 0, 'perfbench')"
	deleteSQL = "DELETE FROM orders WHERE o_orderkey = ?"
)

// request is one statement of the served stream.
type request struct {
	tenant   int64
	kind     reqKind
	prepared bool // reads: prepared with binds; otherwise literals are inlined
	sample   bool // reads: checked against the in-process oracle
	key      int64
	order    int64   // writeInsert: the new order key
	val      float64 // writeUpdate: new balance; writeInsert: total price
}

func (r request) kindName() string {
	switch r.kind {
	case readPoint, readRange:
		name := map[reqKind]string{readPoint: "point", readRange: "range"}[r.kind]
		if r.prepared {
			return name + "/bind"
		}
		return name + "/inline"
	case writeUpdate:
		return "update"
	case writeInsert:
		return "insert"
	}
	return "delete"
}

func (r request) isRead() bool { return r.kind == readPoint || r.kind == readRange }

// statement returns the text and bind arguments the request sends.
func (r request) statement() (string, []any) {
	switch r.kind {
	case readPoint, readRange:
		sql := pointSQL
		if r.kind == readRange {
			sql = rangeSQL
		}
		if r.prepared {
			return sql, []any{r.key}
		}
		return strings.Replace(sql, "?", strconv.FormatInt(r.key, 10), 1), nil
	case writeUpdate:
		return updateSQL, []any{r.val, r.key}
	case writeInsert:
		return insertSQL, []any{r.order, r.key, r.val}
	default:
		return deleteSQL, []any{r.key}
	}
}

// servedStream is the seeded statement stream of one run, per session:
// the open-loop requests, one per due time, then the closed-loop ones.
type servedStream struct {
	due  [servedSessions][]time.Duration
	reqs [servedSessions][]request
}

// open is the number of session s's requests that belong to the open loop.
func (st *servedStream) open(s int) int { return len(st.due[s]) }

// sessionTenants are the tenants session s cycles through.
func sessionTenants(s int) []int64 {
	var out []int64
	for t := int64(s + 1); t <= servedTenants; t += servedSessions {
		out = append(out, t)
	}
	return out
}

// genServed draws the stream: Poisson arrivals over open split between the
// sessions at random, then closed statements per session; per statement
// 60% customer point reads, 20% order range reads, 20% writes (half
// balance updates, half an order insert or the delete of the session's
// previous insert for that tenant, so table sizes stay flat). Half the
// reads bind their key, half inline it.
func genServed(seed int64, rate float64, open time.Duration, closed int, data *mth.Data) *servedStream {
	custs := make(map[int64][]int64)
	for i, row := range data.Customer {
		t := data.CustTenant[i]
		custs[t] = append(custs[t], row[0].I)
	}
	r := rand.New(rand.NewSource(seed))
	st := &servedStream{}
	pending := make(map[int64]int64) // tenant → order key inserted and not yet deleted
	var nextOrder [servedSessions]int64
	draw := func(s int) {
		j := len(st.reqs[s])
		tenants := sessionTenants(s)
		t := tenants[(j/tenantBlock)%len(tenants)]
		cs := custs[t]
		rq := request{tenant: t, key: cs[r.Intn(len(cs))]}
		switch p := r.Float64(); {
		case p < 0.6, p < 0.8:
			rq.kind = readPoint
			if p >= 0.6 {
				rq.kind = readRange
			}
			rq.prepared = r.Intn(2) == 0
			rq.sample = r.Intn(sampleEvery) == 0
		case r.Intn(2) == 0:
			rq.kind = writeUpdate
			rq.val = math.Round((r.Float64()*10999.98-999.99)*100) / 100
		case pending[t] != 0:
			rq.kind, rq.key = writeDelete, pending[t]
			delete(pending, t)
		default:
			nextOrder[s]++
			rq.kind = writeInsert
			rq.order = orderKeyBase + int64(s)*10_000_000 + nextOrder[s]
			rq.val = math.Round(r.Float64()*50000000) / 100
			pending[t] = rq.order
		}
		st.reqs[s] = append(st.reqs[s], rq)
	}
	for _, due := range poissonSchedule(r, rate, open) {
		s := r.Intn(servedSessions)
		st.due[s] = append(st.due[s], due)
		draw(s)
	}
	for s := range st.reqs {
		for range closed {
			draw(s)
		}
	}
	return st
}

// reply is what the served run observed for one request.
type reply struct {
	err   string
	key   string // exactKey of a sampled read's result
	acked bool   // a write the server acknowledged
}

// servedRig is a durable store served on loopback.
type servedRig struct {
	dir   string
	store *server.Store
	srv   *server.Server
	addr  string
}

func servedManifest(seed int64) server.Manifest {
	return server.Manifest{SF: servedSF, Tenants: servedTenants, Dist: string(mth.Zipf), Seed: seed,
		Mode: "postgres", GrantAll: true}
}

// openServed opens a fresh store in a new directory under root and serves
// it on a loopback port.
func openServed(root string, man server.Manifest) (*servedRig, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	st, err := server.OpenStore(dir, man, snapEvery)
	if err != nil {
		return nil, err
	}
	srv := server.New(st.Instance().Srv, st, server.Config{Limits: server.Limits{MaxStmtWait: time.Second}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	return &servedRig{dir: dir, store: st, srv: srv, addr: addr.String()}, nil
}

func (r *servedRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx) // also closes the store
}

// servedWorker is one client session.
type servedWorker struct {
	addr    string
	reqs    []request
	replies []reply
	tenant  int64
	conn    *client.Conn
	point   *client.Stmt
	rng     *client.Stmt
	dialErr error
	rows    int64 // result rows read
}

// connect (re)binds the session to tenant: a session is bound to one
// tenant at its handshake. A failed dial leaves the session closed, and
// its statements fail until the next tenant's dial.
func (w *servedWorker) connect(tenant int64) {
	w.close()
	w.tenant, w.dialErr = tenant, nil
	c, err := client.Dial(w.addr, tenant, "")
	if err == nil {
		w.point, err = c.Prepare(pointSQL)
	}
	if err == nil {
		w.rng, err = c.Prepare(rangeSQL)
	}
	if err != nil {
		if c != nil {
			c.Close()
		}
		w.dialErr = err
		return
	}
	w.conn = c
}

func (w *servedWorker) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// switchTenant redials when request i is for another tenant than the
// session's.
func (w *servedWorker) switchTenant(i int) {
	if t := w.reqs[i].tenant; t != w.tenant {
		w.connect(t)
	}
}

func (w *servedWorker) exec(i int) {
	rq := w.reqs[i]
	rep := &w.replies[i]
	if w.conn == nil {
		rep.err = fmt.Sprintf("connect tenant %d: %v", rq.tenant, w.dialErr)
		return
	}
	sql, args := rq.statement()
	var res *engine.Result
	var err error
	switch {
	case rq.isRead() && rq.prepared && rq.kind == readPoint:
		res, err = w.point.QueryResult(args...)
	case rq.isRead() && rq.prepared:
		res, err = w.rng.QueryResult(args...)
	default:
		res, err = w.conn.Exec(sql, args...)
	}
	switch {
	case err != nil:
		rep.err = err.Error()
	case !rq.isRead():
		rep.acked = true
	default:
		w.rows += int64(len(res.Rows))
		if rq.sample {
			rep.key = exactKey(res)
		}
	}
}

func runServed(o *options) (*outcome, error) {
	out := newOutcome()
	root, err := os.MkdirTemp(workDir, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	man := servedManifest(o.seed)
	cfg, err := man.Config()
	if err != nil {
		return nil, err
	}
	measure := time.Duration(o.seconds * float64(time.Second))
	closedDur := measure / closedShare
	openDur := measure - closedDur
	t0 := time.Now()
	data := mth.Generate(cfg)
	out.metrics["mth.generate_s"] = sec(time.Since(t0))
	if o.trace {
		// The store loads inside OpenStore; time the same load on its own.
		t0 = time.Now()
		if _, err := mth.LoadMT(data); err != nil {
			return nil, err
		}
		out.metrics["mth.load_s"] = sec(time.Since(t0))
	}
	stream := genServed(o.seed, servedRate, servedWarm+openDur, int(closedCap*closedDur.Seconds()), data)
	out.meta["rows"] = rowCounts(data)
	out.meta["offered_rate"] = servedRate
	out.meta["loop"] = fmt.Sprintf("open, seeded Poisson arrivals at %g statements/s over %d sessions for %gs (the first %gs untimed); "+
		"then closed, %d sessions for %gs", servedRate, servedSessions, (servedWarm + openDur).Seconds(), servedWarm.Seconds(),
		servedSessions, closedDur.Seconds())
	out.meta["flush_policy"] = fmt.Sprintf("group-commit fsync per acknowledged write; snapshot every %d records", snapEvery)
	out.meta["config"] = fmt.Sprintf("sf=%g T=%d dist=zipf mode=postgres scope={C} mix=60%% point/20%% range/20%% write", servedSF, servedTenants)
	data = nil

	// Set up several times; keep the last server.
	var rig *servedRig
	var totals []float64
	workers := make([]*servedWorker, servedSessions)
	for rep := 0; rep < setupRepeats; rep++ {
		if rig != nil {
			for _, w := range workers {
				w.close()
			}
			if err := rig.shutdown(); err != nil {
				return nil, err
			}
			os.RemoveAll(rig.dir)
		}
		runtime.GC()
		t0 := time.Now()
		if rig, err = openServed(root, man); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		for s := range workers {
			workers[s] = &servedWorker{addr: rig.addr, reqs: stream.reqs[s], replies: make([]reply, len(stream.reqs[s]))}
			workers[s].connect(sessionTenants(s)[0])
			if workers[s].dialErr != nil {
				return nil, fmt.Errorf("setup: %w", workers[s].dialErr)
			}
		}
		totals = append(totals, sec(time.Since(t0)))
	}
	out.metrics["setup_s"] = median(totals)
	out.printf("set-ups s: %.4f", totals)
	sizeBefore := dirSize(rig.dir)
	mw := rig.store.Instance().Srv
	rw0h, rw0m := mw.RewriteCacheStats()
	eng0 := mw.DB().Stats.Snapshot()

	// Open-loop phase: an untimed warm-up, then the measured open loop.
	runtime.GC()
	var timings [servedSessions][]timing
	ph := beginPhase()
	var wg sync.WaitGroup
	for s, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timings[s] = newSender(ph.start).run(stream.due[s], w.switchTenant, w.exec)
		}()
	}
	wg.Wait()
	cost := ph.end()

	// Measured closed-loop phase: each session runs its closed requests
	// back to back until the phase is over. Its timings carry no due time
	// (Due = Sent) and offsets from the phase start.
	closedStart := time.Now()
	for s, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := stream.open(s); i < len(w.reqs) && time.Since(closedStart) < closedDur; i++ {
				w.switchTenant(i)
				sent := time.Since(closedStart)
				w.exec(i)
				timings[s] = append(timings[s], timing{Due: sent, Sent: sent, Done: time.Since(closedStart)})
			}
		}()
	}
	wg.Wait()
	closedWall := time.Since(closedStart)
	for s, w := range workers {
		// Only the statements that ran belong to the stream from here on.
		w.reqs, w.replies = w.reqs[:len(timings[s])], w.replies[:len(timings[s])]
	}

	rw1h, rw1m := mw.RewriteCacheStats()
	eng := mw.DB().Stats.Snapshot()
	var admissionWaits float64
	pairs, err := []wire.StatPair(nil), errors.New("no session open")
	for _, w := range workers {
		if w.conn != nil {
			pairs, err = w.conn.Stats()
			break
		}
	}
	if err != nil {
		out.fail("stats: %v", err)
	}
	for _, p := range pairs {
		if strings.HasPrefix(p.Name, "admission.") &&
			(strings.HasSuffix(p.Name, ".rate_waits") || strings.HasSuffix(p.Name, ".quota_rejects")) {
			admissionWaits += float64(p.Value)
		}
	}
	snapshots := rig.store.Snapshots()
	for _, w := range workers {
		w.close()
	}
	if err := rig.shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	// Before recovery and the oracle open stores of their own.
	out.metrics["peak_rss_mb"] = peakRSSMB()

	// Latencies, from each statement's due time.
	var reads, writes, lags, lateLags []float64
	byKind := map[string][]float64{} // service times, ms
	var last time.Duration
	completed, closedDone, acked := 0, 0, 0
	for s, w := range workers {
		for i, t := range timings[s] {
			rq, rep := w.reqs[i], w.replies[i]
			out.attempted++
			if i >= stream.open(s) {
				if rep.err != "" {
					out.fail("session %d closed-loop statement %d (tenant %d): %s", s, i, rq.tenant, rep.err)
					continue
				}
				closedDone++
				if !rq.isRead() {
					acked++
				}
				continue
			}
			last = max(last, t.Done)
			timed := t.Due >= servedWarm // warm-up statements are checked, not timed
			if timed {
				lags = append(lags, ms(t.Lag()))
			}
			if t.Due >= servedWarm+openDur/2 {
				lateLags = append(lateLags, ms(t.Lag()))
			}
			if rep.err != "" {
				out.fail("session %d statement %d (tenant %d): %s", s, i, rq.tenant, rep.err)
				continue
			}
			completed++
			if !rq.isRead() {
				acked++
			}
			if !timed {
				continue
			}
			byKind[rq.kindName()] = append(byKind[rq.kindName()], ms(t.Service()))
			if rq.isRead() {
				reads = append(reads, ms(t.Latency()))
			} else {
				writes = append(writes, ms(t.Latency()))
			}
		}
	}
	n := float64(completed)
	out.metrics["qps"] = float64(closedDone) / sec(closedWall)
	out.metrics["read_p50_ms"] = median(reads)
	p99, beyond, ok := tail(reads, 0.99)
	out.metrics["read_p99_ms"] = p99
	out.metrics["read_samples"] = float64(len(reads))
	out.metrics["write_p50_ms"] = median(writes)
	out.metrics["write_p99_ms"], _ = percentile(writes, 0.99)
	out.metrics["alloc_kb_per_op"] = float64(cost.allocBytes) / 1024 / n
	out.metrics["runtime.gc_cpu_fraction"] = cost.gcCPUFraction
	out.metrics["loadgen.lag_ms_p99"], _ = percentile(lags, 0.99)
	out.metrics["loadgen.lag_ms_p99_late"], _ = percentile(lateLags, 0.99)
	out.metrics["server.admission_waits"] = admissionWaits
	out.metrics["wal.snapshots"] = float64(snapshots)
	out.metrics["wal.bytes_per_write"] = ratio(float64(dirSize(rig.dir)-sizeBefore), float64(acked))
	rwh, rwm := float64(rw1h-rw0h), float64(rw1m-rw0m)
	out.metrics["middleware.rewrite_cache_hit_ratio"] = ratio(rwh, rwh+rwm)
	out.metrics["middleware.rewrite_cache_lookups"] = rwh + rwm
	ph0, pm0 := float64(eng.PlanCacheHits-eng0.PlanCacheHits), float64(eng.PlanCacheMisses-eng0.PlanCacheMisses)
	out.metrics["engine.plan_cache_hit_ratio"] = ratio(ph0, ph0+pm0)
	out.metrics["engine.plan_cache_lookups"] = ph0 + pm0
	udf, udfHits := float64(eng.UDFCalls-eng0.UDFCalls), float64(eng.UDFCacheHits-eng0.UDFCacheHits)
	out.metrics["engine.udf_calls_per_op"] = udf / float64(completed+closedDone) // counters span both phases
	out.metrics["engine.udf_cache_hit_ratio"] = ratio(udfHits, udf+udfHits)
	var rows int64
	for _, w := range workers {
		rows += w.rows
	}
	out.metrics["engine.rows_streamed_per_result_row"] = ratio(float64(eng.RowsStreamed-eng0.RowsStreamed), float64(rows))
	out.printf("generator lag ms: %s; read latency from due ms: %s", quantileLine(lags), quantileLine(reads))
	openDue := 0
	for s := range workers {
		openDue += stream.open(s)
	}
	out.printf("open loop: %d due, %d completed (%d reads, %d writes timed after the warm-up) in %.2fs: %.1f/s at offered %g/s",
		openDue, completed, len(reads), len(writes), sec(max(servedWarm+openDur, last)), n/sec(max(servedWarm+openDur, last)), servedRate)
	out.printf("closed loop: %d completed in %.2fs over %d sessions: %.1f/s", closedDone, sec(closedWall), servedSessions,
		float64(closedDone)/sec(closedWall))
	for _, k := range []string{"point/bind", "point/inline", "range/bind", "range/inline", "update", "insert", "delete"} {
		p99, _ := percentile(byKind[k], 0.99)
		out.printf("  service %-13s n=%6d p50 %.3f ms p99 %.3f ms", k, len(byKind[k]), median(byKind[k]), p99)
	}
	out.printf("reads: %d beyond p99 (supported by ≥%d: %v); writes: %d", beyond, minBeyond, ok, len(writes))

	// Recovery: reopen the cleanly closed store.
	t0 = time.Now()
	recovered, err := server.OpenStore(rig.dir, server.Manifest{}, snapEvery)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	out.metrics["recovery_s"] = sec(time.Since(t0))
	out.metrics["wal.replay_records"] = float64(recovered.Recovered())

	// The oracle: the same stream replayed in process. Untraced runs replay
	// the acknowledged writes and the sampled reads; traced runs replay
	// every statement, once untraced and once traced.
	rp := &servedReplay{root: root, man: man, stream: stream, workers: workers, timings: timings, out: out}
	var oracle *server.Store
	if !o.trace {
		oracle, err = rp.run(nil, false, false)
	} else {
		oracle, err = rp.tracedRun(o)
	}
	if err != nil {
		return nil, err
	}
	compareStates(out, recovered.Instance(), oracle.Instance())
	if err := recovered.Close(); err != nil {
		return nil, err
	}
	if err := oracle.Close(); err != nil {
		return nil, err
	}
	out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

// servedReplay replays a served run's stream in process, through the
// public layers and (optionally) Store.Apply.
type servedReplay struct {
	root    string
	man     server.Manifest
	stream  *servedStream
	workers []*servedWorker
	timings [servedSessions][]timing
	out     *outcome
	durs    [servedSessions][]time.Duration // per request, when replayed
}

// run replays onto a fresh store. all replays every statement (otherwise
// only acknowledged writes and sampled reads); apply sends writes through
// Store.Apply (WAL append and fsync), as the server does.
func (rp *servedReplay) run(tr *tracer, all, apply bool) (*server.Store, error) {
	dir, err := os.MkdirTemp(rp.root, "oracle-")
	if err != nil {
		return nil, err
	}
	st, err := server.OpenStore(dir, rp.man, snapEvery)
	if err != nil {
		return nil, fmt.Errorf("oracle store: %w", err)
	}
	mw := st.Instance().Srv
	db := mw.DB()
	conns := make(map[int64]*middleware.Conn)
	mirror := newStmtCacheMirror()
	var req int64
	for s, w := range rp.workers {
		rp.durs[s] = make([]time.Duration, len(w.reqs))
		for i, rq := range w.reqs {
			req++
			rep := w.replies[i]
			if rq.isRead() && !all && !rq.sample || !rq.isRead() && !rep.acked {
				continue
			}
			conn := conns[rq.tenant]
			if conn == nil {
				if conn, err = mw.Connect(rq.tenant); err != nil {
					st.Close()
					return nil, err
				}
				conns[rq.tenant] = conn
			}
			sql, args := rq.statement()
			t0 := time.Now()
			root := tr.begin("stmt", req, -1)
			var res *engine.Result
			if rq.isRead() {
				res, err = layeredQuery(tr, req, root, mirror, conn, db, conn.OptLevel(), sql, args...)
			} else {
				res, err = replayWrite(tr, req, root, st, apply, conn, sql, args)
			}
			tr.end(root)
			rp.durs[s][i] = time.Since(t0)
			switch {
			case err != nil:
				rp.out.fail("replay session %d statement %d: %v", s, i, err)
			case rq.sample && rep.err == "" && exactKey(res) != rep.key:
				rp.out.fail("session %d statement %d (tenant %d): read over the wire differs from the in-process oracle", s, i, rq.tenant)
			}
		}
	}
	return st, nil
}

// replayWrite executes one write, through Store.Apply when apply is set.
func replayWrite(tr *tracer, req int64, parent int, st *server.Store, apply bool, conn *middleware.Conn,
	sql string, args []any) (*engine.Result, error) {
	vals, err := bindAll(args)
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	exec := func(parent int) func() (*engine.Result, error) {
		return func() (*engine.Result, error) {
			var r *engine.Result
			var err error
			tr.do("engine.commit", req, parent, func(int) { r, err = conn.ExecContext(context.Background(), sql, args...) })
			return r, err
		}
	}
	if !apply {
		return exec(parent)()
	}
	tr.do("wal.apply", req, parent, func(id int) {
		res, err = st.Apply(wal.KindData, conn.C(), conn.OptLevel(), "", sql, vals, exec(id))
	})
	return res, err
}

// tracedRun replays every statement untraced, then traced, each onto a
// fresh store with writes through Store.Apply, and derives the server-side
// layer split.
func (rp *servedReplay) tracedRun(o *options) (*server.Store, error) {
	out := rp.out
	plain, err := rp.run(nil, true, true)
	if err != nil {
		return nil, err
	}
	untraced := rp.durs
	var untracedMS float64
	var hops []float64
	for s, w := range rp.workers {
		for i := range w.reqs {
			untracedMS += ms(untraced[s][i])
		}
	}
	if err := plain.Close(); err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	st, err := rp.run(tr, true, true)
	if err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	byName := map[string][]float64{}
	var tracedMS, execMS float64
	var execs, commits []float64
	for i, sp := range tr.spans {
		d := float64(sp.End - sp.Start)
		switch sp.Name {
		case "stmt":
			tracedMS += d / 1e6
		case "engine.exec":
			execMS += float64(self[i]) / 1e6
			execs = append(execs, float64(self[i])/1e6)
		case "engine.commit":
			commits = append(commits, d/1e3)
		}
		byName[sp.Name] = append(byName[sp.Name], float64(self[i])/1e3)
	}
	layerMetrics(out, byName)
	out.metrics["engine.exec_ms_p50"] = median(execs)
	out.metrics["engine.exec_ms_p99"], _ = percentile(execs, 0.99)
	out.metrics["engine.exec_share"] = ratio(execMS, tracedMS)
	out.metrics["engine.commit_us_p50"] = median(commits)
	out.metrics["wal.apply_us_p50"] = median(byName["wal.apply"])
	out.metrics["wal.apply_us_p99"], _ = percentile(byName["wal.apply"], 0.99)
	out.metrics["trace.overhead_share"] = ratio(tracedMS-untracedMS, untracedMS)

	// The wire hop: a read's service time over the socket minus the same
	// statement's untraced in-process time.
	for s, w := range rp.workers {
		for i, rq := range w.reqs {
			if rq.isRead() && w.replies[i].err == "" {
				hops = append(hops, us(rp.timings[s][i].Service()-untraced[s][i]))
			}
		}
	}
	out.metrics["wire.hop_us_p50"] = median(hops)
	out.printf("traced replay: %.1f ms traced vs %.1f ms untraced in process (overhead %.1f%%)",
		tracedMS, untracedMS, 100*ratio(tracedMS-untracedMS, untracedMS))
	return st, writeSpans(spanPath(o), tr.spans)
}

// compareStates checks that the recovered store holds exactly the
// oracle's state: every acknowledged write present, nothing else.
func compareStates(out *outcome, got, want *mth.Instance) {
	for t := int64(1); t <= servedTenants; t++ {
		for _, q := range []string{
			"SELECT * FROM customer ORDER BY c_custkey",
			"SELECT * FROM orders ORDER BY o_orderkey",
		} {
			var keys [2]string
			for k, inst := range []*mth.Instance{got, want} {
				conn, err := inst.Srv.Connect(t)
				if err == nil {
					var res *engine.Result
					if res, err = conn.Query(q); err == nil {
						keys[k] = exactKey(res)
					}
				}
				if err != nil {
					out.fail("recovery check tenant %d: %v", t, err)
					return
				}
			}
			if keys[0] != keys[1] {
				out.fail("recovery check tenant %d: %q differs between the recovered store and the acknowledged writes", t, q)
			}
		}
	}
}

// bindAll converts bind arguments as the middleware does.
func bindAll(args []any) ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(args))
	for i, a := range args {
		v, err := sqltypes.BindValue(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
