package shard

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// Conn is a sharded session: the same surface as middleware.Conn, with
// every statement routed by its resolved tenant set D′. It is not safe
// for concurrent use by multiple goroutines (like middleware.Conn).
type Conn struct {
	srv   *Server
	c     int64
	level optimizer.Level
	scope *sqlast.SetScope // session scope AST; nil = default {C}

	rconn  *middleware.Conn   // coordinator replica connection
	sconns []*middleware.Conn // one per shard, rank order
}

// C returns the client tenant.
func (c *Conn) C() int64 { return c.c }

// SetOptLevel sets the optimization level for subsequent statements on
// every sub-connection.
func (c *Conn) SetOptLevel(l optimizer.Level) {
	c.level = l
	c.rconn.SetOptLevel(l)
	for _, sc := range c.sconns {
		sc.SetOptLevel(l)
	}
}

// OptLevel returns the session's optimization level.
func (c *Conn) OptLevel() optimizer.Level { return c.level }

// Exec parses and executes one statement, materializing any result.
func (c *Conn) Exec(sql string) (*engine.Result, error) {
	return c.ExecContext(context.Background(), sql)
}

// ExecStatement executes an already parsed statement. SET SCOPE is
// installed from the AST (never re-serialized: an empty simple scope
// serializes to the all-tenants form); everything else re-enters by text.
func (c *Conn) ExecStatement(stmt sqlast.Statement) (*engine.Result, error) {
	if sc, ok := stmt.(*sqlast.SetScope); ok {
		return c.setScope(sc)
	}
	return c.dispatch(context.Background(), stmt, stmt.String(), nil)
}

// ExecContext parses and executes one statement under ctx.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...any) (*engine.Result, error) {
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return c.dispatch(ctx, stmt, sql, args)
}

// Query executes a SELECT and materializes the result.
func (c *Conn) Query(sql string, args ...any) (*engine.Result, error) {
	rows, err := c.QueryRows(sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryRows executes a SELECT and returns a streaming cursor.
func (c *Conn) QueryRows(sql string, args ...any) (*engine.Rows, error) {
	return c.QueryContext(context.Background(), sql, args...)
}

// QueryContext executes a SELECT under ctx and returns a streaming
// cursor: routed to one shard when D′ lands on one, scattered and
// gathered otherwise.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...any) (*engine.Rows, error) {
	sel, err := c.srv.parseSelect(sql)
	if err != nil {
		return nil, err
	}
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	return c.routeQuery(ctx, sel, sql, args)
}

func (c *Conn) dispatch(ctx context.Context, stmt sqlast.Statement, sql string, args []any) (*engine.Result, error) {
	switch st := stmt.(type) {
	case *sqlast.Select:
		c.srv.ddlMu.RLock()
		rows, err := c.routeQuery(ctx, st, sql, args)
		c.srv.ddlMu.RUnlock()
		if err != nil {
			return nil, err
		}
		return rows.Collect()
	case *sqlast.SetScope:
		return c.setScope(st)
	case *sqlast.Insert:
		return c.execInsert(ctx, st, sql, args)
	case *sqlast.Update:
		return c.execTargetedDML(ctx, st.Table, sqlast.PrivUpdate, sql, args)
	case *sqlast.Delete:
		return c.execTargetedDML(ctx, st.Table, sqlast.PrivDelete, sql, args)
	default:
		return c.execDDL(stmt, sql)
	}
}

// setScope installs the session scope on every sub-connection and
// remembers the AST for scatter-time restores.
func (c *Conn) setScope(st *sqlast.SetScope) (*engine.Result, error) {
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	if _, err := c.rconn.ExecStatement(st); err != nil {
		return nil, err
	}
	for _, sc := range c.sconns {
		if _, err := sc.ExecStatement(st); err != nil {
			return nil, err
		}
	}
	c.scope = st
	return &engine.Result{}, nil
}

// sessionScope returns the scope AST to restore after a sub-scope hijack.
// The default scope has no explicit AST; SCOPE IN (C) resolves to the
// identical dataset.
func (c *Conn) sessionScope() *sqlast.SetScope {
	if c.scope != nil {
		return c.scope
	}
	return &sqlast.SetScope{Simple: []int64{c.c}}
}

// setSub points one shard's sub-connection at an explicit tenant subset.
func (c *Conn) setSub(rank int, ds []int64) error {
	_, err := c.sconns[rank].ExecStatement(&sqlast.SetScope{Simple: ds})
	return err
}

// restoreSubs restores the session scope on the given shard ranks.
func (c *Conn) restoreSubs(ranks []int) {
	orig := c.sessionScope()
	for _, r := range ranks {
		c.sconns[r].ExecStatement(orig) //nolint:errcheck // scope install cannot fail
	}
}

// resolveDPrime computes the global privilege-pruned tenant set D′ for a
// statement touching tables. Default, simple and all scopes resolve on
// the replica (pure metadata, identical everywhere). A complex scope is
// data-dependent: each shard resolves it against its own partition — a
// tenant qualifies based on rows that live only on its owning shard — and
// the union, pruned on the replica under a temporary explicit scope, is
// the global answer.
func (c *Conn) resolveDPrime(priv sqlast.Privilege, tables []string) (d []int64, all bool, err error) {
	if c.scope == nil || c.scope.Complex == nil {
		rctx, err := c.rconn.RewriteContext(priv, tables...)
		if err != nil {
			return nil, false, err
		}
		return rctx.D, rctx.DAll, nil
	}
	seen := make(map[int64]bool)
	var union []int64
	for _, sc := range c.sconns {
		part, _, err := sc.ResolveScope()
		if err != nil {
			return nil, false, err
		}
		for _, t := range part {
			if !seen[t] {
				seen[t] = true
				union = append(union, t)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	if _, err := c.rconn.ExecStatement(&sqlast.SetScope{Simple: union}); err != nil {
		return nil, false, err
	}
	rctx, err := c.rconn.RewriteContext(priv, tables...)
	c.rconn.ExecStatement(c.sessionScope()) //nolint:errcheck // scope install cannot fail
	if err != nil {
		return nil, false, err
	}
	return rctx.D, false, nil
}

// routeQuery picks the execution strategy for one SELECT. Caller holds
// ddlMu shared.
func (c *Conn) routeQuery(ctx context.Context, sel *sqlast.Select, sql string, args []any) (*engine.Rows, error) {
	if len(c.sconns) == 1 {
		// One shard: the original scope passes through verbatim — this is
		// the differential oracle configuration.
		atomic.AddInt64(&c.srv.stats.RoutedSingle, 1)
		return c.sconns[0].QueryContext(ctx, sql, args...)
	}
	schema := c.srv.Schema()
	tables := middleware.TenantSpecificTables(sel)
	hasTenant := false
	for _, t := range tables {
		if ti := schema.Table(t); ti != nil && ti.TenantSpecific() {
			hasTenant = true
			break
		}
	}
	hasView := queryReferencesView(sel, schema)
	if !hasTenant && !hasView {
		// Pure-global query: every shard holds the same global data; run
		// on the client's home shard.
		atomic.AddInt64(&c.srv.stats.RoutedSingle, 1)
		return c.sconns[c.srv.ShardOf(c.c)].QueryContext(ctx, sql, args...)
	}
	d, _, err := c.resolveDPrime(sqlast.PrivRead, tables)
	if err != nil {
		return nil, err
	}
	if hasView {
		// A view's tenant set was baked at CREATE VIEW independently of
		// the session scope, so routing cannot see it; repartition every
		// tenant's rows to the replica and run there.
		atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
		atomic.AddInt64(&c.srv.stats.RoutedFallback, 1)
		return c.fallback(ctx, sql, args, d, true)
	}
	sets := c.srv.group(d)
	if len(sets) <= 1 {
		rank := c.srv.ShardOf(c.c)
		if len(sets) == 1 {
			rank = sets[0].rank
		}
		// All of D′ lives on one shard: the shard's own middleware
		// resolves the original session scope to the same D′ locally.
		atomic.AddInt64(&c.srv.stats.RoutedSingle, 1)
		return c.sconns[rank].QueryContext(ctx, sql, args...)
	}
	an := analyze(sel, schema)
	switch {
	case an.pinned && an.aggPush:
		atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
		atomic.AddInt64(&c.srv.stats.PartialsPushed, 1)
		return c.partialScatter(ctx, sel, args, sets, an)
	case an.pinned && an.plainScan:
		atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
		return c.scatterMerge(ctx, sel, sql, args, sets, an)
	default:
		atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
		atomic.AddInt64(&c.srv.stats.RoutedFallback, 1)
		return c.fallback(ctx, sql, args, d, false)
	}
}

// scatterMerge runs the statement unchanged on every owning shard under
// its sub-scope and gathers: ordered k-way merge when the statement
// orders its output, stable rank-order concatenation otherwise. Only
// pinned scan-shaped statements come here (analyze), so per-shard results
// partition the unsharded result by tenant.
func (c *Conn) scatterMerge(ctx context.Context, sel *sqlast.Select, sql string, args []any, sets []shardSet, an analysis) (*engine.Rows, error) {
	parts := make([]*engine.Rows, 0, len(sets))
	ranks := make([]int, 0, len(sets))
	fail := func(err error) (*engine.Rows, error) {
		for _, p := range parts {
			p.Close()
		}
		c.restoreSubs(ranks)
		return nil, err
	}
	for _, ss := range sets {
		ranks = append(ranks, ss.rank)
		if err := c.setSub(ss.rank, ss.ds); err != nil {
			return fail(err)
		}
		rows, err := c.sconns[ss.rank].QueryContext(ctx, sql, args...)
		if err != nil {
			return fail(err)
		}
		parts = append(parts, rows)
	}
	c.restoreSubs(ranks)
	cols := parts[0].Columns()
	if len(an.mergeKeys) > 0 {
		return engine.MergeRows(cols, an.mergeKeys, sel.Limit, parts...), nil
	}
	return engine.ConcatRows(cols, sel.Limit, parts...), nil
}

// fallback repartitions: the owning shards' tenant rows for D′ are copied
// into the replica's (normally empty) tenant tables, the original
// statement executes there under an explicit D′ scope, and the scratch
// rows are dropped once the cursor has pinned its snapshot. copyAll
// widens the copy to every tenant (views bake their own tenant set, which
// routing cannot see). Serialized by fbMu; the copied heaps are immutable
// shard snapshots, so shards keep serving while the fallback runs.
func (c *Conn) fallback(ctx context.Context, sql string, args []any, d []int64, copyAll bool) (*engine.Rows, error) {
	s := c.srv
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	copyD := d
	if copyAll {
		copyD = s.Tenants()
	}
	want := make(map[int64]bool, len(copyD))
	for _, t := range copyD {
		want[t] = true
	}
	schema := s.Schema()
	rdb := s.replica.DB()
	var scratch []string
	clear := func() {
		for _, name := range scratch {
			rdb.Table(name).ReplaceRows(nil)
		}
	}
	for _, ti := range schema.Tables() {
		if !ti.TenantSpecific() {
			continue
		}
		rt := rdb.Table(ti.Name)
		if rt == nil {
			continue
		}
		ttid := rt.ColIndex("ttid")
		if ttid < 0 {
			clear()
			return nil, fmt.Errorf("shard: table %s has no ttid column", ti.Name)
		}
		var rows [][]sqltypes.Value
		for _, mw := range s.shards {
			st := mw.DB().Table(ti.Name)
			if st == nil {
				continue
			}
			for _, row := range st.Heap() {
				if want[row[ttid].AsInt()] {
					rows = append(rows, row)
				}
			}
		}
		scratch = append(scratch, ti.Name)
		rt.ReplaceRows(rows)
	}
	if _, err := c.rconn.ExecStatement(&sqlast.SetScope{Simple: d}); err != nil {
		clear()
		return nil, err
	}
	rows, err := c.rconn.QueryContext(ctx, sql, args...)
	c.rconn.ExecStatement(c.sessionScope()) //nolint:errcheck // scope install cannot fail
	clear()                                 // the cursor pinned its copy-on-write snapshot at creation
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// execInsert routes an INSERT: global targets replicate to every shard
// and the replica; tenant-specific targets split by the owning shard of
// each tenant in D′ (rewrite.Insert already derives one statement per
// target tenant).
func (c *Conn) execInsert(ctx context.Context, ins *sqlast.Insert, sql string, args []any) (*engine.Result, error) {
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	schema := c.srv.Schema()
	info := schema.Table(ins.Table)
	tenantTarget := info != nil && info.TenantSpecific()
	var subTenant bool
	if ins.Sub != nil {
		for _, t := range middleware.TenantSpecificTables(ins.Sub) {
			if ti := schema.Table(t); ti != nil && ti.TenantSpecific() {
				subTenant = true
				break
			}
		}
	}
	if !tenantTarget {
		if subTenant && len(c.sconns) > 1 {
			return nil, fmt.Errorf("shard: INSERT into global table from tenant-specific SELECT is not supported with %d shards", len(c.sconns))
		}
		var first *engine.Result
		if _, err := c.rconn.ExecContext(ctx, sql, args...); err != nil {
			return nil, err
		}
		for _, sc := range c.sconns {
			res, err := sc.ExecContext(ctx, sql, args...)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = res
			}
		}
		return first, nil
	}
	tables := []string{ins.Table}
	if ins.Sub != nil {
		tables = append(tables, middleware.TenantSpecificTables(ins.Sub)...)
	}
	d, _, err := c.resolveDPrime(sqlast.PrivInsert, tables)
	if err != nil {
		return nil, err
	}
	sets := c.srv.group(d)
	if len(sets) <= 1 {
		rank := c.srv.ShardOf(c.c)
		if len(sets) == 1 {
			rank = sets[0].rank
		}
		atomic.AddInt64(&c.srv.stats.RoutedSingle, 1)
		return c.sconns[rank].ExecContext(ctx, sql, args...)
	}
	if subTenant {
		return nil, fmt.Errorf("shard: INSERT ... SELECT over a cross-shard tenant set is not supported")
	}
	atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
	return c.scatterExec(ctx, sql, args, sets)
}

// execTargetedDML routes UPDATE/DELETE by the target table: per-tenant
// application splits cleanly by owning shard.
func (c *Conn) execTargetedDML(ctx context.Context, table string, priv sqlast.Privilege, sql string, args []any) (*engine.Result, error) {
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	schema := c.srv.Schema()
	info := schema.Table(table)
	if info == nil || !info.TenantSpecific() {
		// Global target: replicate the write everywhere.
		var first *engine.Result
		if _, err := c.rconn.ExecContext(ctx, sql, args...); err != nil {
			return nil, err
		}
		for _, sc := range c.sconns {
			res, err := sc.ExecContext(ctx, sql, args...)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = res
			}
		}
		return first, nil
	}
	d, _, err := c.resolveDPrime(priv, []string{table})
	if err != nil {
		return nil, err
	}
	sets := c.srv.group(d)
	if len(sets) <= 1 {
		rank := c.srv.ShardOf(c.c)
		if len(sets) == 1 {
			rank = sets[0].rank
		}
		atomic.AddInt64(&c.srv.stats.RoutedSingle, 1)
		return c.sconns[rank].ExecContext(ctx, sql, args...)
	}
	atomic.AddInt64(&c.srv.stats.RoutedScatter, 1)
	return c.scatterExec(ctx, sql, args, sets)
}

// scatterExec runs a mutating statement on every owning shard under its
// sub-scope, summing affected counts (per-tenant effects are disjoint).
func (c *Conn) scatterExec(ctx context.Context, sql string, args []any, sets []shardSet) (*engine.Result, error) {
	ranks := make([]int, 0, len(sets))
	defer func() { c.restoreSubs(ranks) }()
	affected := 0
	for _, ss := range sets {
		ranks = append(ranks, ss.rank)
		if err := c.setSub(ss.rank, ss.ds); err != nil {
			return nil, err
		}
		res, err := c.sconns[ss.rank].ExecContext(ctx, sql, args...)
		if err != nil {
			return nil, err
		}
		affected += res.Affected
	}
	return &engine.Result{Affected: affected}, nil
}

// execDDL fans a schema/privilege statement out to the replica and every
// shard under the exclusive schema barrier. The replica goes first: a
// statement that fails its checks (privileges, unknown table) fails there
// before any shard changed. Statements whose semantics bake the resolved
// scope (CREATE VIEW; GRANT/REVOKE ... TO ALL) are pre-resolved globally
// when the session scope is complex — each server evaluating a complex
// scope against its own partition would diverge.
func (c *Conn) execDDL(stmt sqlast.Statement, sql string) (*engine.Result, error) {
	c.srv.ddlMu.Lock()
	defer c.srv.ddlMu.Unlock()
	if needsResolvedScope(stmt) && c.scope != nil && c.scope.Complex != nil {
		seen := make(map[int64]bool)
		var union []int64
		for _, sc := range c.sconns {
			part, _, err := sc.ResolveScope()
			if err != nil {
				return nil, err
			}
			for _, t := range part {
				if !seen[t] {
					seen[t] = true
					union = append(union, t)
				}
			}
		}
		sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
		resolved := &sqlast.SetScope{Simple: union}
		orig := c.scope
		conns := append([]*middleware.Conn{c.rconn}, c.sconns...)
		for _, sc := range conns {
			sc.ExecStatement(resolved) //nolint:errcheck // scope install cannot fail
		}
		defer func() {
			for _, sc := range conns {
				sc.ExecStatement(orig) //nolint:errcheck // scope install cannot fail
			}
		}()
	}
	if _, err := c.rconn.Exec(sql); err != nil {
		return nil, err
	}
	var first *engine.Result
	for _, sc := range c.sconns {
		res, err := sc.Exec(sql)
		if err != nil {
			return nil, fmt.Errorf("shard: DDL diverged across shards (replica succeeded): %w", err)
		}
		if first == nil {
			first = res
		}
	}
	return first, nil
}

// needsResolvedScope reports whether a statement's effect bakes the
// session's resolved dataset into durable state.
func needsResolvedScope(stmt sqlast.Statement) bool {
	switch st := stmt.(type) {
	case *sqlast.CreateView:
		return true
	case *sqlast.Grant:
		return st.GranteeAll
	case *sqlast.Revoke:
		return st.GranteeAll
	}
	return false
}

// RewriteSQL rewrites and optimizes a query without executing it — the
// text a single-shard route would run, or the replica's rewrite under the
// pre-resolved global D′ for cross-shard statements.
func (c *Conn) RewriteSQL(sql string) (*sqlast.Select, error) {
	sel, err := c.srv.parseSelect(sql)
	if err != nil {
		return nil, err
	}
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	if len(c.sconns) == 1 {
		return c.sconns[0].RewriteSQL(sql)
	}
	tables := middleware.TenantSpecificTables(sel)
	d, _, err := c.resolveDPrime(sqlast.PrivRead, tables)
	if err != nil {
		return nil, err
	}
	sets := c.srv.group(d)
	if len(sets) == 1 {
		return c.sconns[sets[0].rank].RewriteSQL(sql)
	}
	if _, err := c.rconn.ExecStatement(&sqlast.SetScope{Simple: d}); err != nil {
		return nil, err
	}
	defer c.rconn.ExecStatement(c.sessionScope()) //nolint:errcheck // scope install cannot fail
	return c.rconn.RewriteSQL(sql)
}

// queryReferencesView reports whether any table name anywhere in the
// query resolves to a stored view.
func queryReferencesView(sel *sqlast.Select, schema interface {
	View(name string) []string
}) bool {
	found := false
	var visitQ func(s *sqlast.Select)
	var visitTE func(te sqlast.TableExpr)
	visitExpr := func(e sqlast.Expr) {
		if e == nil {
			return
		}
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			switch x := n.(type) {
			case *sqlast.SubqueryExpr:
				visitQ(x.Sub)
			case *sqlast.ExistsExpr:
				visitQ(x.Sub)
			case *sqlast.InExpr:
				if x.Sub != nil {
					visitQ(x.Sub)
				}
			case *sqlast.Select:
				visitQ(x)
			}
			return !found
		})
	}
	visitTE = func(te sqlast.TableExpr) {
		switch x := te.(type) {
		case *sqlast.TableName:
			if schema.View(x.Name) != nil {
				found = true
			}
		case *sqlast.DerivedTable:
			visitQ(x.Sub)
		case *sqlast.JoinExpr:
			visitTE(x.L)
			visitTE(x.R)
		}
	}
	visitQ = func(s *sqlast.Select) {
		if s == nil || found {
			return
		}
		for _, te := range s.From {
			visitTE(te)
		}
		for _, it := range s.Items {
			visitExpr(it.Expr)
		}
		visitExpr(s.Where)
		visitExpr(s.Having)
	}
	visitQ(sel)
	return found
}
