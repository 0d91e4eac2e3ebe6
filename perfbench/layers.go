package main

// Calls into the public layers in the order middleware.Conn makes them,
// for the traced replays.

import (
	"context"
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// stmtCacheMirror predicts the middleware's statement caches so a traced
// replay skips exactly the layers the untraced run skipped: a parse cache
// keyed by text and a rewrite cache keyed by (text, C, level, D′), each
// restarting empty when it reaches the middleware's capacity, and the
// rewrite cache retired by DDL (which bumps the schema generation).
type stmtCacheMirror struct {
	parsed    map[string]*sqlast.Select
	rewritten map[string]string
}

const middlewareCacheCap = 512 // the middleware's statement-cache capacity

func newStmtCacheMirror() *stmtCacheMirror {
	return &stmtCacheMirror{parsed: map[string]*sqlast.Select{}, rewritten: map[string]string{}}
}

func (m *stmtCacheMirror) storeParsed(sql string, sel *sqlast.Select) {
	if len(m.parsed) >= middlewareCacheCap {
		m.parsed = map[string]*sqlast.Select{}
	}
	m.parsed[sql] = sel
}

func (m *stmtCacheMirror) storeRewritten(key, txt string) {
	if len(m.rewritten) >= middlewareCacheCap {
		m.rewritten = map[string]string{}
	}
	m.rewritten[key] = txt
}

func rewriteKey(sql string, c int64, level optimizer.Level, rctx *rewrite.Context) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%v\x00%v", sql, c, level, rctx.D, rctx.DAll)
}

// layeredQuery runs one SELECT through the public layers in the order
// middleware.Conn runs them — parse, scope (D′ + privilege pruning),
// rewrite, optimize, serialize, plan, execute — with a span around each
// call, skipping parse and rewrite where the middleware's caches would hit.
func layeredQuery(tr *tracer, req int64, parent int, m *stmtCacheMirror, conn *middleware.Conn, db *engine.DB,
	level optimizer.Level, sql string, args ...any) (*engine.Result, error) {
	var err error
	sel, ok := m.parsed[sql]
	if !ok {
		tr.do("sqlparse.parse", req, parent, func(int) {
			var stmt sqlast.Statement
			if stmt, err = sqlparse.ParseStatement(sql); err == nil {
				if sel, ok = stmt.(*sqlast.Select); !ok {
					err = fmt.Errorf("not a query: %s", sql)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		m.storeParsed(sql, sel)
	}
	var rctx *rewrite.Context
	tr.do("middleware.scope", req, parent, func(int) {
		rctx, err = conn.RewriteContext(sqlast.PrivRead, middleware.TenantSpecificTables(sel)...)
	})
	if err != nil {
		return nil, err
	}
	key := rewriteKey(sql, conn.C(), level, rctx)
	txt, ok := m.rewritten[key]
	if !ok {
		var rw, opt *sqlast.Select
		tr.do("rewrite.rewrite", req, parent, func(int) { rw, err = rewrite.Query(rctx, sel) })
		if err != nil {
			return nil, err
		}
		tr.do("optimizer.optimize", req, parent, func(int) { opt, err = optimizer.Optimize(rctx, rw, level) })
		if err != nil {
			return nil, err
		}
		tr.do("optimizer.serialize", req, parent, func(int) { txt = opt.String() })
		m.storeRewritten(key, txt)
	}
	var plan *engine.Plan
	tr.do("engine.plan", req, parent, func(int) { plan, err = db.PreparePlan(txt) })
	if err != nil {
		return nil, err
	}
	vals, err := bindAll(args)
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	tr.do("engine.exec", req, parent, func(int) { res, err = db.ExecPlanContext(context.Background(), plan, vals...) })
	return res, err
}

// layerMetrics sets the front-end span medians.
func layerMetrics(out *outcome, byName map[string][]float64) {
	for _, n := range []struct{ metric, span string }{
		{"sqlparse.parse_us_p50", "sqlparse.parse"},
		{"middleware.scope_us_p50", "middleware.scope"},
		{"rewrite.rewrite_us_p50", "rewrite.rewrite"},
		{"optimizer.optimize_us_p50", "optimizer.optimize"},
		{"optimizer.serialize_us_p50", "optimizer.serialize"},
		{"engine.plan_us_p50", "engine.plan"},
	} {
		out.metrics[n.metric] = median(byName[n.span])
	}
}
