// Package warehouse is the facade tying the system together, mirroring the
// paper's Figure 1: operational data sources feed a warehouse that holds
// summarized data (materialized GPSJ views) over minimal current detail
// data (the derived auxiliary views). The SQL front-end drives everything:
// CREATE TABLE defines sources, CREATE MATERIALIZED VIEW derives and
// initializes a self-maintainable view, and INSERT/DELETE/UPDATE apply
// source changes that propagate to every view.
//
// After DetachSources, the sources are physically unreachable (any access
// panics) and changes arrive as explicit deltas — the self-maintainability
// scenario that motivates the paper.
package warehouse

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mindetail/internal/answer"
	"mindetail/internal/csvload"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/gpsj"
	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/schema"
	"mindetail/internal/sqlparse"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// View is one materialized GPSJ view with its maintenance engine.
type View struct {
	Def    *gpsj.View
	Plan   *core.Plan
	Engine *maintain.Engine

	// ver is the view's version: a fresh value of the warehouse-wide
	// counter, taken when the view is created and whenever a committed
	// delta touches it, so a version never aliases across views or across
	// a DROP and re-CREATE of one name. snap caches the last user-facing
	// relation together with the version it was built at. Together they
	// give Query a lock-free fast path: a cached snapshot whose version
	// still matches is immutable published state — readers see the
	// pre-delta relation while a propagation is in flight and the
	// post-delta one after it commits, never a torn intermediate.
	ver  atomic.Uint64
	snap atomic.Pointer[viewSnap]
}

// viewSnap is one immutable published snapshot of a view's contents.
type viewSnap struct {
	ver uint64
	rel *ra.Relation
}

// ChangeLog is the warehouse's write-ahead log surface (implemented by
// internal/wal.Log). Intents are appended — and made durable — before the
// transactional apply; outcomes are recorded after. The interface lives
// here so the warehouse stays free of any dependency on the log's on-disk
// format.
type ChangeLog interface {
	BatchCommitter
	// BeginDelta durably records the intent to apply d (srcApplied marks
	// deltas that also mutate the source tables) and returns its LSN.
	BeginDelta(d maintain.Delta, srcApplied bool) (uint64, error)
	// BeginDDL durably records the intent to execute a DDL statement.
	BeginDDL(sql string) (uint64, error)
	// Commit records that the intent with the given LSN applied; this is
	// the mutation's durability point.
	Commit(lsn uint64) error
	// Abort records that the intent with the given LSN rolled back.
	Abort(lsn uint64) error
}

// Warehouse owns the catalog, the (detachable) sources, and the
// materialized views. All methods are safe for concurrent use: reads
// (Query, Report, ViewNames) proceed concurrently while writes (Exec DML,
// ApplyDelta, ImportCSV) serialize.
type Warehouse struct {
	mu       sync.RWMutex
	cat      *schema.Catalog
	src      *storage.DB
	views    map[string]*View
	order    []string
	detached bool
	fi       *faultinject.Hook

	// pending holds the online CREATE MATERIALIZED VIEW backfills in
	// flight, keyed by view name; propagate appends every committed delta
	// to their catch-up buffers (see backfill.go). Guarded by mu.
	pending map[string]*backfillState

	// backfillHook, when set, observes backfill stage transitions off-lock
	// (tests only; see SetBackfillHook).
	backfillHook atomic.Pointer[func(view, stage string)]

	// auxFactory, when set, supplies out-of-core auxiliary stores per
	// (view, table) — see SetAuxStoreFactory.
	auxFactory func(view, table string) (maintain.AuxStore, error)

	// wal, when set, receives every mutation before it is applied; lsn is
	// the LSN of the last committed mutation (restored from snapshots,
	// advanced on every commit), readable lock-free via LSN().
	wal ChangeLog
	lsn atomic.Uint64

	// commits is ApplyDelta's group commit (see batch.go).
	commits combiner

	// viewIdx is a copy-on-write index of views, republished (under mu)
	// whenever a view is added, so Query can locate a view without taking
	// any lock.
	viewIdx atomic.Pointer[map[string]*View]

	// versions is the counter every view version is drawn from (0 means
	// "no version" to QuerySince, so the first value handed out is 1).
	versions atomic.Uint64

	// AppendOnly derives subsequent views under the Section 4 relaxation:
	// the sources only ever receive insertions, MIN/MAX compress into the
	// auxiliary views, and deletions/updates are rejected.
	AppendOnly bool

	// met is the observability surface (never nil); obsTimingOff suppresses
	// the time-based instrumentation (see SetObs). The flag is read only
	// under mu (propagate runs under the write lock).
	met          *wmetrics
	obsTimingOff bool

	// opLog, when set, receives one OpEvent per answered query and per
	// committed delta — the workload log the view-selection advisor mines.
	// The hook must be safe for concurrent calls (queries run under the
	// read lock). Set under mu; read under either lock mode.
	opLog func(OpEvent)
}

// OpEvent is one entry of the warehouse's operation log: a query (answered
// by a materialized view or evaluated ad hoc) or a committed delta. The
// advisor clusters these to rank candidate views; the fields are plain so
// other tools can consume them too.
type OpEvent struct {
	Kind    string   // "query-view", "query-adhoc", or "delta"
	View    string   // view that answered a query (query-view only)
	SQL     string   // statement text (queries only)
	Tables  []string // FROM tables (queries only)
	GroupBy []string // grouping columns (query-adhoc only)
	Table   string   // base table (delta only)
	Rows    int      // delta row weight (delta only)
	Ns      int64    // observed latency
}

// SetOpLog installs (nil removes) the operation-log hook.
func (w *Warehouse) SetOpLog(f func(OpEvent)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opLog = f
}

// New creates an empty warehouse. Observability is on by default; see
// SetObs and ObsRegistry.
func New() *Warehouse {
	cat := schema.NewCatalog()
	return &Warehouse{
		cat:     cat,
		src:     storage.NewDB(cat),
		views:   make(map[string]*View),
		pending: make(map[string]*backfillState),
		met:     newWMetrics(),
	}
}

// Catalog returns the warehouse catalog.
func (w *Warehouse) Catalog() *schema.Catalog { return w.cat }

// Source returns the operational source database. It panics after
// DetachSources.
func (w *Warehouse) Source() *storage.DB { return w.src }

// View returns a materialized view by name, or nil.
func (w *Warehouse) View(name string) *View {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.views[name]
}

// ViewNames lists the materialized views in creation order.
func (w *Warehouse) ViewNames() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]string(nil), w.order...)
}

// DetachSources severs the operational sources: any later access to them
// panics, INSERT/DELETE/UPDATE statements fail, and changes must arrive via
// ApplyDelta — proving the views are self-maintainable.
func (w *Warehouse) DetachSources() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.detached = true
	w.src.Detach()
}

// Detached reports whether the sources are severed.
func (w *Warehouse) Detached() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.detached
}

// SetWAL installs (nil removes) a write-ahead log: every subsequent
// mutation is logged as a durable intent before it is applied, and its
// outcome recorded after.
func (w *Warehouse) SetWAL(l ChangeLog) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wal = l
}

// SetAuxStoreFactory installs (nil removes) an out-of-core backend for the
// auxiliary views: every view engine's auxiliary tables move onto stores
// produced by the factory (keyed by view and base-table name), existing
// rows migrating in place. Subsequently created or restored views get
// their stores at creation, before initialization. The in-memory
// materialized views themselves are untouched — only the auxiliary detail,
// which the paper sizes as the dominant cost (Section 1.1), is paged.
func (w *Warehouse) SetAuxStoreFactory(f func(view, table string) (maintain.AuxStore, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.auxFactory = f
	if f == nil {
		return nil
	}
	for _, name := range w.order {
		if err := w.views[name].Engine.SetAuxStores(w.adaptFactory(name)); err != nil {
			return err
		}
	}
	return nil
}

// adaptFactory curries the warehouse factory down to the per-engine shape.
// Callers hold w.mu.
func (w *Warehouse) adaptFactory(view string) func(string) (maintain.AuxStore, error) {
	f := w.auxFactory
	return func(table string) (maintain.AuxStore, error) { return f(view, table) }
}

// Close releases per-view resources — the out-of-core auxiliary stores,
// when a factory is installed. The warehouse itself stays queryable; a
// closed store rejects further maintenance.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for _, name := range w.order {
		if err := w.views[name].Engine.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LSN returns the log sequence number of the last committed mutation
// (0 when nothing was ever logged). It is lock-free.
func (w *Warehouse) LSN() uint64 { return w.lsn.Load() }

// SetLSN seeds the committed LSN — the snapshot-restore path
// (internal/persist); replay then skips every logged mutation at or below
// it.
func (w *Warehouse) SetLSN(n uint64) { w.lsn.Store(n) }

// SetFaultHook installs (nil removes) a fault-injection hook on the
// warehouse and every view engine. Tests only.
func (w *Warehouse) SetFaultHook(h *faultinject.Hook) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fi = h
	for _, name := range w.order {
		w.views[name].Engine.SetFaultHook(h)
	}
}

// Exec parses and executes a script of semicolon-separated SQL statements,
// returning the relation produced by the final statement when it is a
// SELECT (nil otherwise).
//
// Atomicity is per statement, not per script: every individual statement
// either applies fully (sources and all views) or leaves the warehouse
// unchanged, but a script that fails at statement k keeps the effects of
// statements 1..k-1. Locking is per statement too: an all-SELECT script
// holds the shared lock throughout (overlapping with other readers), while
// a script containing DDL or DML locks statement by statement — which is
// what lets CREATE MATERIALIZED VIEW run its backfill scan off-lock (see
// backfill.go) without stalling concurrent Query or ApplyDelta traffic.
// Errors identify the failing statement by its 1-based position and an
// abbreviated SQL fragment.
func (w *Warehouse) Exec(sql string) (*ra.Relation, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	// Classify the script before locking: an all-SELECT script only reads,
	// so it runs under the shared lock and overlaps with other readers —
	// taking the exclusive lock here used to serialize every remote query
	// behind every other, defeating the copy-on-write snapshot path the
	// reads were built on.
	if allSelect(stmts) {
		w.mu.RLock()
		defer w.mu.RUnlock()
		var last *ra.Relation
		for _, s := range stmts {
			last, err = w.query(s.Stmt.(*sqlparse.SelectStmt), s.SQL)
			if err != nil {
				return nil, execStmtErr(len(stmts), s, err)
			}
		}
		return last, nil
	}
	var last *ra.Relation
	for _, s := range stmts {
		last = nil
		switch st := s.Stmt.(type) {
		case *sqlparse.CreateTable:
			w.mu.Lock()
			err = w.createTable(st, s.SQL)
			w.mu.Unlock()
		case *sqlparse.CreateView:
			// The online path manages its own locking: short critical
			// sections around snapshot and install, the scan off-lock.
			err = w.createViewOnline(st, s.SQL)
		case *sqlparse.DropView:
			err = w.dropView(st, s.SQL)
		case *sqlparse.SelectStmt:
			w.mu.RLock()
			last, err = w.query(st, s.SQL)
			w.mu.RUnlock()
		case *sqlparse.Insert:
			w.mu.Lock()
			err = w.insert(st)
			w.mu.Unlock()
		case *sqlparse.Delete:
			w.mu.Lock()
			err = w.delete(st)
			w.mu.Unlock()
		case *sqlparse.Update:
			w.mu.Lock()
			err = w.update(st)
			w.mu.Unlock()
		default:
			err = fmt.Errorf("warehouse: unsupported statement %T", s.Stmt)
		}
		if err != nil {
			return nil, execStmtErr(len(stmts), s, err)
		}
	}
	return last, nil
}

// execStmtErr attributes a mid-script failure to its statement; a
// single-statement script surfaces the error undecorated.
func execStmtErr(n int, s sqlparse.ScriptStatement, err error) error {
	if n > 1 {
		return fmt.Errorf("warehouse: statement %d (%s): %w", s.Index+1, abbrevSQL(s.SQL), err)
	}
	return err
}

// allSelect reports whether every statement of a parsed script is a
// SELECT — the read-only classification Exec uses to pick the shared lock.
func allSelect(stmts []sqlparse.ScriptStatement) bool {
	for _, s := range stmts {
		if _, ok := s.Stmt.(*sqlparse.SelectStmt); !ok {
			return false
		}
	}
	return true
}

// abbrevSQL shortens a SQL fragment for error messages. The cut is backed
// off to a rune boundary so multi-byte characters (string literals in any
// language, quoted identifiers) are never split into invalid UTF-8.
func abbrevSQL(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	const max = 60
	if len(sql) <= max {
		return sql
	}
	cut := max - 3
	for cut > 0 && !utf8.RuneStart(sql[cut]) {
		cut--
	}
	return sql[:cut] + "..."
}

// MustExec is Exec for statements that must succeed (setup scripts).
func (w *Warehouse) MustExec(sql string) *ra.Relation {
	rel, err := w.Exec(sql)
	if err != nil {
		panic(err)
	}
	return rel
}

// beginDDL write-ahead-logs a DDL intent. logSQL == "" (the replay path)
// or a warehouse without a WAL log nothing; logged reports whether an
// outcome must be recorded.
func (w *Warehouse) beginDDL(logSQL string) (lsn uint64, logged bool, err error) {
	if w.wal == nil || logSQL == "" {
		return 0, false, nil
	}
	lsn, err = w.wal.BeginDDL(logSQL)
	if err != nil {
		return 0, false, fmt.Errorf("warehouse: wal append: %w", err)
	}
	return lsn, true, nil
}

// finishDDL records the outcome of a logged DDL intent and advances the
// committed LSN. A commit-record write failure is surfaced: the statement
// applied in memory but is not durable.
func (w *Warehouse) finishDDL(lsn uint64, logged bool, applyErr error) error {
	if !logged {
		return applyErr
	}
	if applyErr != nil {
		_ = w.wal.Abort(lsn)
		return applyErr
	}
	if err := w.wal.Commit(lsn); err != nil {
		return fmt.Errorf("warehouse: DDL applied in memory but WAL commit failed (not durable): %w", err)
	}
	w.lsn.Store(lsn)
	return nil
}

func (w *Warehouse) createTable(st *sqlparse.CreateTable, logSQL string) error {
	if w.detached {
		return fmt.Errorf("warehouse: sources are detached")
	}
	lsn, logged, err := w.beginDDL(logSQL)
	if err != nil {
		return err
	}
	return w.finishDDL(lsn, logged, w.applyCreateTable(st))
}

func (w *Warehouse) applyCreateTable(st *sqlparse.CreateTable) error {
	if err := w.cat.AddTable(st.Table); err != nil {
		return err
	}
	for _, fk := range st.FKs {
		if err := w.cat.AddForeignKey(fk); err != nil {
			return err
		}
	}
	w.src.Sync()
	return nil
}

func (w *Warehouse) createView(st *sqlparse.CreateView, logSQL string) error {
	if w.detached {
		return fmt.Errorf("warehouse: sources are detached; views must be created before detaching")
	}
	lsn, logged, err := w.beginDDL(logSQL)
	if err != nil {
		return err
	}
	return w.finishDDL(lsn, logged, w.applyCreateView(st))
}

func (w *Warehouse) applyCreateView(st *sqlparse.CreateView) error {
	if _, dup := w.views[st.Name]; dup {
		return fmt.Errorf("warehouse: view %s already exists", st.Name)
	}
	if _, busy := w.pending[st.Name]; busy {
		return fmt.Errorf("warehouse: view %s backfill already in progress", st.Name)
	}
	v, err := gpsj.FromSelect(w.cat, st.Name, st.Query)
	if err != nil {
		return err
	}
	plan, eng, err := w.buildEngine(v, w.AppendOnly)
	if err != nil {
		return err
	}
	if err := eng.Init(w.srcRel); err != nil {
		return err
	}
	w.views[st.Name] = w.newView(v, plan, eng)
	w.order = append(w.order, st.Name)
	w.publishViewIndex()
	return nil
}

// buildEngine derives v's plan (under the Section 4 append-only relaxation
// when asked) and builds its engine, attached to the warehouse's metrics
// and, when one is installed, its out-of-core store factory. Every CREATE,
// backfill and restore builds its engine here. Callers hold w.mu.
func (w *Warehouse) buildEngine(v *gpsj.View, appendOnly bool) (*core.Plan, *maintain.Engine, error) {
	derive := core.Derive
	if appendOnly {
		derive = core.DeriveAppendOnly
	}
	plan, err := derive(v)
	if err != nil {
		return nil, nil, err
	}
	eng, err := maintain.NewEngine(plan)
	if err != nil {
		return nil, nil, err
	}
	if !w.obsTimingOff {
		eng.SetMetrics(w.met.engineMet)
	}
	if w.auxFactory != nil {
		if err := eng.SetAuxStores(w.adaptFactory(v.Name)); err != nil {
			_ = eng.Close() // releases the stores already swapped in; err is the failure to report
			return nil, nil, err
		}
	}
	return plan, eng, nil
}

// newView wraps a maintained view at a fresh version.
func (w *Warehouse) newView(def *gpsj.View, plan *core.Plan, eng *maintain.Engine) *View {
	mv := &View{Def: def, Plan: plan, Engine: eng}
	mv.ver.Store(w.versions.Add(1))
	return mv
}

// publishViewIndex republishes the copy-on-write view index. Callers hold
// w.mu.
func (w *Warehouse) publishViewIndex() {
	idx := make(map[string]*View, len(w.views))
	for n, v := range w.views {
		idx[n] = v
	}
	w.viewIdx.Store(&idx)
}

func (w *Warehouse) srcRel(table string) *ra.Relation {
	return ra.FromTable(w.src.Table(table), table)
}

// RestoreView re-creates a materialized view from a persisted state
// snapshot instead of initializing it from the sources — the restart path
// (see internal/persist). The view definition is re-derived (append-only
// when the snapshot says so) and the engine's auxiliary tables and
// component rows are loaded directly.
func (w *Warehouse) RestoreView(name, selectSQL string, appendOnly bool, st *maintain.State) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.views[name]; dup {
		return fmt.Errorf("warehouse: view %s already exists", name)
	}
	s, err := sqlparse.Parse(selectSQL)
	if err != nil {
		return err
	}
	sel, ok := s.(*sqlparse.SelectStmt)
	if !ok {
		return fmt.Errorf("warehouse: view %s definition is not a SELECT", name)
	}
	v, err := gpsj.FromSelect(w.cat, name, sel)
	if err != nil {
		return err
	}
	plan, eng, err := w.buildEngine(v, appendOnly)
	if err != nil {
		return err
	}
	if err := eng.ImportState(st); err != nil {
		return err
	}
	w.views[name] = w.newView(v, plan, eng)
	w.order = append(w.order, name)
	w.publishViewIndex()
	return nil
}

// query answers an ad hoc SELECT: against a materialized view when the
// FROM clause names one, otherwise by direct evaluation over the sources.
// sql is the statement text, recorded in the op log for the advisor.
func (w *Warehouse) query(st *sqlparse.SelectStmt, sql string) (rel *ra.Relation, err error) {
	var start time.Time
	if w.opLog != nil {
		start = time.Now()
	}
	if len(st.From) == 1 {
		if mv := w.views[st.From[0]]; mv != nil {
			// Only full-view reads are supported against materialized
			// views; richer queries would re-aggregate.
			if len(st.Where) > 0 || len(st.GroupBy) > 0 {
				return nil, fmt.Errorf("warehouse: only plain SELECT over a materialized view is supported")
			}
			rel, err := mv.Def.ApplyHaving(mv.Engine.Snapshot())
			if err == nil && w.opLog != nil {
				w.opLog(OpEvent{Kind: "query-view", View: st.From[0], SQL: sql,
					Tables: append([]string(nil), st.From...),
					Ns:     time.Since(start).Nanoseconds()})
			}
			return rel, err
		}
	}
	v, err := gpsj.FromSelect(w.cat, "adhoc", st)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == nil && w.opLog != nil {
			groupBy := make([]string, 0, len(st.GroupBy))
			for _, g := range st.GroupBy {
				groupBy = append(groupBy, g.String())
			}
			w.opLog(OpEvent{Kind: "query-adhoc", SQL: sql,
				Tables:  append([]string(nil), st.From...),
				GroupBy: groupBy,
				Ns:      time.Since(start).Nanoseconds()})
		}
	}()
	if w.detached {
		// The sources are gone, but an aggregate navigator can still
		// answer the query from a materialized view's auxiliary detail
		// when one covers it (internal/answer).
		var reasons []string
		for _, name := range w.order {
			mv := w.views[name]
			if ok, why := answer.Answerable(mv.Plan, v); !ok {
				reasons = append(reasons, fmt.Sprintf("%s: %s", name, why))
				continue
			}
			aux := make(map[string]*ra.Relation)
			for _, t := range mv.Def.Tables {
				if at := mv.Engine.Aux(t); at != nil {
					aux[t] = at.Relation()
				}
			}
			return answer.Answer(mv.Plan, v, aux)
		}
		return nil, fmt.Errorf("warehouse: sources are detached and no materialized view's detail covers this query (%s)",
			strings.Join(reasons, "; "))
	}
	return v.Evaluate(w.src)
}

func (w *Warehouse) insert(st *sqlparse.Insert) error {
	if w.detached {
		return fmt.Errorf("warehouse: sources are detached; use ApplyDelta")
	}
	meta := w.cat.Table(st.Table)
	if meta == nil {
		return fmt.Errorf("warehouse: unknown table %s", st.Table)
	}
	d := maintain.Delta{Table: st.Table}
	undo := func(upTo int) {
		for i := upTo - 1; i >= 0; i-- {
			_ = w.src.UndoInsert(st.Table, d.Inserts[i][meta.KeyIndex()])
		}
	}
	for _, vals := range st.Rows {
		row := tuple.Tuple(vals)
		if err := w.src.Insert(st.Table, row); err != nil {
			undo(len(d.Inserts))
			return err
		}
		d.Inserts = append(d.Inserts, row)
	}
	if err := w.sourceApplied(d); err != nil {
		undo(len(d.Inserts))
		return err
	}
	return nil
}

// sourceApplied fires the post-source-mutation injection point and then
// propagates; callers undo their source mutations when it fails, making
// DML statements atomic across the sources and every view.
func (w *Warehouse) sourceApplied(d maintain.Delta) error {
	if err := w.fi.Fire(faultinject.SourceApplied); err != nil {
		return err
	}
	return w.logAndPropagate(d, true)
}

// logAndPropagate wraps propagate with write-ahead logging: the intent is
// appended (and per policy fsynced) before any view stages the delta, the
// outcome after. On rollback the abort record is best-effort — a missing
// outcome reads as not-committed at recovery, which is exactly right.
func (w *Warehouse) logAndPropagate(d maintain.Delta, srcApplied bool) error {
	if w.wal == nil {
		return w.propagate(d)
	}
	lsn, err := w.logIntent(d, srcApplied)
	if err != nil {
		return err
	}
	if err := w.propagate(d); err != nil {
		_ = w.wal.Abort(lsn)
		return err
	}
	if err := w.wal.Commit(lsn); err != nil {
		// The views applied the delta in memory but its commit record is
		// not durable: surface the failure so the caller knows a crash now
		// would lose this (un-acknowledged) mutation at recovery.
		return fmt.Errorf("warehouse: delta applied in memory but WAL commit failed (not durable): %w", err)
	}
	w.lsn.Store(lsn)
	return nil
}

// logIntent appends d's intent (durable per the log's policy) and fires
// WALLogged, aborting the intent if the injection fails. The caller applies
// d only when it returns nil.
func (w *Warehouse) logIntent(d maintain.Delta, srcApplied bool) (uint64, error) {
	lsn, err := w.wal.BeginDelta(d, srcApplied)
	if err != nil {
		return 0, fmt.Errorf("warehouse: wal append: %w", err)
	}
	if err := w.fi.Fire(faultinject.WALLogged); err != nil {
		_ = w.wal.Abort(lsn)
		return 0, err
	}
	return lsn, nil
}

// ReplayDelta re-applies a logged, committed delta during recovery: the
// source tables first (when the delta originally mutated them and the
// warehouse is attached), then the existing propagate path, so views and
// auxiliary views end bit-identical to a never-crashed run. Replay is
// idempotent — deltas at or below the committed LSN (already captured by
// the snapshot) are skipped — and never write-ahead-logged again.
func (w *Warehouse) ReplayDelta(lsn uint64, d maintain.Delta, srcApplied bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn <= w.lsn.Load() {
		return nil
	}
	if w.cat.Table(d.Table) == nil {
		return fmt.Errorf("warehouse: replay lsn %d: unknown table %s", lsn, d.Table)
	}
	var undo func()
	if srcApplied && !w.detached {
		var err error
		if undo, err = w.replaySource(d); err != nil {
			return fmt.Errorf("warehouse: replay lsn %d: %w", lsn, err)
		}
	}
	if err := w.propagate(d); err != nil {
		if undo != nil {
			undo()
		}
		return fmt.Errorf("warehouse: replay lsn %d: %w", lsn, err)
	}
	w.lsn.Store(lsn)
	return nil
}

// replaySource re-applies a delta's source-table mutations, returning an
// undo that reverts them in reverse order (used when the subsequent
// propagation fails).
func (w *Warehouse) replaySource(d maintain.Delta) (func(), error) {
	meta := w.cat.Table(d.Table)
	var undos []func()
	undoAll := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	}
	for _, r := range d.Inserts {
		if err := w.src.Insert(d.Table, r); err != nil {
			undoAll()
			return nil, err
		}
		key := r[meta.KeyIndex()]
		undos = append(undos, func() { _ = w.src.UndoInsert(d.Table, key) })
	}
	for _, r := range d.Deletes {
		del, err := w.src.Delete(d.Table, r[meta.KeyIndex()])
		if err != nil {
			undoAll()
			return nil, err
		}
		undos = append(undos, func() { _ = w.src.UndoDelete(d.Table, del) })
	}
	for _, u := range d.Updates {
		// Forward-apply the update by swapping in the new image under the
		// (unchanged) key; the update was validated when first applied.
		key := u.Old[meta.KeyIndex()]
		newImg := u.New
		if err := w.src.UndoUpdate(d.Table, key, newImg); err != nil {
			undoAll()
			return nil, err
		}
		oldImg := u.Old
		undos = append(undos, func() { _ = w.src.UndoUpdate(d.Table, key, oldImg) })
	}
	return undoAll, nil
}

// ReplayDDL re-executes a logged, committed DDL statement during recovery
// without logging it again. Like ReplayDelta it is idempotent by LSN.
func (w *Warehouse) ReplayDDL(lsn uint64, sql string) error {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return fmt.Errorf("warehouse: replay lsn %d: %w", lsn, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn <= w.lsn.Load() {
		return nil
	}
	for _, s := range stmts {
		switch st := s.Stmt.(type) {
		case *sqlparse.CreateTable:
			err = w.createTable(st, "")
		case *sqlparse.CreateView:
			err = w.createView(st, "")
		case *sqlparse.DropView:
			err = w.applyDropView(st)
		default:
			err = fmt.Errorf("unsupported logged DDL %T", s.Stmt)
		}
		if err != nil {
			return fmt.Errorf("warehouse: replay lsn %d: %w", lsn, err)
		}
	}
	w.lsn.Store(lsn)
	return nil
}

// matchRows returns the source rows of a table matching a conjunctive
// condition.
func (w *Warehouse) matchRows(table string, conds []ra.Comparison) ([]tuple.Tuple, error) {
	meta := w.cat.Table(table)
	if meta == nil {
		return nil, fmt.Errorf("warehouse: unknown table %s", table)
	}
	cols := make(ra.Schema, len(meta.Attrs))
	for i, a := range meta.Attrs {
		cols[i] = ra.Col{Table: table, Name: a.Name}
	}
	resolved := make([]ra.Comparison, len(conds))
	for i, c := range conds {
		resolved[i] = c
	}
	pred, err := ra.BindAll(resolved, cols)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	var perr error
	w.src.Table(table).Scan(func(r tuple.Tuple) {
		ok, err := pred(r)
		if err != nil {
			perr = err
			return
		}
		if ok {
			out = append(out, r)
		}
	})
	return out, perr
}

func (w *Warehouse) delete(st *sqlparse.Delete) error {
	if w.detached {
		return fmt.Errorf("warehouse: sources are detached; use ApplyDelta")
	}
	rows, err := w.matchRows(st.Table, st.Where)
	if err != nil {
		return err
	}
	meta := w.cat.Table(st.Table)
	d := maintain.Delta{Table: st.Table}
	undo := func(upTo int) {
		for i := upTo - 1; i >= 0; i-- {
			_ = w.src.UndoDelete(st.Table, d.Deletes[i])
		}
	}
	for _, r := range rows {
		del, err := w.src.Delete(st.Table, r[meta.KeyIndex()])
		if err != nil {
			undo(len(d.Deletes))
			return err
		}
		d.Deletes = append(d.Deletes, del)
	}
	if err := w.sourceApplied(d); err != nil {
		undo(len(d.Deletes))
		return err
	}
	return nil
}

func (w *Warehouse) update(st *sqlparse.Update) error {
	if w.detached {
		return fmt.Errorf("warehouse: sources are detached; use ApplyDelta")
	}
	rows, err := w.matchRows(st.Table, st.Where)
	if err != nil {
		return err
	}
	meta := w.cat.Table(st.Table)
	set := make(map[string]types.Value, len(st.Set))
	for _, a := range st.Set {
		set[a.Column] = a.Value
	}
	d := maintain.Delta{Table: st.Table}
	undo := func(upTo int) {
		for i := upTo - 1; i >= 0; i-- {
			u := d.Updates[i]
			_ = w.src.UndoUpdate(st.Table, u.New[meta.KeyIndex()], u.Old)
		}
	}
	for _, r := range rows {
		old, upd, err := w.src.Update(st.Table, r[meta.KeyIndex()], set)
		if err != nil {
			undo(len(d.Updates))
			return err
		}
		d.Updates = append(d.Updates, maintain.Update{Old: old, New: upd})
	}
	if err := w.sourceApplied(d); err != nil {
		undo(len(d.Updates))
		return err
	}
	return nil
}

// propagate applies a delta to every materialized view's engine,
// atomically across views, through maintain.Propagate: the engines stage
// on a pool as wide as GOMAXPROCS, then all commit, or the staged ones roll
// back newest-first so no view ever reflects a delta that others rejected.
// The PropagateView injection point fires on this goroutine in view order,
// so fault sweeps visit it deterministically however staging fans out.
// Snapshot versions are bumped only after every engine has committed, so
// readers on the lock-free Query path never observe a half-propagated
// delta.
func (w *Warehouse) propagate(d maintain.Delta) error {
	n := len(w.order)
	if n == 0 {
		w.feedBackfills(d)
		return nil
	}
	var start time.Time
	if !w.obsTimingOff || w.opLog != nil {
		start = time.Now()
	}
	engines := make([]*maintain.Engine, n)
	for i, name := range w.order {
		engines[i] = w.views[name].Engine
	}
	fire := func(int) error { return w.fi.Fire(faultinject.PropagateView) }
	stagedN, err := maintain.Propagate(engines, d, fire, w.met.poolOcc)
	w.met.viewsStaged.Add(int64(stagedN))
	if err == nil {
		// Invalidate cached snapshots, but only of views the delta can
		// actually change: the rest keep serving their snapshot untouched.
		invalidated := int64(0)
		for _, name := range w.order {
			if mv := w.views[name]; mv.Engine.References(d.Table) {
				mv.ver.Store(w.versions.Add(1))
				invalidated++
			}
		}
		w.feedBackfills(d)
		w.met.viewsCommitted.Add(int64(n))
		w.met.snapInvalidated.Add(invalidated)
		w.met.propagates.Inc()
		if !w.obsTimingOff {
			w.met.propagateNs.ObserveSince(start)
		}
		if w.opLog != nil {
			w.opLog(OpEvent{Kind: "delta", Table: d.Table,
				Rows: len(d.Inserts) + len(d.Deletes) + 2*len(d.Updates),
				Ns:   time.Since(start).Nanoseconds()})
		}
		return nil
	}
	// Versions were never bumped, so cached snapshots stay valid — readers
	// never saw the delta.
	w.met.viewsRolledBack.Add(int64(stagedN))
	w.met.propagateErrs.Inc()
	if !w.obsTimingOff {
		w.met.propagateNs.ObserveSince(start)
	}
	return fmt.Errorf("warehouse: %w", err)
}

// ImportCSV bulk-loads CSV rows into a source table and propagates them to
// every materialized view in batches. With header set the first record
// names the columns.
//
// Partial-failure contract: the returned count is the number of rows that
// are DURABLY committed — present in the source table AND reflected in
// every materialized view. Import is atomic per batch, not per file: when
// a batch fails (malformed row, rejected delta, injected fault), earlier
// batches stay committed, the failing batch is removed from the source
// again (each view engine's undo journal has already rolled the views
// back), and source and views agree on exactly the returned prefix.
func (w *Warehouse) ImportCSV(table string, r io.Reader, header bool) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.detached {
		return 0, fmt.Errorf("warehouse: sources are detached")
	}
	meta := w.cat.Table(table)
	if meta == nil {
		return 0, fmt.Errorf("warehouse: unknown table %s", table)
	}
	const batch = 1024
	var pending []tuple.Tuple
	flushed := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		// Hand propagate an owned slice: engines may retain delta rows
		// (Need-set joins, aux contents reference them), so the batch
		// buffer must never be reused for later rows.
		d := maintain.Delta{Table: table, Inserts: pending}
		if err := w.sourceApplied(d); err != nil {
			// The views rejected (or a fault aborted) this batch; remove
			// its rows from the source again so sources and views agree.
			// Clearing pending is essential: the error-path flush() retry
			// below would otherwise re-propagate rows that were just undone
			// from the source, silently diverging views from sources.
			for i := len(pending) - 1; i >= 0; i-- {
				_ = w.src.UndoInsert(table, pending[i][meta.KeyIndex()])
			}
			pending = nil
			return err
		}
		flushed += len(pending)
		pending = nil
		return nil
	}
	n, err := csvload.Read(meta, r, header, func(row tuple.Tuple) error {
		if err := w.src.Insert(table, row); err != nil {
			return err
		}
		pending = append(pending, row)
		if len(pending) >= batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		// Batches already propagated stay; flush the remainder so the
		// views match the source even on partial loads. A failed final
		// flush undoes its own batch, so `flushed` rows remain either way.
		if ferr := flush(); ferr != nil {
			return flushed, ferr
		}
		return flushed, err
	}
	if ferr := flush(); ferr != nil {
		return flushed, ferr
	}
	return n, nil
}

// Query returns the current contents of a materialized view: QuerySince
// with no version held.
func (w *Warehouse) Query(view string) (*ra.Relation, error) {
	rel, _, err := w.QuerySince(view, 0)
	return rel, err
}

// QuerySince returns the contents of a materialized view and the version
// they are at, unless the caller already holds that version (since): then
// the relation is nil and nothing was read. since 0 holds no version.
//
// The returned relation is an immutable published snapshot shared between
// callers: treat it as read-only. The path is lock-free while the cached
// snapshot is current — while a delta is being applied, readers are served
// the pre-delta snapshot without blocking, and the post-delta state becomes
// visible only after every view committed, so a reader never observes a
// torn or half-propagated view.
func (w *Warehouse) QuerySince(view string, since uint64) (*ra.Relation, uint64, error) {
	var mv *View
	if idx := w.viewIdx.Load(); idx != nil {
		mv = (*idx)[view]
	}
	if mv == nil {
		return nil, 0, fmt.Errorf("warehouse: unknown view %s", view)
	}
	ver := mv.ver.Load()
	if since != 0 && since == ver {
		w.met.queryUnchanged.Inc()
		return nil, ver, nil
	}
	if s := mv.snap.Load(); s != nil && s.ver == ver {
		// One atomic add keeps the fast path lock-free.
		w.met.queryHits.Inc()
		return s.rel, ver, nil
	}
	return w.rebuildSnap(mv)
}

// rebuildSnap materializes and publishes a fresh snapshot of mv, returning
// it with its version. The read lock excludes writers (propagation runs
// under the write lock), so the engine state is stable and corresponds
// exactly to the version read here; concurrent rebuilds of the same
// version store interchangeable snapshots.
func (w *Warehouse) rebuildSnap(mv *View) (*ra.Relation, uint64, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.met.queryRebuilds.Inc()
	ver := mv.ver.Load()
	rel, err := mv.Def.ApplyHaving(mv.Engine.Snapshot())
	if err != nil {
		return nil, 0, err
	}
	mv.snap.Store(&viewSnap{ver: ver, rel: rel})
	w.met.snapPublished.Inc()
	return rel, ver, nil
}

// Verify recomputes every view from the sources and compares. It fails
// when sources are detached (there is nothing to verify against).
func (w *Warehouse) Verify() error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.detached {
		return fmt.Errorf("warehouse: cannot verify against detached sources")
	}
	for _, name := range w.order {
		mv := w.views[name]
		want, err := mv.Def.Evaluate(w.src)
		if err != nil {
			return err
		}
		got, err := mv.Def.ApplyHaving(mv.Engine.Snapshot())
		if err != nil {
			return err
		}
		if !ra.EqualBag(got, want) {
			return fmt.Errorf("warehouse: view %s diverged from recomputation", name)
		}
	}
	return nil
}

// StorageReport summarizes, per view, the paper's storage comparison: the
// size of the referenced base tables versus the auxiliary views actually
// stored in the warehouse.
type StorageReport struct {
	View          string
	BaseRows      int
	BaseBytes     int
	AuxRows       int
	AuxBytes      int
	ViewRows      int
	ViewBytes     int
	OmittedTables []string
}

// Report computes storage reports for all views. Base sizes require
// attached sources; when detached only auxiliary sizes are filled.
func (w *Warehouse) Report() []StorageReport {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []StorageReport
	for _, name := range w.order {
		mv := w.views[name]
		r := StorageReport{View: name}
		for _, t := range mv.Def.Tables {
			if !w.detached {
				tab := w.src.Table(t)
				r.BaseRows += tab.Len()
				r.BaseBytes += tab.Bytes()
			}
			if aux := mv.Engine.Aux(t); aux != nil {
				r.AuxRows += aux.Len()
				r.AuxBytes += aux.Bytes()
			} else {
				r.OmittedTables = append(r.OmittedTables, t)
			}
		}
		sort.Strings(r.OmittedTables)
		r.ViewRows = mv.Engine.Groups()
		r.ViewBytes = mv.Engine.ViewBytes()
		out = append(out, r)
	}
	return out
}

// FormatReport renders storage reports as a table.
func FormatReport(reports []StorageReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %12s %12s %12s %10s\n",
		"view", "base rows", "base bytes", "aux rows", "aux bytes", "reduction")
	for _, r := range reports {
		red := "n/a"
		if r.AuxBytes > 0 && r.BaseBytes > 0 {
			red = fmt.Sprintf("%.1fx", float64(r.BaseBytes)/float64(r.AuxBytes))
		}
		fmt.Fprintf(&b, "%-20s %12d %12d %12d %12d %10s\n",
			r.View, r.BaseRows, r.BaseBytes, r.AuxRows, r.AuxBytes, red)
		if len(r.OmittedTables) > 0 {
			fmt.Fprintf(&b, "%-20s   omitted auxiliary views: %s\n", "", strings.Join(r.OmittedTables, ", "))
		}
	}
	return b.String()
}
