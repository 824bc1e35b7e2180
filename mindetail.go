// Package mindetail is a from-scratch Go implementation of
//
//	M. O. Akinde, O. G. Jensen, and M. H. Böhlen.
//	"Minimizing Detail Data in Data Warehouses." EDBT 1998.
//
// It derives, for a materialized GPSJ view (a generalized project-select-
// join view: grouping and aggregation over selections over key joins), the
// unique minimal set of auxiliary views such that the view and the
// auxiliary views together are self-maintainable — maintainable under
// insertions, deletions, and updates to the base tables without ever
// accessing the sources. The derivation combines local reductions, join
// reductions, and the paper's smart duplicate compression, and omits
// auxiliary views (typically the huge fact table's) when the Section 3.3
// elimination conditions hold.
//
// The top-level entry point is the Warehouse, driven by a small SQL
// dialect:
//
//	w := mindetail.New()
//	w.MustExec(`CREATE TABLE sale (id INTEGER PRIMARY KEY, ...)`)
//	w.MustExec(`CREATE MATERIALIZED VIEW product_sales AS SELECT ...`)
//	w.MustExec(`INSERT INTO sale VALUES (...)`)   // propagates to the view
//	rel, err := w.Query("product_sales")
//
// After w.DetachSources() the operational sources become unreachable and
// changes arrive as explicit deltas via w.ApplyDelta — the scenario the
// paper targets.
//
// The exported names below are stable aliases into the implementation
// packages; see DESIGN.md for the package map.
package mindetail

import (
	"fmt"
	"io"
	"sort"

	"mindetail/internal/core"
	"mindetail/internal/gpsj"
	"mindetail/internal/maintain"
	"mindetail/internal/persist"
	"mindetail/internal/ra"
	"mindetail/internal/schema"
	"mindetail/internal/sizing"
	"mindetail/internal/sqlparse"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// Warehouse owns sources, catalog, and materialized views (see
// internal/warehouse).
type Warehouse = warehouse.Warehouse

// StorageReport summarizes base-versus-auxiliary storage per view.
type StorageReport = warehouse.StorageReport

// New creates an empty warehouse.
func New() *Warehouse { return warehouse.New() }

// FormatReport renders storage reports as a table.
func FormatReport(reports []StorageReport) string { return warehouse.FormatReport(reports) }

// Value is a scalar runtime value; build them with Int, Float, Str, Bool.
type Value = types.Value

// Int returns an integer value.
func Int(v int64) Value { return types.Int(v) }

// Float returns a float value.
func Float(v float64) Value { return types.Float(v) }

// Str returns a string value.
func Str(v string) Value { return types.Str(v) }

// Bool returns a boolean value.
func Bool(v bool) Value { return types.Bool(v) }

// Tuple is a row of values.
type Tuple = tuple.Tuple

// Relation is a materialized result with a schema; Format renders it.
type Relation = ra.Relation

// Delta is a change to one base table, for ApplyDelta after detaching.
type Delta = maintain.Delta

// Update is one in-place row update with old and new images.
type Update = maintain.Update

// View is a validated GPSJ view definition.
type View = gpsj.View

// Plan is the result of the paper's Algorithm 3.2: the extended join graph
// and one (possibly omitted) auxiliary view per base table.
type Plan = core.Plan

// AuxView is one derived auxiliary view.
type AuxView = core.AuxView

// Catalog holds base-table schemas and integrity constraints.
type Catalog = schema.Catalog

// Derive parses a view body against a catalog and runs the paper's
// derivation, without materializing anything — for inspecting what the
// minimal detail data for a view would be.
func Derive(cat *Catalog, name, selectSQL string) (*Plan, error) {
	s, err := sqlparse.Parse(selectSQL)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("mindetail: Derive expects a SELECT statement, got %T", s)
	}
	v, err := gpsj.FromSelect(cat, name, sel)
	if err != nil {
		return nil, err
	}
	return core.Derive(v)
}

// DeriveAppendOnly is Derive under the paper's Section 4 append-only
// relaxation: base tables only receive insertions, so MIN/MAX become
// completely self-maintainable and compress into the auxiliary views.
func DeriveAppendOnly(cat *Catalog, name, selectSQL string) (*Plan, error) {
	s, err := sqlparse.Parse(selectSQL)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("mindetail: DeriveAppendOnly expects a SELECT statement, got %T", s)
	}
	v, err := gpsj.FromSelect(cat, name, sel)
	if err != nil {
		return nil, err
	}
	return core.DeriveAppendOnly(v)
}

// SharedPlan is the minimal detail data for a class of views (the
// Section 4 generalization): one auxiliary-view set serving them all.
type SharedPlan = core.SharedPlan

// DeriveShared derives one shared minimal auxiliary-view set for a class
// of views, each given as "name: SELECT ...".
func DeriveShared(cat *Catalog, views map[string]string) (*SharedPlan, error) {
	var vs []*gpsj.View
	// Deterministic order by name.
	names := make([]string, 0, len(views))
	for n := range views {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s, err := sqlparse.Parse(views[n])
		if err != nil {
			return nil, err
		}
		sel, ok := s.(*sqlparse.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("mindetail: view %s is not a SELECT", n)
		}
		v, err := gpsj.FromSelect(cat, n, sel)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return core.DeriveShared(vs)
}

// Save snapshots the warehouse state to a writer; with includeSources the
// source tables are written too and the restored warehouse starts
// attached, otherwise it restores detached (sources are external, per the
// paper's architecture).
func Save(w *Warehouse, out io.Writer, includeSources bool) error {
	return persist.Save(w, out, includeSources)
}

// Load restores a warehouse from a snapshot written by Save.
func Load(in io.Reader) (*Warehouse, error) { return persist.Load(in) }

// Durable is a warehouse bound to an on-disk directory holding a snapshot
// and a write-ahead log: every mutation is logged before it is applied, so
// a crash at any instant loses nothing that was acknowledged (see
// internal/wal and DESIGN.md §10).
type Durable = wal.Durable

// DurableOptions configures OpenDurable (fsync policy).
type DurableOptions = wal.Options

// Sync policies for the write-ahead log, strongest first.
const (
	// SyncAlways fsyncs every record — intents and outcomes.
	SyncAlways = wal.SyncAlways
	// SyncCommit fsyncs once per durable mutation, on the commit record.
	SyncCommit = wal.SyncCommit
	// SyncNever leaves flushing to the OS (tests and benchmarks).
	SyncNever = wal.SyncNever
)

// OpenDurable opens (or creates) a durable warehouse in dir. Recovery is
// automatic: the snapshot is restored and the committed suffix of the log
// is replayed through the normal maintenance path. Call Checkpoint to
// compact the log and Close to release the directory.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) { return wal.Open(dir, opts) }

// RetailParams sizes the paper's Section 1.1 retail workload.
type RetailParams = workload.RetailParams

// PaperRetailParams returns the paper's full-scale case-study parameters
// (13.14 billion fact tuples).
func PaperRetailParams() RetailParams { return workload.PaperParams() }

// SizeModel is the paper's tuples × fields × 4 bytes storage estimate.
type SizeModel = sizing.Model
