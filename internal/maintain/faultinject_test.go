package maintain

import (
	"errors"
	"fmt"
	"testing"

	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// deepClone copies a relation including its tuples, so a capture survives
// in-place mutation of the live rows it was taken from.
func deepClone(r *ra.Relation) *ra.Relation {
	out := &ra.Relation{Cols: append(ra.Schema(nil), r.Cols...)}
	out.Rows = make([]tuple.Tuple, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// engineCapture is a deep snapshot of an engine's user-visible state: the
// materialized view and every auxiliary table.
type engineCapture struct {
	snap *ra.Relation
	aux  map[string]*ra.Relation
}

func captureEngine(e *Engine, tables []string) engineCapture {
	c := engineCapture{snap: deepClone(e.Snapshot()), aux: make(map[string]*ra.Relation)}
	for _, tb := range tables {
		if at := e.Aux(tb); at != nil {
			c.aux[tb] = deepClone(at.Relation())
		}
	}
	return c
}

// requireUnchanged asserts the engine's state is bit-identical to the
// capture and that every auxiliary index is consistent with its rows.
func (c engineCapture) requireUnchanged(t *testing.T, e *Engine, tables []string, when string) {
	t.Helper()
	if got := e.Snapshot(); !ra.EqualBag(got, c.snap) {
		t.Fatalf("%s: materialized view changed after failed apply\nbefore:\n%s\nafter:\n%s",
			when, c.snap.Format(), got.Format())
	}
	for _, tb := range tables {
		at := e.Aux(tb)
		if at == nil {
			if _, had := c.aux[tb]; had {
				t.Fatalf("%s: auxiliary table %s disappeared", when, tb)
			}
			continue
		}
		if got := at.Relation(); !ra.EqualBag(got, c.aux[tb]) {
			t.Fatalf("%s: auxiliary table %s changed after failed apply\nbefore:\n%s\nafter:\n%s",
				when, tb, c.aux[tb].Format(), got.Format())
		}
		if err := at.CheckIndexes(); err != nil {
			t.Fatalf("%s: auxiliary table %s index inconsistent after rollback: %v", when, tb, err)
		}
	}
}

// sweepApply applies delta d to the engine with a fault injected at the
// N-th injection point, for N = 1, 2, ... until the apply commits without
// firing. After every injected failure the engine's state must be
// bit-identical to the pre-delta capture. The final, clean apply leaves the
// delta committed exactly once.
func sweepApply(t *testing.T, f *fixture, d Delta) {
	t.Helper()
	tables := f.view.Tables
	const limit = 100000
	for failAt := int64(1); failAt <= limit; failAt++ {
		before := captureEngine(f.engine, tables)
		h := faultinject.NewHook(failAt)
		f.engine.SetFaultHook(h)
		err := f.engine.Apply(d)
		f.engine.SetFaultHook(nil)
		if err == nil {
			if p, fired := h.Fired(); fired {
				t.Fatalf("hook fired at %s but Apply succeeded", p)
			}
			f.check(fmt.Sprintf("after swept delta on %s (visits=%d)", d.Table, h.Visits()))
			return
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("failAt=%d: apply failed with a genuine error: %v", failAt, err)
		}
		p, _ := h.Fired()
		before.requireUnchanged(t, f.engine, tables,
			fmt.Sprintf("failAt=%d (%s)", failAt, p))
	}
	t.Fatalf("sweep did not terminate within %d injection points", limit)
}

// TestFaultInjectionEngine drives a corpus of deltas — inserts, deletes,
// updates, dimension changes, and batches — through the retail view,
// injecting a failure at every reachable injection point of every delta and
// asserting the engine rolls back to its exact pre-delta state each time.
func TestFaultInjectionEngine(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()

	mustInsert := func(table string, vals ...types.Value) tuple.Tuple {
		t.Helper()
		row := tuple.Tuple(vals)
		if err := f.db.Insert(table, row); err != nil {
			t.Fatal(err)
		}
		return row
	}

	// Fact insert (SMA fast path + DISTINCT recompute).
	row := mustInsert("sale", types.Int(2001), types.Int(2), types.Int(102), types.Int(8), types.Float(21))
	sweepApply(t, f, Delta{Table: "sale", Inserts: []tuple.Tuple{row}})

	// Batched fact inserts, one creating a fresh group.
	r2 := mustInsert("sale", types.Int(2002), types.Int(4), types.Int(100), types.Int(7), types.Float(3))
	r3 := mustInsert("sale", types.Int(2003), types.Int(4), types.Int(101), types.Int(8), types.Float(4))
	sweepApply(t, f, Delta{Table: "sale", Inserts: []tuple.Tuple{r2, r3}})

	// Fact update (delete+insert pair through the journal).
	old, upd, err := f.db.Update("sale", types.Int(4), map[string]types.Value{"price": types.Float(70)})
	if err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}})

	// Dimension update on a condition-free mutable attribute (brand feeds
	// COUNT(DISTINCT brand): exercises the recompute path).
	old, upd, err = f.db.Update("product", types.Int(100), map[string]types.Value{"brand": types.Str("apex")})
	if err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})

	// Fact delete that shrinks a group.
	del, err := f.db.Delete("sale", types.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "sale", Deletes: []tuple.Tuple{del}})

	// Dimension insert + delete (unreferenced time row).
	trow := mustInsert("time", types.Int(40), types.Int(9), types.Int(3), types.Int(1997))
	sweepApply(t, f, Delta{Table: "time", Inserts: []tuple.Tuple{trow}})
	del, err = f.db.Delete("time", types.Int(40))
	if err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "time", Deletes: []tuple.Tuple{del}})
}

// TestFaultInjectionMinMax sweeps the MIN/MAX recomputation path: deleting
// a group's extremum forces recomputeGroups, whose delete-then-install
// window is a prime partial-apply hazard.
func TestFaultInjectionMinMax(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT sale.productid, MAX(sale.price) AS hi, MIN(sale.price) AS lo,
		       SUM(sale.price) AS total, COUNT(*) AS cnt
		FROM sale GROUP BY sale.productid`, true)
	f.seedRetail()
	f.initEngine()

	row := tuple.Tuple{types.Int(2001), types.Int(1), types.Int(100), types.Int(7), types.Float(500)}
	if err := f.db.Insert("sale", row); err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "sale", Inserts: []tuple.Tuple{row}})

	// Deleting the new maximum forces partial recomputation of its group.
	del, err := f.db.Delete("sale", types.Int(2001))
	if err != nil {
		t.Fatal(err)
	}
	sweepApply(t, f, Delta{Table: "sale", Deletes: []tuple.Tuple{del}})
	if f.engine.Stats().GroupRecomputes == 0 {
		t.Fatal("sweep never exercised the recompute path")
	}
}

// TestFaultInjectionAppendOnly sweeps an append-only engine, where MIN/MAX
// compress into the auxiliary view and Adjust raises extrema in place.
func TestFaultInjectionAppendOnly(t *testing.T) {
	f := appendOnlyFixture(t, minMaxSQL)
	f.seedRetail()
	f.initEngine()

	for i, price := range []float64{500, 0.5, 42} {
		row := tuple.Tuple{types.Int(int64(3001 + i)), types.Int(2), types.Int(101), types.Int(8), types.Float(price)}
		if err := f.db.Insert("sale", row); err != nil {
			t.Fatal(err)
		}
		sweepApply(t, f, Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
	}
}

// TestMalformedDeltasLeaveStateUntouched feeds structurally invalid deltas
// to a live engine and asserts every one is rejected by the validate-first
// pass with zero state change — the "garbage in, nothing out" contract.
func TestMalformedDeltasLeaveStateUntouched(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()

	short := tuple.Tuple{types.Int(9000), types.Int(1)} // arity 2, want 5
	long := tuple.Tuple{types.Int(9001), types.Int(1), types.Int(100), types.Int(7), types.Float(1), types.Float(2)}
	good := tuple.Tuple{types.Int(9002), types.Int(1), types.Int(100), types.Int(7), types.Float(5)}
	sale1 := tuple.Tuple{types.Int(1), types.Int(1), types.Int(100), types.Int(7), types.Float(10)}
	rekeyed := tuple.Tuple{types.Int(901), types.Int(1), types.Int(100), types.Int(7), types.Float(11)}

	cases := []struct {
		name string
		d    Delta
	}{
		{"insert short row", Delta{Table: "sale", Inserts: []tuple.Tuple{short}}},
		{"insert long row", Delta{Table: "sale", Inserts: []tuple.Tuple{long}}},
		{"delete short row", Delta{Table: "sale", Deletes: []tuple.Tuple{short}}},
		{"update with short old image", Delta{Table: "sale", Updates: []Update{{Old: short, New: good}}}},
		{"update with short new image", Delta{Table: "sale", Updates: []Update{{Old: good, New: short}}}},
		{"valid rows after a bad one", Delta{Table: "sale", Inserts: []tuple.Tuple{good, short}}},
		{"update that changes the key", Delta{Table: "sale", Updates: []Update{{Old: sale1, New: rekeyed}}}},
	}
	tables := f.view.Tables
	for _, tc := range cases {
		before := captureEngine(f.engine, tables)
		if err := f.engine.Apply(tc.d); err == nil {
			t.Errorf("%s: apply succeeded, want error", tc.name)
			continue
		}
		before.requireUnchanged(t, f.engine, tables, tc.name)
	}

	// Append-only engines must reject deletes and updates outright.
	ao := appendOnlyFixture(t, minMaxSQL)
	ao.seedRetail()
	ao.initEngine()
	aoCases := []struct {
		name string
		d    Delta
	}{
		{"append-only delete", Delta{Table: "sale", Deletes: []tuple.Tuple{good}}},
		{"append-only update", Delta{Table: "sale", Updates: []Update{{Old: good, New: good}}}},
	}
	for _, tc := range aoCases {
		before := captureEngine(ao.engine, ao.view.Tables)
		if err := ao.engine.Apply(tc.d); err == nil {
			t.Errorf("%s: apply succeeded, want error", tc.name)
			continue
		}
		before.requireUnchanged(t, ao.engine, ao.view.Tables, tc.name)
	}
}
