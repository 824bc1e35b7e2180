package maintain

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/sqlparse"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// setProcs sets GOMAXPROCS, and with it the width of Propagate's staging
// pool, restoring the previous value when the test ends. Tests that call it
// must not run in parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// relBytes renders a relation as its sorted encoded rows — a byte-for-byte
// canonical form (relations are bags, so physical row order is irrelevant).
func relBytes(r *ra.Relation) []string {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = row.Key()
	}
	sort.Strings(keys)
	return keys
}

// requireIdenticalState asserts two engines hold byte-identical materialized
// views and auxiliary tables.
func requireIdenticalState(t *testing.T, a, b *Engine, tables []string, when string) {
	t.Helper()
	ka, kb := relBytes(a.Snapshot()), relBytes(b.Snapshot())
	if len(ka) != len(kb) {
		t.Fatalf("%s: snapshots differ in size: %d vs %d", when, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: snapshots diverge at sorted row %d", when, i)
		}
	}
	for _, tb := range tables {
		ta, tbl := a.Aux(tb), b.Aux(tb)
		if (ta == nil) != (tbl == nil) {
			t.Fatalf("%s: aux %s present in one engine only", when, tb)
		}
		if ta == nil {
			continue
		}
		ra, rb := relBytes(ta.Relation()), relBytes(tbl.Relation())
		if len(ra) != len(rb) {
			t.Fatalf("%s: aux %s differs in size: %d vs %d", when, tb, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: aux %s diverges at sorted row %d", when, tb, i)
			}
		}
	}
}

// namedEngine builds one engine for view name over the fixture's sources,
// initialized from their current state. appendOnly derives it under the
// Section 4 relaxation, so it rejects every deletion.
func namedEngine(t *testing.T, f *fixture, name, sql string, appendOnly bool) *Engine {
	t.Helper()
	s, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gpsj.FromSelect(f.cat, name, s.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	derive := core.Derive
	if appendOnly {
		derive = core.DeriveAppendOnly
	}
	p, err := derive(v)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, p)
	if err := e.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPropagateContract pins the coordinator's contract at both pool
// widths: the hook runs in engine order on the calling goroutine, the
// lowest-index failure is returned naming its view, the staged count is
// reported, every staged engine rolls back, and a clean delta commits on
// every engine.
func TestPropagateContract(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	names := []string{"e0", "e1", "e2", "e3"}
	engines := make([]*Engine, len(names))
	for i, name := range names {
		engines[i] = namedEngine(t, f, name, productSalesSQL, i == 2)
	}
	tables := f.view.Tables
	requireAllUnchanged := func(caps []engineCapture, when string) {
		t.Helper()
		for i, c := range caps {
			c.requireUnchanged(t, engines[i], tables, fmt.Sprintf("%s, engine %d", when, i))
		}
	}
	captureAll := func() []engineCapture {
		caps := make([]engineCapture, len(engines))
		for i, e := range engines {
			caps[i] = captureEngine(e, tables)
		}
		return caps
	}
	del := Delta{Table: "sale", Deletes: []tuple.Tuple{
		{types.Int(5), types.Int(3), types.Int(102), types.Int(8), types.Float(12)},
	}}
	setProcs(t, 1)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)

		// e2 is append-only and rejects the deletion. With one worker the
		// loop stops there; with four, e3 stages too and rolls back.
		caps := captureAll()
		var hooked []int
		staged, err := Propagate(engines, del, func(i int) error { hooked = append(hooked, i); return nil }, nil)
		if err == nil || !strings.Contains(err.Error(), "view e2:") || !strings.Contains(err.Error(), "append-only") {
			t.Fatalf("procs=%d: err = %v, want e2's append-only rejection", procs, err)
		}
		wantStaged, wantHooked := 2, []int{0, 1, 2}
		if procs > 1 {
			wantStaged, wantHooked = 3, []int{0, 1, 2, 3}
		}
		if staged != wantStaged || fmt.Sprint(hooked) != fmt.Sprint(wantHooked) {
			t.Fatalf("procs=%d: staged=%d hooked=%v, want %d and %v", procs, staged, hooked, wantStaged, wantHooked)
		}
		requireAllUnchanged(caps, fmt.Sprintf("procs=%d, failed stage", procs))

		// A hook failure before e1 launches nothing after it: e0 staged and
		// rolls back, and the error is the hook's, attributed to e1.
		staged, err = Propagate(engines, del, func(i int) error {
			if i == 1 {
				return faultinject.ErrInjected
			}
			return nil
		}, nil)
		if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "view e1:") || staged != 1 {
			t.Fatalf("procs=%d: hook failure: staged=%d err=%v", procs, staged, err)
		}
		requireAllUnchanged(caps, fmt.Sprintf("procs=%d, failed hook", procs))
	}

	f.saleID++
	row := tuple.Tuple{types.Int(f.saleID), types.Int(2), types.Int(100), types.Int(8), types.Float(4)}
	if err := f.db.Insert("sale", row); err != nil {
		t.Fatal(err)
	}
	if staged, err := Propagate(engines, Delta{Table: "sale", Inserts: []tuple.Tuple{row}}, nil, nil); err != nil || staged != len(engines) {
		t.Fatalf("clean insert: staged=%d err=%v", staged, err)
	}
	want, err := f.view.Evaluate(f.db)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range engines {
		if got := e.Snapshot(); !ra.EqualBag(got, want) {
			t.Fatalf("engine %d diverged after commit\nmaintained:\n%s\nrecomputed:\n%s", i, got.Format(), want.Format())
		}
	}
}

// TestSharedEnginesParallelMatchesSerial: a shared class staging on a
// four-wide pool must end byte-identical to a twin staging serially
// (GOMAXPROCS 1) under the same stream, and the fanned-out class is checked
// against recomputation after every delta.
func TestSharedEnginesParallelMatchesSerial(t *testing.T) {
	sqls := []string{
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
		 GROUP BY time.month`,
		`SELECT sale.storeid, MAX(price) AS hi, COUNT(*) AS cnt
		 FROM sale GROUP BY sale.storeid`,
		`SELECT store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
		 FROM sale, product, store
		 WHERE sale.productid = product.id AND sale.storeid = store.id
		 GROUP BY store.city`,
	}
	setProcs(t, 4)
	par := newSharedFixture(t, sqls...)
	ser := newSharedFixture(t, sqls...)
	par.seedRetail()
	ser.seedRetail()
	par.init()
	ser.init()

	rng := rand.New(rand.NewSource(23))
	live := []int64{1, 2, 3, 4, 5, 6}
	for step := 0; step < 50; step++ {
		var d Delta
		switch rng.Intn(4) {
		case 0, 1:
			par.saleID++
			row := tuple.Tuple{types.Int(par.saleID), types.Int(int64(rng.Intn(6) + 1)),
				types.Int(int64(rng.Intn(3) + 100)), types.Int(int64(rng.Intn(2) + 7)),
				types.Float(float64(rng.Intn(60)) + 0.5)}
			if err := par.db.Insert("sale", row); err != nil {
				t.Fatal(err)
			}
			live = append(live, par.saleID)
			d = Delta{Table: "sale", Inserts: []tuple.Tuple{row}}
		case 2:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			row, err := par.db.Delete("sale", types.Int(live[i]))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			d = Delta{Table: "sale", Deletes: []tuple.Tuple{row}}
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			old, upd, err := par.db.Update("sale", types.Int(live[i]),
				map[string]types.Value{"price": types.Float(float64(rng.Intn(80)) + 0.25)})
			if err != nil {
				t.Fatal(err)
			}
			d = Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}}
		}
		runtime.GOMAXPROCS(4)
		par.apply(d) // checks every view against recomputation
		runtime.GOMAXPROCS(1)
		if err := ser.se.Apply(d); err != nil {
			t.Fatalf("serial step %d: %v", step, err)
		}
		for i := range sqls {
			requireIdenticalState(t, par.se.Engine(i), ser.se.Engine(i),
				par.views[i].Tables, fmt.Sprintf("step %d, view %d", step, i))
		}
	}
}

// TestStatsConcurrentWithApply reads and resets the engine's work counters
// while deltas are being applied — meaningful under -race (the repository's
// race target runs this package).
func TestStatsConcurrentWithApply(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.engine.Stats()
			if s.DeltasApplied < 0 || s.AuxLookups < 0 {
				t.Error("negative counter")
				return
			}
			f.engine.ResetStats()
		}
	}()
	for i := 0; i < 200; i++ {
		f.insertSale(int64(i%4+1), int64(i%3+100), int64(i%2+7), float64(i%37))
	}
	close(stop)
	wg.Wait()
	f.check("after concurrent stats reads")
}
