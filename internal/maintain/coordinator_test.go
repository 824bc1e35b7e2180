package maintain

import (
	"errors"
	"fmt"
	"runtime"
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
