package warehouse

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

func counters(w *Warehouse) map[string]int64 { return w.MetricsSnapshot().Counters }

// TestWarehouseCounters: one DML statement moves the propagate, staging,
// commit and snapshot-invalidation counters by exactly the expected
// amounts, and the query counters distinguish the lock-free hit, the
// rebuild, and the versioned read that finds nothing changed.
func TestWarehouseCounters(t *testing.T) {
	w := newRetail(t)
	// Drain the initial rebuild so the query-path deltas below are clean.
	if _, err := w.Query("product_sales"); err != nil {
		t.Fatal(err)
	}

	before := counters(w)
	if _, err := w.Exec(`INSERT INTO sale VALUES (6, 2, 100, 7, 30)`); err != nil {
		t.Fatal(err)
	}
	after := counters(w)
	for name, want := range map[string]int64{
		"warehouse.propagates":            1,
		"warehouse.propagate.errors":      0,
		"warehouse.views.staged":          1,
		"warehouse.views.committed":       1,
		"warehouse.views.rolled_back":     0,
		"warehouse.snapshots.invalidated": 1,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
	hist := w.MetricsSnapshot().Histograms["warehouse.propagate.ns"]
	if hist.Count == 0 {
		t.Error("propagate latency never observed with observability on")
	}

	// First Query after the invalidation rebuilds and publishes a fresh
	// snapshot; the second is a lock-free hit.
	before = counters(w)
	if _, err := w.Query("product_sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query("product_sales"); err != nil {
		t.Fatal(err)
	}
	after = counters(w)
	if got := after["warehouse.query.snapshot_rebuilds"] - before["warehouse.query.snapshot_rebuilds"]; got != 1 {
		t.Errorf("snapshot_rebuilds moved by %d, want 1", got)
	}
	if got := after["warehouse.snapshots.published"] - before["warehouse.snapshots.published"]; got != 1 {
		t.Errorf("snapshots.published moved by %d, want 1", got)
	}
	if got := after["warehouse.query.snapshot_hits"] - before["warehouse.query.snapshot_hits"]; got != 1 {
		t.Errorf("snapshot_hits moved by %d, want 1", got)
	}

	// A versioned read at the current version reads nothing.
	_, ver, err := w.QuerySince("product_sales", 0)
	if err != nil {
		t.Fatal(err)
	}
	before = counters(w)
	if rel, _, err := w.QuerySince("product_sales", ver); err != nil || rel != nil {
		t.Fatalf("QuerySince at the current version = %v, %v; want nil, nil", rel, err)
	}
	after = counters(w)
	if got := after["warehouse.query.unchanged"] - before["warehouse.query.unchanged"]; got != 1 {
		t.Errorf("query.unchanged moved by %d, want 1", got)
	}
	if got := after["warehouse.query.snapshot_hits"] - before["warehouse.query.snapshot_hits"]; got != 0 {
		t.Errorf("snapshot_hits moved by %d on an unchanged read", got)
	}

	// A rejected statement rolls back: staged views are counted as rolled
	// back, the propagate as an error, and nothing commits.
	before = counters(w)
	if _, err := w.Exec(`INSERT INTO sale VALUES (7, 99, 100, 7, 1)`); err == nil {
		t.Fatal("insert with dangling timeid accepted")
	}
	after = counters(w)
	if got := after["warehouse.views.committed"] - before["warehouse.views.committed"]; got != 0 {
		t.Errorf("views.committed moved by %d on failed insert", got)
	}
}

// TestWarehouseSetObsTogglesTimings: SetObs(false) stops the clock-based
// instrumentation (propagate latency, engine stage histograms) while the
// always-on counters keep counting; SetObs(true) resumes both.
func TestWarehouseSetObsTogglesTimings(t *testing.T) {
	w := newRetail(t)
	insert := func(id int) {
		t.Helper()
		if _, err := w.Exec(fmt.Sprintf(`INSERT INTO sale VALUES (%d, 2, 100, 7, 1)`, id)); err != nil {
			t.Fatal(err)
		}
	}

	w.SetObs(false)
	before := w.MetricsSnapshot()
	insert(40)
	mid := w.MetricsSnapshot()
	if got := mid.Histograms["warehouse.propagate.ns"].Count - before.Histograms["warehouse.propagate.ns"].Count; got != 0 {
		t.Errorf("propagate.ns observed %d times with obs off", got)
	}
	if got := mid.Histograms["maintain.apply_ns"].Count - before.Histograms["maintain.apply_ns"].Count; got != 0 {
		t.Errorf("apply_ns observed %d times with obs off", got)
	}
	if got := mid.Counters["warehouse.propagates"] - before.Counters["warehouse.propagates"]; got != 1 {
		t.Errorf("propagates moved by %d with obs off, want 1 (counters stay on)", got)
	}

	w.SetObs(true)
	insert(41)
	after := w.MetricsSnapshot()
	if got := after.Histograms["warehouse.propagate.ns"].Count - mid.Histograms["warehouse.propagate.ns"].Count; got != 1 {
		t.Errorf("propagate.ns observed %d times after re-enable, want 1", got)
	}
	if got := after.Histograms["maintain.apply_ns"].Count - mid.Histograms["maintain.apply_ns"].Count; got != 1 {
		t.Errorf("apply_ns observed %d times after re-enable, want 1", got)
	}
}

// fanWarehouse builds a warehouse with k identical copies of the paper
// view, staging on a pool of procs workers (GOMAXPROCS, restored when the
// test ends).
func fanWarehouse(t *testing.T, k, procs int) *Warehouse {
	t.Helper()
	setProcs(t, procs)
	w := New()
	if _, err := w.Exec(setupSQL); err != nil {
		t.Fatal(err)
	}
	sel := strings.SplitN(viewSQL, " AS\n", 2)[1]
	for i := 0; i < k; i++ {
		if _, err := w.Exec(fmt.Sprintf("CREATE MATERIALIZED VIEW fan%d AS %s", i, sel)); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestWarehouseConcurrentMetricsReaders hammers Query and MetricsSnapshot
// from concurrent readers while deltas propagate on a four-wide pool — the
// observability surface must be race-clean against the lock-free read path
// (this test earns its keep under -race).
func TestWarehouseConcurrentMetricsReaders(t *testing.T) {
	w := fanWarehouse(t, 4, 4)
	w.DetachSources()
	old := tuple.Tuple{types.Int(1), types.Int(1), types.Int(100), types.Int(7), types.Float(10)}
	alt := old.Clone()
	alt[4] = types.Float(11)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Query("fan0"); err != nil {
					t.Error(err)
					return
				}
				s := w.MetricsSnapshot()
				if s.Counters["warehouse.propagates"] < 0 {
					t.Error("negative counter")
					return
				}
				_ = s.Format()
			}
		}()
	}
	imgs := [2]tuple.Tuple{old, alt}
	for i := 0; i < 50; i++ {
		d := maintain.Delta{Table: "sale", Updates: []maintain.Update{
			{Old: imgs[i%2], New: imgs[(i+1)%2]},
		}}
		if err := w.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	s := w.MetricsSnapshot()
	if got := s.Counters["warehouse.propagates"]; got != 50 {
		t.Errorf("propagates = %d, want 50", got)
	}
	if s.Gauges["warehouse.propagate.pool_occupancy"] != 0 {
		t.Errorf("pool occupancy = %d after quiescence", s.Gauges["warehouse.propagate.pool_occupancy"])
	}
}

// TestAbbrevSQL: the error-message abbreviator must never split a
// multi-byte rune at the cut point (the historical bug produced invalid
// UTF-8 in error strings for non-ASCII literals).
func TestAbbrevSQL(t *testing.T) {
	if got := abbrevSQL("SELECT 1"); got != "SELECT 1" {
		t.Errorf("short SQL mangled: %q", got)
	}
	if got := abbrevSQL("SELECT   1\n\tFROM  t"); got != "SELECT 1 FROM t" {
		t.Errorf("whitespace not collapsed: %q", got)
	}
	// 60 two-byte runes = 120 bytes; the naive cut at byte 57 lands in the
	// middle of a rune.
	long := "SELECT '" + strings.Repeat("ø", 60) + "'"
	got := abbrevSQL(long)
	if !utf8.ValidString(got) {
		t.Fatalf("abbreviation is invalid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "...") {
		t.Errorf("abbreviation not ellipsized: %q", got)
	}
	if len(got) > 60 {
		t.Errorf("abbreviation is %d bytes, want <= 60", len(got))
	}
	// Four-byte runes as well.
	long = strings.Repeat("𝄞", 30)
	if got := abbrevSQL(long); !utf8.ValidString(got) {
		t.Fatalf("4-byte-rune abbreviation is invalid UTF-8: %q", got)
	}
}
