package maintain

import (
	"errors"
	"testing"

	"mindetail/internal/faultinject"
	"mindetail/internal/obs"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// metricsFixture builds the retail fixture with a fresh metrics sink
// attached to the engine, returning both.
func metricsFixture(t *testing.T) (*fixture, *obs.Registry) {
	t.Helper()
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	reg := obs.NewRegistry()
	f.engine.SetMetrics(NewMetrics(reg))
	return f, reg
}

// TestMetricsStageAccounting: every committed apply contributes exactly one
// observation to the apply latency and journal-depth histograms, one trace
// event, and per-stage timings on the stages it actually executed.
func TestMetricsStageAccounting(t *testing.T) {
	f, reg := metricsFixture(t)

	f.insertSale(1, 100, 7, 3.5)                                            // detail insert
	f.updateRow("sale", 1, map[string]types.Value{"price": types.Float(4)}) // measure update
	f.deleteRow("sale", 2)                                                  // detail delete
	// Dimension change on a DISTINCT-counted column forces a scoped group
	// recomputation, so the recompute stage must appear.
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("zeta")})

	const applies = 4
	s := reg.Snapshot()
	if got := s.Counters["maintain.applies"]; got != applies {
		t.Errorf("maintain.applies = %d, want %d", got, applies)
	}
	if got := s.Counters["maintain.rollbacks"]; got != 0 {
		t.Errorf("maintain.rollbacks = %d, want 0", got)
	}
	if got := s.Histograms["maintain.apply_ns"].Count; got != applies {
		t.Errorf("apply_ns count = %d, want %d", got, applies)
	}
	if got := s.Histograms["maintain.journal.depth"].Count; got != applies {
		t.Errorf("journal.depth count = %d, want %d", got, applies)
	}
	// Expansion and filtering run once per apply; the commit stage is timed
	// once per committed journal.
	for _, stage := range []string{"expand", "filter", "commit"} {
		name := "maintain.stage." + stage + "_ns"
		if got := s.Histograms[name].Count; got != applies {
			t.Errorf("%s count = %d, want %d", name, got, applies)
		}
	}
	if s.Histograms["maintain.stage.delta_detail_join_ns"].Count == 0 {
		t.Error("delta_detail_join stage never observed")
	}
	if s.Histograms["maintain.stage.scoped_recompute_ns"].Count == 0 {
		t.Error("scoped_recompute stage never observed despite brand change")
	}
	if got := s.Histograms["maintain.stage.rollback_ns"].Count; got != 0 {
		t.Errorf("rollback stage observed %d times on clean applies", got)
	}
	// The work counters are mirrored into the registry: the price update
	// was adjusted instead of recomputed, the rest re-aggregated detail.
	stats := f.engine.Stats()
	if got := s.Counters["maintain.recompute.avoided"]; got != 1 || got != int64(stats.RecomputesAvoided) {
		t.Errorf("maintain.recompute.avoided = %d, Stats say %d, want 1", got, stats.RecomputesAvoided)
	}
	if got := s.Counters["maintain.recompute.rows"]; got == 0 || got != int64(stats.ReaggregatedRows) {
		t.Errorf("maintain.recompute.rows = %d, Stats say %d", got, stats.ReaggregatedRows)
	}

	events := s.Traces["maintain.applies"]
	if len(events) != applies {
		t.Fatalf("trace events = %d, want %d", len(events), applies)
	}
	for _, ev := range events {
		if ev.Name != "v" || ev.Outcome != "staged" {
			t.Errorf("trace event = %+v", ev)
		}
		if len(ev.Stages) == 0 {
			t.Errorf("trace event %d carries no stage timings", ev.Seq)
		}
		if ev.TotalNs <= 0 {
			t.Errorf("trace event %d TotalNs = %d", ev.Seq, ev.TotalNs)
		}
	}
}

// TestMetricsRollbackAccounting sweeps a batch delta through every
// reachable injection point and checks the rollback counters against the
// journal lifecycle: a failure before the journal begins (EngineValidated)
// must not count as a rollback, every later failure counts as both a
// rollback and an injected rollback, and the rollback-stage histogram
// tracks the rollback counter exactly.
func TestMetricsRollbackAccounting(t *testing.T) {
	f, reg := metricsFixture(t)

	old := f.db.Table("sale").Get(types.Int(1))
	if old == nil {
		t.Fatal("sale 1 missing")
	}
	alt := old.Clone()
	alt[4] = types.Float(old[4].AsFloat() + 23)
	d := Delta{Table: "sale", Updates: []Update{{Old: old, New: alt}}}

	sawPreJournal, sawPostJournal := false, false
	const limit = 100000
	for failAt := int64(1); failAt <= limit; failAt++ {
		before := reg.Snapshot()
		h := faultinject.NewHook(failAt)
		f.engine.SetFaultHook(h)
		err := f.engine.Apply(d)
		f.engine.SetFaultHook(nil)
		after := reg.Snapshot()
		if got := after.Counters["maintain.applies"] - before.Counters["maintain.applies"]; got != 1 {
			t.Fatalf("failAt=%d: applies grew by %d, want 1", failAt, got)
		}
		if err == nil {
			if p, fired := h.Fired(); fired {
				t.Fatalf("hook fired at %s but Apply succeeded", p)
			}
			if !sawPreJournal || !sawPostJournal {
				t.Errorf("sweep coverage: preJournal=%v postJournal=%v", sawPreJournal, sawPostJournal)
			}
			rollbacks := after.Counters["maintain.rollbacks"]
			if inj := after.Counters["maintain.rollbacks_injected"]; inj != rollbacks {
				t.Errorf("rollbacks_injected = %d, rollbacks = %d; all failures were injected", inj, rollbacks)
			}
			if got := after.Histograms["maintain.stage.rollback_ns"].Count; got != rollbacks {
				t.Errorf("rollback_ns count = %d, rollbacks = %d", got, rollbacks)
			}
			return
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("failAt=%d: genuine error: %v", failAt, err)
		}
		p, _ := h.Fired()
		dr := after.Counters["maintain.rollbacks"] - before.Counters["maintain.rollbacks"]
		di := after.Counters["maintain.rollbacks_injected"] - before.Counters["maintain.rollbacks_injected"]
		if p == faultinject.EngineValidated {
			sawPreJournal = true
			if dr != 0 || di != 0 {
				t.Fatalf("failAt=%d (%s): pre-journal failure counted a rollback (dr=%d di=%d)", failAt, p, dr, di)
			}
		} else {
			sawPostJournal = true
			if dr != 1 || di != 1 {
				t.Fatalf("failAt=%d (%s): rollback counters moved by dr=%d di=%d, want 1/1", failAt, p, dr, di)
			}
		}
		// The failed apply still records its latency and a trace event
		// with an error outcome.
		if got := after.Histograms["maintain.apply_ns"].Count - before.Histograms["maintain.apply_ns"].Count; got != 1 {
			t.Fatalf("failAt=%d: apply_ns grew by %d", failAt, got)
		}
		events := after.Traces["maintain.applies"]
		last := events[len(events)-1]
		if last.Outcome == "staged" {
			t.Fatalf("failAt=%d: failed apply traced as %q", failAt, last.Outcome)
		}
	}
	t.Fatalf("sweep did not terminate within %d points", limit)
}

// TestMetricsNilSink: with no sink attached (the default), applies must
// work and a later-attached registry starts from zero — instrumentation is
// strictly pay-for-use.
func TestMetricsNilSink(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	if f.engine.Metrics() != nil {
		t.Fatal("engine born with a metrics sink")
	}
	f.insertSale(1, 100, 7, 2)

	reg := obs.NewRegistry()
	f.engine.SetMetrics(NewMetrics(reg))
	f.insertSale(2, 101, 7, 3)
	if got := reg.Snapshot().Counters["maintain.applies"]; got != 1 {
		t.Errorf("applies after late attach = %d, want 1 (pre-attach applies must not be counted)", got)
	}
	f.engine.SetMetrics(nil)
	f.insertSale(3, 102, 8, 4)
	if got := reg.Snapshot().Counters["maintain.applies"]; got != 1 {
		t.Errorf("applies after detach = %d, want 1", got)
	}
}

// TestMetricsIgnoresForeignTables: deltas on tables the view does not
// reference are cheap no-ops and must not pollute the apply metrics.
func TestMetricsIgnoresForeignTables(t *testing.T) {
	f, reg := metricsFixture(t)
	if err := f.engine.Apply(Delta{Table: "store", Inserts: nil}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["maintain.applies"] != 0 || s.Histograms["maintain.apply_ns"].Count != 0 {
		t.Errorf("foreign-table delta was counted: %+v", s.Counters)
	}
}

// TestMetricsJournalDepth pins maintain.journal.depth. A staged apply
// observes the number of distinct groups it journaled — each view group and
// each auxiliary group once, however many of the delta's rows touch it. A
// failed apply observes nothing: its journal is already rolled back.
func TestMetricsJournalDepth(t *testing.T) {
	f := newFixture(t, retailDDL, csmasJoinSQL, true)
	f.seedRetail()
	f.initEngine()
	reg := obs.NewRegistry()
	f.engine.SetMetrics(NewMetrics(reg))
	depth := func() obs.HistogramSnapshot { return reg.Snapshot().Histograms["maintain.journal.depth"] }

	d := bulkInsertSales(f, 512)
	// The groups the delta touches, derived from the oracle: view groups
	// by (month, brand), sale auxiliary groups by its plain attributes.
	sale := f.cat.Table("sale")
	var auxPos []int
	for _, a := range f.engine.Aux("sale").def.PlainAttrs {
		auxPos = append(auxPos, sale.AttrIndex(a))
	}
	viewGroups, auxGroups := map[string]bool{}, map[string]bool{}
	for _, row := range d.Inserts {
		month := f.db.Table("time").Get(row[1])[2]
		brand := f.db.Table("product").Get(row[2])[1]
		viewGroups[tuple.Tuple{month, brand}.Key()] = true
		auxGroups[row.KeyAt(auxPos)] = true
	}
	f.apply(d)
	want := int64(len(viewGroups) + len(auxGroups))
	if h := depth(); h.Count != 1 || h.SumNs != want {
		t.Fatalf("journal depth after a 512-row insert: %d observation(s) summing to %d, want 1 of %d (%d view + %d auxiliary groups)",
			h.Count, h.SumNs, want, len(viewGroups), len(auxGroups))
	}

	// Visit 3 is the first row's AuxAdjustMid, after its group was
	// journaled: the apply fails and rolls back.
	f.engine.SetFaultHook(faultinject.NewHook(3))
	err := f.engine.Apply(bulkInsertSales(f, 8))
	f.engine.SetFaultHook(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("apply = %v, want an injected failure", err)
	}
	if h := depth(); h.Count != 1 {
		t.Fatalf("a failed apply observed a journal depth: %d observations, want 1", h.Count)
	}
}
