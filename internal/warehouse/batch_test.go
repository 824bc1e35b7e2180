package warehouse

import (
	"strings"
	"sync"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// saleDelta builds an insert-only sale delta of n rows starting at key
// base. Prices are multiples of 0.25, so aggregation is exact and the
// final state is independent of the order concurrent submitters win.
func saleDelta(base, n int) maintain.Delta {
	d := maintain.Delta{Table: "sale"}
	for i := 0; i < n; i++ {
		id := base + i
		d.Inserts = append(d.Inserts, tuple.Tuple{
			types.Int(int64(id)), types.Int(int64(id%3 + 1)), types.Int(int64(100 + id%2)),
			types.Int(7), types.Float(float64(id%16) * 0.25),
		})
	}
	return d
}

// viewTotals reads (SUM, COUNT) per month from the materialized view.
func viewTotals(t *testing.T, w *Warehouse) string {
	t.Helper()
	rel, err := w.Query("product_sales")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Sorted().Format()
}

// TestApplyDeltaBatchMatchesSerial applies the same delta sequence through
// ApplyDeltaBatch (coalescing active) and through one-by-one ApplyDelta and
// requires identical view contents. The batch mixes insert-only runs (which
// coalesce), a delete-carrying delta (which must not), and interleaved
// tables (which break runs).
func TestApplyDeltaBatchMatchesSerial(t *testing.T) {
	mkBatch := func() []maintain.Delta {
		return []maintain.Delta{
			saleDelta(1000, 4),
			saleDelta(1004, 4), // coalesces with the previous delta
			{Table: "time", Inserts: []tuple.Tuple{
				{types.Int(50), types.Int(1), types.Int(3), types.Int(1997)},
			}}, // different table: breaks the run
			saleDelta(1008, 4),
			{Table: "sale", Deletes: []tuple.Tuple{saleDelta(1000, 1).Inserts[0]}}, // mixed: never coalesces
			saleDelta(1012, 4),
		}
	}

	serial := newRetail(t)
	for i, d := range mkBatch() {
		if err := serial.ApplyDelta(d); err != nil {
			t.Fatalf("serial delta %d: %v", i, err)
		}
	}

	batched := newRetail(t)
	for i, err := range batched.ApplyDeltaBatch(mkBatch()) {
		if err != nil {
			t.Fatalf("batched delta %d: %v", i, err)
		}
	}

	if got, want := viewTotals(t, batched), viewTotals(t, serial); got != want {
		t.Fatalf("batched view diverged from serial\nbatched:\n%s\nserial:\n%s", got, want)
	}
	// The three adjacent insert-only sale deltas at the head coalesced.
	if n := batched.MetricsSnapshot().Counters["warehouse.batch.coalesced"]; n != 2 {
		t.Fatalf("coalesced deltas = %d, want 2", n)
	}
}

// TestApplyDeltaBatchErrorIsolation puts a bad delta in the middle of a
// batch: it alone fails, its neighbors commit, and the error slice is
// index-aligned.
func TestApplyDeltaBatchErrorIsolation(t *testing.T) {
	w := newRetail(t)
	errs := w.ApplyDeltaBatch([]maintain.Delta{
		saleDelta(2000, 2),
		{Table: "nosuch", Inserts: saleDelta(0, 1).Inserts},
		saleDelta(2002, 2),
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good deltas failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "unknown table") {
		t.Fatalf("bad delta error = %v", errs[1])
	}
	// Exactly the good deltas landed.
	oracle := newRetail(t)
	for _, d := range []maintain.Delta{saleDelta(2000, 2), saleDelta(2002, 2)} {
		if err := oracle.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := viewTotals(t, w), viewTotals(t, oracle); got != want {
		t.Fatalf("batch with failure diverged from oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestApplyDeltaBatchEmpty covers the trivial cases.
func TestApplyDeltaBatchEmpty(t *testing.T) {
	w := newRetail(t)
	if errs := w.ApplyDeltaBatch(nil); len(errs) != 0 {
		t.Fatalf("empty batch returned %d errors", len(errs))
	}
}

// TestPipelineConcurrentSubmit hammers a pipeline with concurrent
// submitters and checks the warehouse lands on the brute-force recomputed
// state — every delta applied exactly once, none lost or doubled — and
// that coalescing actually engaged.
func TestPipelineConcurrentSubmit(t *testing.T) {
	w := newRetail(t)
	p := NewPipeline(w, 8)

	const submitters = 8
	const perSubmitter = 10
	var wg sync.WaitGroup
	errCh := make(chan error, submitters*perSubmitter)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				errCh <- p.Submit(saleDelta(3000+s*100+i*3, 3))
			}
		}(s)
	}
	wg.Wait()
	p.Close()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Submission order across goroutines is nondeterministic, but every
	// delta inserts distinct keys with exact quarter prices, so the final
	// aggregate is order-independent: a serial oracle applying the same
	// deltas in any order must land on the same view.
	oracle := newRetail(t)
	for s := 0; s < submitters; s++ {
		for i := 0; i < perSubmitter; i++ {
			if err := oracle.ApplyDelta(saleDelta(3000+s*100+i*3, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := viewTotals(t, w), viewTotals(t, oracle); got != want {
		t.Fatalf("pipelined view diverged from serial oracle\ngot:\n%s\nwant:\n%s", got, want)
	}

	snap := w.MetricsSnapshot()
	if snap.Counters["warehouse.batch.deltas"] != submitters*perSubmitter {
		t.Fatalf("batch.deltas = %d, want %d", snap.Counters["warehouse.batch.deltas"], submitters*perSubmitter)
	}
	if err := p.Submit(saleDelta(0, 1)); err != ErrPipelineClosed {
		t.Fatalf("Submit after Close = %v, want ErrPipelineClosed", err)
	}
	p.Close() // idempotent
}

// TestPipelineErrorPropagation verifies each submitter gets its own
// delta's outcome even when batched with failures.
func TestPipelineErrorPropagation(t *testing.T) {
	w := newRetail(t)
	p := NewPipeline(w, 4)
	defer p.Close()
	if err := p.Submit(maintain.Delta{Table: "nosuch"}); err == nil {
		t.Fatal("unknown-table Submit succeeded")
	}
	if err := p.Submit(saleDelta(4000, 2)); err != nil {
		t.Fatal(err)
	}
}
