package warehouse

import (
	"strings"
	"sync"
	"testing"
	"time"

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

// TestApplyDeltaConcurrentCallers hammers ApplyDelta with concurrent
// callers and checks the warehouse lands on the serially applied state —
// every delta applied exactly once, none lost or doubled — and that every
// delta went through the group-commit batch accounting.
func TestApplyDeltaConcurrentCallers(t *testing.T) {
	w := newRetail(t)

	const callers = 8
	const perCaller = 10
	var wg sync.WaitGroup
	errCh := make(chan error, callers*perCaller)
	for s := 0; s < callers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				errCh <- w.ApplyDelta(saleDelta(3000+s*100+i*3, 3))
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Arrival order across goroutines is nondeterministic, but every delta
	// inserts distinct keys with exact quarter prices, so the final
	// aggregate is order-independent: a serial oracle applying the same
	// deltas in any order must land on the same view.
	oracle := newRetail(t)
	for s := 0; s < callers; s++ {
		for i := 0; i < perCaller; i++ {
			if err := oracle.ApplyDelta(saleDelta(3000+s*100+i*3, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := viewTotals(t, w), viewTotals(t, oracle); got != want {
		t.Fatalf("group-committed view diverged from serial oracle\ngot:\n%s\nwant:\n%s", got, want)
	}

	snap := w.MetricsSnapshot()
	if snap.Counters["warehouse.batch.deltas"] != callers*perCaller {
		t.Fatalf("batch.deltas = %d, want %d", snap.Counters["warehouse.batch.deltas"], callers*perCaller)
	}
	if w.commits.leading || len(w.commits.queue) != 0 {
		t.Fatalf("combiner not idle after all callers returned: leading %v, %d queued",
			w.commits.leading, len(w.commits.queue))
	}
}

// gateLog is a ChangeLog whose commits (single or batched) each announce
// themselves on entered and then wait for a token on release, so a test can
// hold an ApplyDelta leader inside its commit while other callers queue
// behind it.
type gateLog struct {
	entered, release chan struct{}

	mu      sync.Mutex
	next    uint64
	commits int        // single-delta Commit calls
	batches [][]uint64 // CommitBatch calls, in order
}

func newGateLog() *gateLog {
	return &gateLog{entered: make(chan struct{}), release: make(chan struct{})}
}

func (l *gateLog) BeginDelta(maintain.Delta, bool) (uint64, error) { return l.begin(), nil }
func (l *gateLog) BeginDDL(string) (uint64, error)                 { return l.begin(), nil }
func (l *gateLog) Abort(uint64) error                              { return nil }

func (l *gateLog) begin() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *gateLog) Commit(uint64) error {
	l.entered <- struct{}{}
	<-l.release
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commits++
	return nil
}

func (l *gateLog) CommitBatch(lsns []uint64) error {
	l.entered <- struct{}{}
	<-l.release
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, append([]uint64(nil), lsns...))
	return nil
}

// waitQueued blocks until n ApplyDelta callers wait behind the current
// leader.
func waitQueued(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.commits.mu.Lock()
		got := len(w.commits.queue)
		w.commits.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// applyAsync runs ApplyDelta on its own goroutine; the channel yields its
// result.
func applyAsync(w *Warehouse, d maintain.Delta) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- w.ApplyDelta(d) }()
	return ch
}

// result waits for one applyAsync outcome.
func result(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyDelta did not return")
		return nil
	}
}

// TestApplyDeltaCombinesQueuedCallers holds a leader in its commit while k
// callers queue, one of them naming an unknown table. Once released, the
// k queued deltas form one batch: the valid ones commit in a single
// CommitBatch, and only the bad caller sees an error.
func TestApplyDeltaCombinesQueuedCallers(t *testing.T) {
	w := newRetail(t)
	log := newGateLog()
	w.SetWAL(log)

	leader := applyAsync(w, saleDelta(4000, 2))
	<-log.entered
	const k = 5
	const bad = 2
	queued := make([]<-chan error, k)
	for i := range queued {
		d := saleDelta(4100+i*10, 2)
		if i == bad {
			d = maintain.Delta{Table: "nosuch", Inserts: d.Inserts}
		}
		queued[i] = applyAsync(w, d)
		waitQueued(t, w, i+1)
	}

	log.release <- struct{}{} // the leader's batch of one
	if err := result(t, leader); err != nil {
		t.Fatal(err)
	}
	<-log.entered // the first queued caller leads the rest
	log.release <- struct{}{}
	for i, ch := range queued {
		err := result(t, ch)
		if i == bad {
			if err == nil || !strings.Contains(err.Error(), "unknown table nosuch") {
				t.Fatalf("unknown-table caller: err = %v", err)
			}
		} else if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if log.commits != 1 || len(log.batches) != 1 || len(log.batches[0]) != k-1 {
		t.Fatalf("commits = %d, batches = %v; want 1 single commit and one batch of %d",
			log.commits, log.batches, k-1)
	}
	if got := w.LSN(); got != log.batches[0][k-2] {
		t.Fatalf("LSN = %d, want the batch's last %d", got, log.batches[0][k-2])
	}
	if h := w.MetricsSnapshot().Histograms["warehouse.batch.size"]; h.Count != 2 || h.SumNs != 1+k {
		t.Fatalf("batch.size: %d batches, %d deltas; want 2 and %d", h.Count, h.SumNs, 1+k)
	}
}

// TestApplyDeltaLeaderHandsOff checks that a leader returns once its own
// batch is done, while the callers behind it are still waiting: it hands
// leadership to the first of them and does not serve the queue itself.
func TestApplyDeltaLeaderHandsOff(t *testing.T) {
	w := newRetail(t)
	log := newGateLog()
	w.SetWAL(log)

	first := applyAsync(w, saleDelta(5000, 1))
	<-log.entered
	second := applyAsync(w, saleDelta(5010, 1))
	waitQueued(t, w, 1)

	log.release <- struct{}{}
	if err := result(t, first); err != nil {
		t.Fatal(err)
	}
	// second now leads and waits in its own commit; a new arrival queues
	// behind it instead of joining a batch already under way.
	<-log.entered
	third := applyAsync(w, saleDelta(5020, 1))
	waitQueued(t, w, 1)
	select {
	case err := <-second:
		t.Fatalf("second returned before its commit was released: %v", err)
	default:
	}

	log.release <- struct{}{}
	if err := result(t, second); err != nil {
		t.Fatal(err)
	}
	<-log.entered
	log.release <- struct{}{}
	if err := result(t, third); err != nil {
		t.Fatal(err)
	}
	if log.commits != 3 || len(log.batches) != 0 {
		t.Fatalf("commits = %d, batches = %v; want three batches of one", log.commits, log.batches)
	}
	if w.commits.leading {
		t.Fatal("combiner still has a leader after every caller returned")
	}
}
