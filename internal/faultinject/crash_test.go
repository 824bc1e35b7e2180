package faultinject_test

// The crash-point harness: the WAL's end-to-end correctness argument.
//
// For every statement in a fixed workload and every injection point the
// statement visits, this file simulates a crash at that point — the
// on-disk bytes at that instant are all a restart gets to see — recovers,
// and asserts the recovered warehouse is byte-identical to the state
// before the failed statement (the mutation was never acknowledged, so it
// must not survive). A second sweep truncates the log at every byte
// offset inside the final mutation's intent and commit records and
// asserts recovery lands exactly on the pre-mutation oracle, flipping to
// the post-mutation oracle only once the commit record is whole.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/persist"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
)

const crashDDL = `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand STRING MUTABLE, category STRING);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, qty INTEGER, price FLOAT MUTABLE);
CREATE MATERIALIZED VIEW by_brand AS
  SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY brand;
CREATE MATERIALIZED VIEW by_category AS
  SELECT category, SUM(qty) AS q, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY category;
`

// Prices are multiples of 0.25 so float aggregation is exact and the
// byte-identity assertions are independent of accumulation order.
var crashSteps = []string{
	`INSERT INTO product VALUES (1, 'acme', 'tools');`,
	`INSERT INTO product VALUES (2, 'zenith', 'toys');`,
	`INSERT INTO sale VALUES (10, 1, 3, 9.75);`,
	`INSERT INTO sale VALUES (11, 2, 1, 4.25), (12, 1, 2, 8.5);`,
	`UPDATE sale SET price = 5.25 WHERE id = 11;`,
	`UPDATE product SET brand = 'nadir' WHERE id = 2;`,
	`DELETE FROM sale WHERE id = 10;`,
	`INSERT INTO sale VALUES (13, 2, 4, 2.75);`,
}

// snap serializes a warehouse to its canonical persisted form — sorted
// rows, tagged values, the committed LSN — the byte-identity oracle.
func snap(t *testing.T, w *warehouse.Warehouse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.Save(w, &buf, !w.Detached()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// crashImage copies the durable directory byte for byte, simulating
// kill -9 at this instant.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverBytes opens the durable directory, snapshots the recovered
// warehouse, and closes it again.
func recoverBytes(t *testing.T, dir string) []byte {
	t.Helper()
	r, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery from %s: %v", dir, err)
	}
	defer r.Close()
	return snap(t, r.Warehouse())
}

// sweepCrashRecovery drives every step through a WAL-attached warehouse
// built by setup, failing at the N-th injection point for N = 1, 2, ...
// until the statement commits cleanly. After every injected failure it
// checks both halves of the contract:
//
//  1. rollback — the live warehouse is byte-identical to its pre-statement
//     state, and
//  2. crash — recovering from a copy of the on-disk bytes taken at the
//     instant of the failure also lands byte-identically on the
//     pre-statement state: the aborted (or outcome-less) intent in the
//     log must not leak into recovery.
func sweepCrashRecovery(t *testing.T, setup string, steps []string) {
	t.Helper()
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := d.Warehouse()
	if _, err := w.Exec(setup); err != nil {
		t.Fatal(err)
	}

	const limit = 100000
	for k, sql := range steps {
		committed := false
		for failAt := int64(1); failAt <= limit; failAt++ {
			before := snap(t, w)
			h := faultinject.NewHook(failAt)
			w.SetFaultHook(h)
			_, err := w.Exec(sql)
			w.SetFaultHook(nil)
			if err == nil {
				if p, fired := h.Fired(); fired {
					t.Fatalf("step %d %q: hook fired at %s but Exec succeeded", k, sql, p)
				}
				committed = true
				break
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("step %d %q failAt=%d: genuine error: %v", k, sql, failAt, err)
			}
			p, _ := h.Fired()
			when := fmt.Sprintf("step %d %q failAt=%d (%s)", k, sql, failAt, p)
			if got := snap(t, w); !bytes.Equal(got, before) {
				t.Fatalf("%s: live state changed after rollback", when)
			}
			if got := recoverBytes(t, crashImage(t, dir)); !bytes.Equal(got, before) {
				t.Fatalf("%s: crash-image recovery diverged from pre-statement state:\n got:\n%s\nwant:\n%s",
					when, got, before)
			}
		}
		if !committed {
			t.Fatalf("step %d %q: sweep did not terminate within %d injection points", k, sql, limit)
		}
	}

	// The clean final state itself recovers byte-identically.
	want := snap(t, w)
	if got := recoverBytes(t, crashImage(t, dir)); !bytes.Equal(got, want) {
		t.Fatal("final state does not survive recovery")
	}
}

// TestFaultInjectionCrashRecovery sweeps the CSMAS workload.
func TestFaultInjectionCrashRecovery(t *testing.T) {
	sweepCrashRecovery(t, crashDDL, crashSteps)
}

// TestFaultInjectionTornWriteSweep cuts the log at every byte offset
// inside the final mutation's intent and commit records — every possible
// torn write of the tail — and asserts recovery is all-or-nothing: any
// cut strictly before the end of the commit record recovers the
// pre-mutation oracle; the whole file recovers the post-mutation oracle.
func TestFaultInjectionTornWriteSweep(t *testing.T) {
	// Oracle runs: k-1 steps and k steps in their own durable dirs, so the
	// logged LSN sequences match the torn run exactly.
	oracle := func(steps int) []byte {
		dir := t.TempDir()
		d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Warehouse().Exec(crashDDL); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := d.Warehouse().Exec(crashSteps[i]); err != nil {
				t.Fatal(err)
			}
		}
		return snap(t, d.Warehouse())
	}
	wantPrev := oracle(len(crashSteps) - 1)
	wantFull := oracle(len(crashSteps))

	// The run whose log we tear.
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Warehouse().Exec(crashDDL); err != nil {
		t.Fatal(err)
	}
	for _, sql := range crashSteps {
		if _, err := d.Warehouse().Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := os.ReadFile(filepath.Join(dir, wal.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, ends, derr := wal.Decode(whole)
	if derr != nil {
		t.Fatalf("baseline log not clean: %v", derr)
	}
	// The final mutation is the last intent+commit pair; its intent starts
	// where the antepenultimate record ends.
	n := len(recs)
	if n < 3 || recs[n-1].Kind != wal.KindCommit || recs[n-2].Kind != wal.KindDelta {
		t.Fatalf("unexpected log tail: %v %v", recs[n-2].Kind, recs[n-1].Kind)
	}
	intentStart := ends[n-3]

	for cut := intentStart + 1; cut <= int64(len(whole)); cut++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, wal.LogFile), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := recoverBytes(t, img)
		want, label := wantPrev, "pre-mutation"
		if cut == int64(len(whole)) {
			want, label = wantFull, "post-mutation"
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d (of %d): recovered state differs from %s oracle:\n got:\n%s\nwant:\n%s",
				cut, len(whole), label, got, want)
		}
	}
}

// TestFaultInjectionCheckpointCrash simulates a crash between the
// checkpoint's snapshot rename and the log trim: the stale log suffix
// must replay idempotently against the newer snapshot.
func TestFaultInjectionCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := d.Warehouse()
	if _, err := w.Exec(crashDDL); err != nil {
		t.Fatal(err)
	}
	for _, sql := range crashSteps {
		if _, err := w.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	want := snap(t, w)

	// Keep the pre-checkpoint log (full history), then checkpoint, then
	// construct the crash image: new snapshot + old, untrimmed log.
	staleLog, err := os.ReadFile(filepath.Join(dir, wal.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img := crashImage(t, dir)
	if err := os.WriteFile(filepath.Join(img, wal.LogFile), staleLog, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recoverBytes(t, img); !bytes.Equal(got, want) {
		t.Fatal("stale log suffix after checkpoint rename was not replayed idempotently")
	}
}

// pageWarehouse moves w's auxiliary views onto out-of-core pager stores
// with a deliberately tiny buffer pool (4 frames of the smallest pages),
// so the workload continuously spills and refetches, and wires the pool's
// dirty-page writes to the WAL's flushed-LSN rule.
func pageWarehouse(t *testing.T, w *warehouse.Warehouse, log *wal.Log) *pager.Factory {
	t.Helper()
	fac, err := pager.NewFactory(filepath.Join(t.TempDir(), "pages"), pager.Options{
		PageSize:  pager.MinPageSize,
		PoolPages: 4,
		WAL:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fac.Close() })
	if err := w.SetAuxStoreFactory(func(view, table string) (maintain.AuxStore, error) {
		return fac.Open(view, table)
	}); err != nil {
		t.Fatal(err)
	}
	return fac
}

// pagedSeed bulk-loads products and sales (prices again multiples of
// 0.25) in a handful of multi-row statements, enough rows that every
// auxiliary store spans far more pages than the 4-frame pool.
func pagedSeed() []string {
	var stmts []string
	for base := 0; base < 60; base += 15 {
		prod := "INSERT INTO product VALUES "
		sale := "INSERT INTO sale VALUES "
		for i := 0; i < 15; i++ {
			id := 100 + base + i
			if i > 0 {
				prod += ", "
				sale += ", "
			}
			prod += fmt.Sprintf("(%d, 'brand%d', 'cat%d')", id, id%5, id%3)
			sale += fmt.Sprintf("(%d, %d, %d, %g)", 1000+base+i, id, id%7, float64(id%13)*0.25)
		}
		stmts = append(stmts, prod+";", sale+";")
	}
	return stmts
}

// recoverBytesPaged recovers from the on-disk image and re-snapshots the
// warehouse twice: once in memory and once after migrating the recovered
// auxiliary views onto fresh paged stores. Both must agree — the page
// files are ephemeral spill storage, so recovery never reads them; it
// rebuilds from the snapshot and committed log suffix alone.
func recoverBytesPaged(t *testing.T, dir string) []byte {
	t.Helper()
	r, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery from %s: %v", dir, err)
	}
	defer r.Close()
	mem := snap(t, r.Warehouse())
	pageWarehouse(t, r.Warehouse(), r.Log())
	if paged := snap(t, r.Warehouse()); !bytes.Equal(paged, mem) {
		t.Fatalf("recovered state changed when migrated onto paged stores:\n mem:\n%s\npaged:\n%s", mem, paged)
	}
	return mem
}

// TestFaultInjectionCrashRecoveryPaged is the crash sweep of
// TestFaultInjectionCrashRecovery with the auxiliary views out of core:
// every statement, every injection point it visits — now including the
// pager's PageEvict and PageFlush points, since the tiny pool spills
// mid-apply — with both the rollback and the crash-recovery halves of the
// contract checked bit-identically against the in-memory oracle, and
// recovery additionally re-verified on a paged backend.
func TestFaultInjectionCrashRecoveryPaged(t *testing.T) {
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := d.Warehouse()
	if _, err := w.Exec(crashDDL); err != nil {
		t.Fatal(err)
	}
	pageWarehouse(t, w, d.Log())
	// Bulk rows so every auxiliary store far exceeds the 4-frame pool:
	// each statement of the sweep then evicts and refetches mid-apply.
	for _, sql := range pagedSeed() {
		if _, err := w.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}

	const limit = 100000
	sawPager := false
	for k, sql := range crashSteps {
		committed := false
		for failAt := int64(1); failAt <= limit; failAt++ {
			before := snap(t, w)
			h := faultinject.NewHook(failAt)
			w.SetFaultHook(h)
			_, err := w.Exec(sql)
			w.SetFaultHook(nil)
			if err == nil {
				if p, fired := h.Fired(); fired {
					t.Fatalf("step %d %q: hook fired at %s but Exec succeeded", k, sql, p)
				}
				committed = true
				break
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("step %d %q failAt=%d: genuine error: %v", k, sql, failAt, err)
			}
			p, _ := h.Fired()
			if p == faultinject.PageEvict || p == faultinject.PageFlush {
				sawPager = true
			}
			when := fmt.Sprintf("step %d %q failAt=%d (%s)", k, sql, failAt, p)
			if got := snap(t, w); !bytes.Equal(got, before) {
				t.Fatalf("%s: live state changed after rollback", when)
			}
			if got := recoverBytesPaged(t, crashImage(t, dir)); !bytes.Equal(got, before) {
				t.Fatalf("%s: crash-image recovery diverged from pre-statement state:\n got:\n%s\nwant:\n%s",
					when, got, before)
			}
		}
		if !committed {
			t.Fatalf("step %d %q: sweep did not terminate within %d injection points", k, sql, limit)
		}
	}
	if !sawPager {
		t.Fatal("sweep never reached a pager injection point — pool not small enough?")
	}

	want := snap(t, w)
	if got := recoverBytesPaged(t, crashImage(t, dir)); !bytes.Equal(got, want) {
		t.Fatal("final state does not survive recovery")
	}
}

// TestFaultInjectionTornWriteSweepPaged re-runs the torn-write sweep with
// the writing warehouse out of core: the log bytes a paged run produces
// must recover — at every cut offset — to the same in-memory oracles,
// since the WAL records logical deltas that are backend-independent and
// the page files never participate in recovery.
func TestFaultInjectionTornWriteSweepPaged(t *testing.T) {
	oracle := func(steps int) []byte {
		dir := t.TempDir()
		d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Warehouse().Exec(crashDDL); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := d.Warehouse().Exec(crashSteps[i]); err != nil {
				t.Fatal(err)
			}
		}
		return snap(t, d.Warehouse())
	}
	wantPrev := oracle(len(crashSteps) - 1)
	wantFull := oracle(len(crashSteps))

	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Warehouse().Exec(crashDDL); err != nil {
		t.Fatal(err)
	}
	pageWarehouse(t, d.Warehouse(), d.Log())
	for _, sql := range crashSteps {
		if _, err := d.Warehouse().Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap(t, d.Warehouse()); !bytes.Equal(got, wantFull) {
		t.Fatal("paged warehouse diverged from the in-memory oracle before any crash")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := os.ReadFile(filepath.Join(dir, wal.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, ends, derr := wal.Decode(whole)
	if derr != nil {
		t.Fatalf("baseline log not clean: %v", derr)
	}
	n := len(recs)
	if n < 3 || recs[n-1].Kind != wal.KindCommit || recs[n-2].Kind != wal.KindDelta {
		t.Fatalf("unexpected log tail: %v %v", recs[n-2].Kind, recs[n-1].Kind)
	}
	intentStart := ends[n-3]

	for cut := intentStart + 1; cut <= int64(len(whole)); cut++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, wal.LogFile), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := recoverBytesPaged(t, img)
		want, label := wantPrev, "pre-mutation"
		if cut == int64(len(whole)) {
			want, label = wantFull, "post-mutation"
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d (of %d): recovered state differs from %s oracle", cut, len(whole), label)
		}
	}
}

// batchDeltas builds the externally produced batch the group-commit crash
// tests drive through ApplyDeltaBatch: adjacent insert-only sale deltas
// (which coalesce) against the products the seed steps created. Prices are
// multiples of 0.25 as above.
func batchDeltas() []maintain.Delta {
	ds := make([]maintain.Delta, 4)
	for k := range ds {
		ds[k].Table = "sale"
		for i := 0; i < 2; i++ {
			id := int64(100 + k*2 + i)
			ds[k].Inserts = append(ds[k].Inserts, tuple.Tuple{
				types.Int(id), types.Int(id%2 + 1), types.Int(id % 5), types.Float(float64(id%7) * 0.25),
			})
		}
	}
	return ds
}

// TestFaultInjectionGroupCommitBatch sweeps an injected failure through
// every point a group-committed batch visits — per-member WAL logging,
// every engine-level point of the (coalesced) propagation, and the
// BatchCommit point in front of the group commit — and checks the
// recovery contract at each:
//
//   - a failure at BatchCommit leaves the whole batch applied in memory
//     but without a single durable outcome, so crash recovery lands
//     byte-identically on the PRE-batch state: the batch is all-or-nothing
//     against a crash before its group commit;
//   - a failure anywhere else rolls back (only) the failed member, the
//     survivors group-commit durably, and crash recovery lands
//     byte-identically on the LIVE post-batch state.
//
// Each probe runs in a fresh durable directory because a BatchCommit
// failure intentionally leaves live memory ahead of the log.
func TestFaultInjectionGroupCommitBatch(t *testing.T) {
	setup := func() (string, *wal.Durable, *warehouse.Warehouse) {
		t.Helper()
		dir := t.TempDir()
		d, err := wal.Open(dir, wal.Options{Sync: wal.SyncCommit})
		if err != nil {
			t.Fatal(err)
		}
		w := d.Warehouse()
		for _, sql := range append([]string{crashDDL}, crashSteps[0], crashSteps[1]) {
			if _, err := w.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		return dir, d, w
	}

	const limit = 100000
	sawBatchCommit := false
	committed := false
	for failAt := int64(1); !committed && failAt <= limit; failAt++ {
		dir, d, w := setup()
		before := snap(t, w)
		h := faultinject.NewHook(failAt)
		w.SetFaultHook(h)
		errs := w.ApplyDeltaBatch(batchDeltas())
		w.SetFaultHook(nil)
		p, fired := h.Fired()
		when := fmt.Sprintf("failAt=%d (%s)", failAt, p)
		if !fired {
			for i, err := range errs {
				if err != nil {
					t.Fatalf("clean batch: delta %d failed: %v", i, err)
				}
			}
			committed = true
		}
		for i, err := range errs {
			if err != nil && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s: delta %d genuine error: %v", when, i, err)
			}
		}
		got := recoverBytes(t, crashImage(t, dir))
		if fired && p == faultinject.BatchCommit {
			sawBatchCommit = true
			if !bytes.Equal(got, before) {
				t.Fatalf("%s: batch without group commit leaked into recovery", when)
			}
			failures := 0
			for _, err := range errs {
				if err != nil {
					failures++
				}
			}
			if failures != len(errs) {
				t.Fatalf("%s: %d of %d members reported success without a durable commit", when, len(errs)-failures, len(errs))
			}
		} else if want := snap(t, w); !bytes.Equal(got, want) {
			t.Fatalf("%s: crash-image recovery diverged from live post-batch state", when)
		}
		d.Close()
	}
	if !committed {
		t.Fatalf("sweep did not terminate within %d injection points", limit)
	}
	if !sawBatchCommit {
		t.Fatal("sweep never reached the BatchCommit injection point")
	}
}

// TestFaultInjectionTornBatchCommitSweep group-commits a batch, then cuts
// the log at every byte offset inside the batch's intent and commit
// region — every possible torn write of the group-commit tail — and
// asserts recovery equals the oracle holding exactly the members whose
// commit records survived whole: torn intents and outcome-less members
// vanish, each whole commit record flips exactly its member to durable.
func TestFaultInjectionTornBatchCommitSweep(t *testing.T) {
	batch := batchDeltas()

	// oracle(j): the first j members applied individually. The WAL record
	// shapes differ (interleaved intent/commit vs batched), but the LSN
	// numbering and the recovered warehouse state are identical.
	oracle := func(j int) []byte {
		dir := t.TempDir()
		d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		w := d.Warehouse()
		for _, sql := range append([]string{crashDDL}, crashSteps[0], crashSteps[1]) {
			if _, err := w.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < j; i++ {
			if err := w.ApplyDelta(batch[i]); err != nil {
				t.Fatal(err)
			}
		}
		return snap(t, w)
	}
	oracles := make([][]byte, len(batch)+1)
	for j := range oracles {
		oracles[j] = oracle(j)
	}

	// The run whose log we tear: one ApplyDeltaBatch, so the tail is
	// len(batch) intents followed by len(batch) commit records.
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	w := d.Warehouse()
	for _, sql := range append([]string{crashDDL}, crashSteps[0], crashSteps[1]) {
		if _, err := w.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i, err := range w.ApplyDeltaBatch(batch) {
		if err != nil {
			t.Fatalf("batch delta %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := os.ReadFile(filepath.Join(dir, wal.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, ends, derr := wal.Decode(whole)
	if derr != nil {
		t.Fatalf("baseline log not clean: %v", derr)
	}
	n, b := len(recs), len(batch)
	for i := 0; i < b; i++ {
		if recs[n-2*b+i].Kind != wal.KindDelta || recs[n-b+i].Kind != wal.KindCommit {
			t.Fatalf("log tail is not %d intents + %d commits", b, b)
		}
	}
	regionStart := ends[n-2*b-1]

	for cut := regionStart + 1; cut <= int64(len(whole)); cut++ {
		// j = whole commit records of the batch at or before the cut.
		j := 0
		for i := n - b; i < n; i++ {
			if ends[i] <= cut {
				j++
			}
		}
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, wal.LogFile), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverBytes(t, img); !bytes.Equal(got, oracles[j]) {
			t.Fatalf("cut %d (of %d, %d commits whole): recovered state differs from oracle(%d)",
				cut, len(whole), j, j)
		}
	}
}
