package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"mindetail/internal/csvload"
	"mindetail/internal/experiments"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/persist"
	"mindetail/internal/ra"
	"mindetail/internal/wal"
	"mindetail/internal/workload"
)

// runWAL runs the paper scenario against a durable warehouse: schema and
// bulk load are write-ahead logged, the sources are detached, a
// checkpoint shrinks the log to a snapshot, and the delta stream then
// arrives through ApplyDelta with every mutation logged before it is
// applied. The run ends with a recovery self-check: the directory is
// reopened and the recovered warehouse must match the live one byte for
// byte.
func runWAL(w io.Writer, dir string, scale, deltas int, mixName, view, syncName string, batch int, auxDisk bool, cachePages int) error {
	var sync wal.SyncPolicy
	switch syncName {
	case "always":
		sync = wal.SyncAlways
	case "commit":
		sync = wal.SyncCommit
	case "never":
		sync = wal.SyncNever
	default:
		return fmt.Errorf("unknown -wal-sync %q (always, commit, or never)", syncName)
	}
	var mix workload.Mix
	switch mixName {
	case "default":
		mix = workload.DefaultMix()
	case "insert-only":
		mix = workload.InsertOnlyMix()
	default:
		return fmt.Errorf("unknown mix %q", mixName)
	}
	var viewSQL string
	switch view {
	case "paper":
		viewSQL = workload.ProductSalesSQL(1997)
	case "csmas":
		viewSQL = workload.CSMASOnlySQL(1997)
	case "elimination":
		viewSQL = workload.EliminationSQL()
	default:
		return fmt.Errorf("unknown view %q", view)
	}

	// Generate the workload in memory first; the durable warehouse ingests
	// it through the logged ImportCSV path.
	params := workload.ScaledDown(scale)
	fmt.Fprintf(w, "generating retail workload: %d fact tuples\n", params.FactTuples())
	env, err := experiments.NewEnv(params)
	if err != nil {
		return err
	}

	d, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		return err
	}
	defer d.Close()
	dw := d.Warehouse()
	if dw.LSN() != 0 {
		return fmt.Errorf("directory %s already holds a warehouse (LSN %d); use an empty directory", dir, dw.LSN())
	}
	if _, err := dw.Exec(workload.DDL()); err != nil {
		return err
	}
	var fac *pager.Factory
	if auxDisk {
		// Dirty pages respect the WAL rule (page LSN flushed before
		// write-back); the page files themselves are scratch — recovery
		// replays the log into memory and never reads them.
		var cleanup func()
		fac, cleanup, err = pagedAux(w, cachePages, d.Log())
		if err != nil {
			return err
		}
		defer cleanup()
		if err := dw.SetAuxStoreFactory(func(view, table string) (maintain.AuxStore, error) {
			return fac.Open(view, table)
		}); err != nil {
			return err
		}
	}

	start := time.Now()
	var loaded int
	for _, table := range []string{"time", "product", "store", "sale"} {
		var buf bytes.Buffer
		if err := csvload.Export(ra.FromTable(env.DB.Table(table), table), &buf); err != nil {
			return err
		}
		// Export writes a table-qualified header row; the import is
		// positional, so strip it.
		data := buf.Bytes()
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			data = data[i+1:]
		}
		n, err := dw.ImportCSV(table, bytes.NewReader(data), false)
		if err != nil {
			return err
		}
		loaded += n
	}
	if _, err := dw.Exec("CREATE MATERIALIZED VIEW product_sales AS " + viewSQL + ";"); err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d rows and materialized the view in %s (log %d bytes)\n",
		loaded, time.Since(start).Round(time.Millisecond), d.Log().Size())

	// The paper's detached phase: sever the sources, checkpoint so the
	// snapshot holds only the views and their minimal auxiliary data, and
	// stream the change log.
	dw.DetachSources()
	if err := d.Checkpoint(); err != nil {
		return err
	}
	fmt.Fprintf(w, "detached sources; checkpoint at LSN %d (log %d bytes)\n", dw.LSN(), d.Log().Size())

	mut := workload.NewMutator(env.DB, params)
	ds, err := mut.Batch(deltas, mix)
	if err != nil {
		return err
	}
	start = time.Now()
	if batch > 1 {
		// Group-committed batches: one fsync per batch instead of per delta,
		// adjacent insert-only deltas coalesced into single propagations.
		for lo := 0; lo < len(ds); lo += batch {
			hi := lo + batch
			if hi > len(ds) {
				hi = len(ds)
			}
			for i, err := range dw.ApplyDeltaBatch(ds[lo:hi]) {
				if err != nil {
					return fmt.Errorf("batched delta %d: %w", lo+i, err)
				}
			}
		}
	} else {
		for _, del := range ds {
			if err := dw.ApplyDelta(del); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "streamed %d logged deltas in %s (%.0f deltas/s, sync=%s, batch=%d)\n",
		len(ds), elapsed.Round(time.Millisecond),
		float64(len(ds))/elapsed.Seconds(), syncName, batch)
	fmt.Fprintf(w, "log now %d bytes, LSN %d\n", d.Log().Size(), dw.LSN())
	if fac != nil {
		printStoreStats(w, fac)
	}

	// Recovery self-check: everything acknowledged must be on disk.
	if err := d.Log().Sync(); err != nil { // sync=never keeps no other promise
		return err
	}
	var live bytes.Buffer
	if err := persist.Save(dw, &live, false); err != nil {
		return err
	}
	r, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		return fmt.Errorf("recovery self-check: %w", err)
	}
	defer r.Close()
	var recovered bytes.Buffer
	if err := persist.Save(r.Warehouse(), &recovered, false); err != nil {
		return err
	}
	switch {
	case bytes.Equal(live.Bytes(), recovered.Bytes()):
		fmt.Fprintf(w, "recovery self-check: OK (%d state bytes, byte-identical)\n", live.Len())
	case statesEquivalent(live.Bytes(), recovered.Bytes()):
		// Group recomputes (deletes under COUNT DISTINCT) re-sum detail
		// rows; the snapshot restores them in sorted rather than insertion
		// order, so float sums can differ in the last ulp. Equivalent, not
		// byte-identical.
		fmt.Fprintf(w, "recovery self-check: OK (%d state bytes, equal within float accumulation order)\n", live.Len())
	default:
		return fmt.Errorf("recovery self-check FAILED: recovered state differs from live state")
	}
	return nil
}

// statesEquivalent compares two persisted warehouse states line by line,
// allowing float fields (tagged "f:") to differ by a relative error of
// 1e-9 — the accumulation-order tolerance — while everything else must
// match exactly.
func statesEquivalent(a, b []byte) bool {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] == lb[i] {
			continue
		}
		fa := strings.Split(la[i], ",")
		fb := strings.Split(lb[i], ",")
		if len(fa) != len(fb) {
			return false
		}
		for j := range fa {
			if fa[j] == fb[j] {
				continue
			}
			if !strings.HasPrefix(fa[j], "f:") || !strings.HasPrefix(fb[j], "f:") {
				return false
			}
			x, errA := strconv.ParseFloat(fa[j][2:], 64)
			y, errB := strconv.ParseFloat(fb[j][2:], 64)
			if errA != nil || errB != nil {
				return false
			}
			if diff := math.Abs(x - y); diff > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		}
	}
	return true
}
