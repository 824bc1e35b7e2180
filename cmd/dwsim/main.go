// Command dwsim simulates the paper's warehouse scenario end to end: it
// loads the retail workload at a chosen scale, materializes the
// product_sales view with its minimal auxiliary views, detaches the
// sources, streams deltas through the maintenance engine, and reports
// storage and throughput.
//
//	dwsim -scale 50000 -deltas 1000 -mix default
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mindetail/internal/experiments"
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/pager"
	"mindetail/internal/workload"
)

func main() {
	scale := flag.Int("scale", 50000, "approximate fact-table tuples")
	deltas := flag.Int("deltas", 1000, "number of deltas to stream")
	mixName := flag.String("mix", "default", "delta mix: default or insert-only")
	view := flag.String("view", "paper", "view: paper, csmas, or elimination")
	metrics := flag.Bool("metrics", false, "dump the observability snapshot (stage histograms, counters, traces) as JSON after the run")
	walDir := flag.String("wal", "", "durability mode: run the scenario against a durable warehouse in this directory (WAL + snapshot), ending with a recovery self-check")
	walSync := flag.String("wal-sync", "commit", "WAL fsync policy in -wal mode: always, commit, or never")
	batch := flag.Int("batch", 1, "in -wal mode, deltas per group-committed batch (1 = one fsync per delta)")
	auxDisk := flag.Bool("aux-disk", false, "keep the auxiliary views out of core in slotted-page stores (a scratch directory of page files) instead of in memory")
	cachePages := flag.Int("cache-pages", 256, "in -aux-disk mode, buffer-pool frames per auxiliary store")
	advise := flag.Bool("advise", false, "record an interleaved query/delta workload, mine it for candidate views under -advise-budget, materialize the picks, and replay to report the net cost delta")
	adviseBudget := flag.Int("advise-budget", 0, "space budget in bytes for the views -advise may pick (0 = unlimited)")
	zoo := flag.String("zoo", "", "replay a workload-zoo scenario by name ('list' prints them); -scale sizes the load, -deltas counts replayed ops, -seed seeds the stream")
	seed := flag.Int64("seed", 1, "in -zoo mode, the operation stream's seed")
	flag.Parse()

	err := validateFlags(*walDir, *advise, *batch)
	switch {
	case err != nil:
	case *zoo != "":
		err = runZoo(os.Stdout, *zoo, *scale, *deltas, *seed)
	case *advise:
		err = runAdvise(os.Stdout, *scale, *deltas, *mixName, *adviseBudget)
	case *walDir != "":
		err = runWAL(os.Stdout, *walDir, *scale, *deltas, *mixName, *view, *walSync, *batch, *auxDisk, *cachePages)
	default:
		err = run(os.Stdout, *scale, *deltas, *mixName, *view, *metrics, *auxDisk, *cachePages)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwsim:", err)
		os.Exit(1)
	}
}

// pagedAux creates an out-of-core pager factory in a scratch directory for
// -aux-disk mode; cleanup removes the page files (they are ephemeral spill
// storage, rebuilt from scratch on every run).
func pagedAux(w io.Writer, cachePages int, walLog pager.WALHook) (*pager.Factory, func(), error) {
	dir, err := os.MkdirTemp("", "dwsim-pages-")
	if err != nil {
		return nil, nil, err
	}
	opts := pager.Options{PoolPages: cachePages}
	if walLog != nil {
		opts.WAL = walLog
	}
	fac, err := pager.NewFactory(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	fmt.Fprintf(w, "out-of-core auxiliary views: page files in %s, pool %d frames per store\n", dir, cachePages)
	return fac, func() {
		fac.Close()
		os.RemoveAll(dir)
	}, nil
}

// printStoreStats reports per-store occupancy and pool behaviour after a
// paged run.
func printStoreStats(w io.Writer, fac *pager.Factory) {
	fmt.Fprintf(w, "\nout-of-core auxiliary stores:\n")
	for _, st := range fac.Stats() {
		fmt.Fprintf(w, "  %s/%s: %d rows, %d file pages (%d heap + %d index), resident %d/%d, hit ratio %.1f%%, %d evictions, %d flushes\n",
			st.View, st.Table, st.Rows, st.FilePages, st.HeapPages, st.IndexPages,
			st.Resident, st.Budget, 100*st.HitRatio(), st.Evictions, st.Flushes)
	}
}

func run(w io.Writer, scale, deltas int, mixName, view string, metrics bool, auxDisk bool, cachePages int) error {
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

	params := workload.ScaledDown(scale)
	fmt.Fprintf(w, "loading retail workload: %d fact tuples, %d days, %d stores, %d products\n",
		params.FactTuples(), params.Days, params.Stores, params.Products)
	start := time.Now()
	env, err := experiments.NewEnv(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded in %s\n", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	eng, err := env.MinimalEngine(viewSQL)
	if err != nil {
		return err
	}
	var fac *pager.Factory
	if auxDisk {
		var cleanup func()
		fac, cleanup, err = pagedAux(w, cachePages, nil)
		if err != nil {
			return err
		}
		defer cleanup()
		if err := eng.SetAuxStores(func(table string) (maintain.AuxStore, error) {
			return fac.Open(view, table)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "derived and initialized auxiliary views in %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(w)
	fmt.Fprint(w, eng.Plan().Text())

	baseBytes := env.DB.Table("sale").Bytes() + env.DB.Table("time").Bytes() +
		env.DB.Table("product").Bytes() + env.DB.Table("store").Bytes()
	fmt.Fprintf(w, "storage: base tables %d bytes, auxiliary views %d bytes (%.1fx reduction)\n",
		baseBytes, eng.AuxBytes(), float64(baseBytes)/float64(max(1, eng.AuxBytes())))

	mut := workload.NewMutator(env.DB, params)
	ds, err := mut.Batch(deltas, mix)
	if err != nil {
		return err
	}
	// The change log is prepared; from here on the warehouse would be
	// detached from the sources.
	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
		eng.SetMetrics(maintain.NewMetrics(reg))
	}
	eng.ResetStats()
	start = time.Now()
	for _, d := range ds {
		if err := eng.Apply(d); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	stats := eng.Stats()
	fmt.Fprintf(w, "\nstreamed %d deltas in %s (%.0f deltas/s)\n",
		len(ds), elapsed.Round(time.Millisecond),
		float64(len(ds))/elapsed.Seconds())
	fmt.Fprintf(w, "  detail rows joined: %d, aux lookups: %d, group adjusts: %d, group recomputes: %d (avoided: %d, rows re-aggregated: %d)\n",
		stats.DetailRows, stats.AuxLookups, stats.GroupAdjusts, stats.GroupRecomputes,
		stats.RecomputesAvoided, stats.ReaggregatedRows)
	fmt.Fprintf(w, "  view groups: %d, aux bytes now: %d\n", eng.Groups(), eng.AuxBytes())
	if fac != nil {
		printStoreStats(w, fac)
	}
	if reg != nil {
		data, err := reg.Snapshot().MarshalJSONIndent()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nmetrics:\n%s\n", data)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
