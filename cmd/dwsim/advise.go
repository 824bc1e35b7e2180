package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"mindetail/internal/costmodel"
	"mindetail/internal/csvload"
	"mindetail/internal/experiments"
	"mindetail/internal/ra"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// validateFlags rejects flag combinations whose semantics would be silently
// wrong rather than merely unusual. -batch only group-commits WAL fsyncs, so
// without -wal it would be accepted and ignored; -advise drives its own
// attached record/replay workload and cannot run inside the durable
// detached-source scenario.
func validateFlags(walDir string, advise bool, batch int) error {
	if batch > 1 && walDir == "" {
		return fmt.Errorf("-batch=%d requires -wal: group commit batches WAL fsyncs, and there is no WAL without -wal", batch)
	}
	if advise && walDir != "" {
		return fmt.Errorf("-advise records and replays an attached workload and is incompatible with -wal; run the durable scenario separately")
	}
	return nil
}

// adviseQueries is the recorded ad-hoc workload: two repeating analytical
// queries over the sources (the clusters the advisor should surface as
// candidate views) plus a read of the already-materialized paper view (which
// must be counted as a view hit, not a candidate).
var adviseQueries = []string{
	"SELECT month, TotalPrice FROM product_sales",
	"SELECT time.year, SUM(price) AS total FROM sale, time WHERE sale.timeid = time.id GROUP BY time.year",
	"SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand",
}

// loadRetail imports the generated retail environment into a warehouse
// through the positional CSV path (Export writes a table-qualified header
// row the import must not see).
func loadRetail(wh *warehouse.Warehouse, env *experiments.Env) (int, error) {
	var loaded int
	for _, table := range []string{"time", "product", "store", "sale"} {
		var buf bytes.Buffer
		if err := csvload.Export(ra.FromTable(env.DB.Table(table), table), &buf); err != nil {
			return 0, err
		}
		data := buf.Bytes()
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			data = data[i+1:]
		}
		n, err := wh.ImportCSV(table, bytes.NewReader(data), false)
		if err != nil {
			return 0, err
		}
		loaded += n
	}
	return loaded, nil
}

// runAdvise drives the view-selection advisor end to end: it records an
// interleaved query/delta workload through the warehouse op log, mines the
// log for candidate GPSJ views under the space budget, materializes the
// picks, and replays the same workload against them to report the measured
// net cost with and without the advised views.
func runAdvise(w io.Writer, scale, deltas int, mixName string, budget int) error {
	var mix workload.Mix
	switch mixName {
	case "default":
		mix = workload.DefaultMix()
	case "insert-only":
		mix = workload.InsertOnlyMix()
	default:
		return fmt.Errorf("unknown mix %q", mixName)
	}

	params := workload.ScaledDown(scale)
	fmt.Fprintf(w, "loading retail workload: %d fact tuples\n", params.FactTuples())
	env, err := experiments.NewEnv(params)
	if err != nil {
		return err
	}
	wh := warehouse.New()
	if _, err := wh.Exec(workload.DDL()); err != nil {
		return err
	}
	loaded, err := loadRetail(wh, env)
	if err != nil {
		return err
	}
	if _, err := wh.Exec("CREATE MATERIALIZED VIEW product_sales AS " + workload.ProductSalesSQL(1997)); err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d rows, materialized product_sales\n", loaded)

	// Record phase: the warehouse op log feeds the advisor while the
	// interleaved workload runs — a query sweep every few deltas, the way an
	// analyst would poll a warehouse under a trickle feed.
	adv := new(costmodel.Advisor)
	wh.SetOpLog(func(ev warehouse.OpEvent) {
		kind := costmodel.EventQuery
		if ev.Kind == "delta" {
			kind = costmodel.EventDelta
		}
		adv.Record(costmodel.Event{Kind: kind, View: ev.View, SQL: ev.SQL,
			Tables: ev.Tables, GroupBy: ev.GroupBy, Table: ev.Table, Rows: ev.Rows, Ns: ev.Ns})
	})
	mut := workload.NewMutator(env.DB, params)
	runWorkload := func(queryFor func(sql string) (time.Duration, error)) (queryT, deltaT time.Duration, err error) {
		ds, err := mut.Batch(deltas, mix)
		if err != nil {
			return 0, 0, err
		}
		for i, d := range ds {
			start := time.Now()
			if err := wh.ApplyDelta(d); err != nil {
				return 0, 0, fmt.Errorf("delta %d: %w", i, err)
			}
			deltaT += time.Since(start)
			if i%5 == 4 {
				for _, q := range adviseQueries {
					qt, err := queryFor(q)
					if err != nil {
						return 0, 0, fmt.Errorf("query %q: %w", q, err)
					}
					queryT += qt
				}
			}
		}
		return queryT, deltaT, nil
	}
	adhoc := func(sql string) (time.Duration, error) {
		start := time.Now()
		_, err := wh.Exec(sql)
		return time.Since(start), err
	}
	queryBefore, deltaBefore, err := runWorkload(adhoc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d workload events (%d deltas, query sweep every 5)\n", adv.Len(), deltas)

	// Mine the log. The op log stays attached only for recording; the replay
	// below must not contaminate the advice.
	wh.SetOpLog(nil)
	advice, err := adv.Advise(wh.Catalog(), func(t string) *ra.Relation {
		return ra.FromTable(wh.Source().Table(t), t)
	}, budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nworkload: %d view-answered queries, %d ad-hoc queries, %d deltas\n",
		advice.ViewQueries, advice.AdhocQueries, advice.DeltaEvents)
	if budget > 0 {
		fmt.Fprintf(w, "space budget: %d bytes (picked %d)\n", budget, advice.PickedBytes)
	}
	fmt.Fprintf(w, "candidates (ranked by benefit density):\n")
	picked := map[string]string{} // representative SQL -> advised view name
	for _, c := range advice.Candidates {
		status := "SKIP: " + c.Reason
		if c.Picked {
			status = "PICK"
			picked[c.SQL] = c.Name
		}
		fmt.Fprintf(w, "  %-10s %3d queries (%8s) vs %3d deltas (%8s), %8d bytes  %s\n",
			c.Name, c.Queries, time.Duration(c.QueryNs).Round(time.Microsecond),
			c.Deltas, time.Duration(c.DeltaNs).Round(time.Microsecond), c.EstBytes, status)
		if len(c.OmittedAux) > 0 {
			fmt.Fprintf(w, "  %-10s auxiliary views eliminated for: %s\n", "", strings.Join(c.OmittedAux, ", "))
		}
	}

	// Replay phase: materialize the picks, then run the same workload again —
	// picked clusters read their advised view, everything else re-evaluates ad
	// hoc, and the delta stream now also maintains the new views.
	for _, c := range advice.Candidates {
		if !c.Picked {
			continue
		}
		if _, err := wh.Exec("CREATE MATERIALIZED VIEW " + c.Name + " AS " + c.SQL); err != nil {
			return fmt.Errorf("materializing %s: %w", c.Name, err)
		}
	}
	queryAfter, deltaAfter, err := runWorkload(func(sql string) (time.Duration, error) {
		if name, ok := picked[sql]; ok {
			start := time.Now()
			_, err := wh.Query(name)
			return time.Since(start), err
		}
		return adhoc(sql)
	})
	if err != nil {
		return err
	}

	before := queryBefore + deltaBefore
	after := queryAfter + deltaAfter
	fmt.Fprintf(w, "\nreplay without picks: queries %s + maintenance %s = %s\n",
		queryBefore.Round(time.Microsecond), deltaBefore.Round(time.Microsecond), before.Round(time.Microsecond))
	fmt.Fprintf(w, "replay with %d picks:  queries %s + maintenance %s = %s\n",
		len(picked), queryAfter.Round(time.Microsecond), deltaAfter.Round(time.Microsecond), after.Round(time.Microsecond))
	fmt.Fprintf(w, "net cost delta: %+.1f%% (%s per workload pass)\n",
		100*(float64(after)-float64(before))/float64(before), (after - before).Round(time.Microsecond))
	return nil
}
