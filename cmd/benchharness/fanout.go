package main

import (
	"fmt"
	"sync"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// fanoutParams sizes the fan-out scenarios: ~14.6k fact tuples, enough for
// per-view staging cost to dominate scheduling overhead.
var fanoutParams = workload.RetailParams{
	Days: 365, Stores: 2, Products: 1000, ProductsSoldPerDay: 20,
	TransactionsPerProduct: 1, Brands: 50, SelectYear: 1997, Seed: 1,
}

// fanoutWarehouse builds a warehouse carrying n copies of the paper view;
// every delta stages on all n engines, across the propagation pool.
func fanoutWarehouse(n int) (*warehouse.Warehouse, [2]tuple.Tuple, error) {
	w := warehouse.New()
	if _, err := w.Exec(workload.DDL()); err != nil {
		return nil, [2]tuple.Tuple{}, err
	}
	if err := workload.Load(w.Source(), fanoutParams); err != nil {
		return nil, [2]tuple.Tuple{}, err
	}
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("CREATE MATERIALIZED VIEW fan%d AS %s", i, workload.ProductSalesSQL(1997))
		if _, err := w.Exec(sql); err != nil {
			return nil, [2]tuple.Tuple{}, err
		}
	}
	old := w.Source().Table("sale").Get(types.Int(1))
	if old == nil {
		return nil, [2]tuple.Tuple{}, fmt.Errorf("sale 1 missing")
	}
	alt := old.Clone()
	alt[4] = types.Float(old[4].AsFloat() + 1)
	return w, [2]tuple.Tuple{old, alt}, nil
}

// benchFanout measures one delta propagated through n identical views. The
// flip counter lives outside the benchmark closure so the alternating
// update stream stays consistent across testing.Benchmark's internal
// restarts with growing b.N. obsOn=false switches off the warehouse's
// time-based instrumentation (stage histograms, propagate clock) to measure
// the observability overhead; the warehouse is returned so callers can
// snapshot its metric registry after an instrumented run.
func benchFanout(n int, obsOn bool) (testing.BenchmarkResult, *warehouse.Warehouse, error) {
	w, imgs, err := fanoutWarehouse(n)
	if err != nil {
		return testing.BenchmarkResult{}, nil, err
	}
	w.SetObs(obsOn)
	flip := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := maintain.Delta{Table: "sale", Updates: []maintain.Update{
				{Old: imgs[flip%2], New: imgs[(flip+1)%2]},
			}}
			flip++
			if err := w.ApplyDelta(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, w, nil
}

// benchQueryUnderWriteLoad measures Query latency on an 8-view warehouse
// while a background writer continuously propagates deltas. The default
// configuration serves lock-free published snapshots; locked=true disables
// the snapshot cache, so every read re-materializes the view under the
// read lock and queues behind in-flight propagations.
func benchQueryUnderWriteLoad(locked bool) (testing.BenchmarkResult, error) {
	w, imgs, err := fanoutWarehouse(8)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	w.DisableSnapshots = locked
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for flip := 0; ; flip++ {
			select {
			case <-stop:
				return
			default:
			}
			d := maintain.Delta{Table: "sale", Updates: []maintain.Update{
				{Old: imgs[flip%2], New: imgs[(flip+1)%2]},
			}}
			if err := w.ApplyDelta(d); err != nil {
				writeErr = err
				return
			}
		}
	}()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Query("fan0"); err != nil {
				b.Fatal(err)
			}
		}
	})
	close(stop)
	wg.Wait()
	if writeErr != nil {
		return testing.BenchmarkResult{}, writeErr
	}
	return r, nil
}

// runFanoutBenches measures the fan-out propagation and concurrent-read
// scenarios, returning results in report order. The 32-view scenario
// additionally runs with instrumentation disabled ("/no-obs") to expose the
// observability overhead, and its instrumented run's stage histograms are
// recorded into stageHists for the report.
func runFanoutBenches(stageHists map[string]map[string]obs.HistogramSnapshot) ([]benchResult, error) {
	var out []benchResult
	for _, n := range []int{8, 32} {
		name := fmt.Sprintf("PropagateFanout%dViews", n)
		r, w, err := benchFanout(n, true)
		if err != nil {
			return nil, err
		}
		out = append(out, toResult(name, r))
		if n == 32 {
			stageHists[name] = histSnapshots(w.ObsRegistry())
			noObs, _, err := benchFanout(n, false)
			if err != nil {
				return nil, err
			}
			out = append(out, toResult(name+"/no-obs", noObs))
		}
	}
	snap, err := benchQueryUnderWriteLoad(false)
	if err != nil {
		return nil, err
	}
	out = append(out, toResult("QueryUnderWriteLoad", snap))
	lock, err := benchQueryUnderWriteLoad(true)
	if err != nil {
		return nil, err
	}
	out = append(out, toResult("QueryUnderWriteLoad/locked", lock))
	return out, nil
}
