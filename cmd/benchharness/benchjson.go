package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mindetail/internal/experiments"
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/workload"
)

// benchResult is one benchmark measurement in BENCH_maintain.json.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the machine-readable record of the maintenance hot path's
// performance. Baseline holds the same scenarios re-measured under the
// seed-commit configuration (full recomputation instead of the
// delta-scoped path, per-Eval string-key group encoding), so every
// regeneration carries a before/after comparison measured on the same
// machine, with real iteration counts.
type benchReport struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GoOS        string        `json:"goos"`
	GoArch      string        `json:"goarch"`
	Baseline    []benchResult `json:"baseline_full_recompute_seed"`
	Benchmarks  []benchResult `json:"benchmarks"`

	// StageHistograms carries the per-stage latency distributions (p50/p95/
	// p99) recorded by the observability layer during the instrumented bench
	// runs, keyed by benchmark name then metric name.
	StageHistograms map[string]map[string]obs.HistogramSnapshot `json:"stage_histograms"`

	// PoolCounters is the buffer pool's obs snapshot (pager.pool.* hits,
	// misses, evictions, flushes, resident) from the out-of-core run.
	PoolCounters map[string]int64 `json:"out_of_core_pool_counters,omitempty"`
}

// measureSeedBaseline re-measures the seed-commit scenarios live. Earlier
// reports embedded the seed numbers as recorded constants, which had no
// iteration counts and so serialized as "iterations": 0 — indistinguishable
// from a benchmark that never ran. Measuring the baseline configurations
// (ForceFullRecompute for the apply scenarios, the string-returning KeyAt
// encoder) alongside the optimized runs yields real iteration counts and a
// like-for-like comparison on the same machine.
//
// fullRecompute and keyAt are the already-measured runs of this invocation
// that ARE the baseline configurations; only the paper view with DISTINCT
// needs a dedicated run.
func measureSeedBaseline(fullRecompute, keyAt benchResult) ([]benchResult, error) {
	env, err := experiments.NewEnv(workload.ScaledDown(20000))
	if err != nil {
		return nil, err
	}
	eng, err := env.MinimalEngine(workload.ProductSalesSQL(1997))
	if err != nil {
		return nil, err
	}
	eng.ForceFullRecompute = true
	mut := workload.NewMutator(env.DB, env.Params)
	mix := workload.DefaultMix()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, err := mut.Next(mix)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			b.StartTimer()
			if err := eng.Apply(d); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	return []benchResult{
		{Name: "ApplySmallDeltaLargeAux", Iterations: fullRecompute.Iterations,
			NsPerOp: fullRecompute.NsPerOp, BytesPerOp: fullRecompute.BytesPerOp, AllocsPerOp: fullRecompute.AllocsPerOp},
		toResult("MaintainPaperViewWithDistinct", r),
		{Name: "GroupKeyEncode/KeyAt", Iterations: keyAt.Iterations,
			NsPerOp: keyAt.NsPerOp, BytesPerOp: keyAt.BytesPerOp, AllocsPerOp: keyAt.AllocsPerOp},
	}, nil
}

func toResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// smallDeltaEngine builds the headline scenario: a minimal-detail engine
// over ≥20k-row auxiliary views and a 1-row update delta on the fact table.
func smallDeltaEngine(forceFull bool) (*maintain.Engine, [2]tuple.Tuple, error) {
	env, err := experiments.NewEnv(workload.RetailParams{
		Days: 730, Stores: 2, Products: 5000, ProductsSoldPerDay: 50,
		TransactionsPerProduct: 1, Brands: 50, SelectYear: 1997, Seed: 1,
	})
	if err != nil {
		return nil, [2]tuple.Tuple{}, err
	}
	eng, err := env.MinimalEngine(`SELECT time.month, time.day, SUM(price) AS TotalPrice,
		COUNT(*) AS TotalCount, COUNT(DISTINCT brand) AS DifferentBrands
	FROM sale, time, product
	WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
	GROUP BY time.month, time.day`)
	if err != nil {
		return nil, [2]tuple.Tuple{}, err
	}
	eng.ForceFullRecompute = forceFull
	old := env.DB.Table("sale").Get(types.Int(1))
	if old == nil {
		return nil, [2]tuple.Tuple{}, fmt.Errorf("sale 1 missing")
	}
	alt := old.Clone()
	alt[4] = types.Float(old[4].AsFloat() + 1)
	return eng, [2]tuple.Tuple{old, alt}, nil
}

// benchSmallDelta runs the headline scenario. withObs=true attaches a live
// metrics sink (per-stage histograms, apply traces) and returns its registry
// so the report can embed the stage distributions; withObs=false measures
// the instrumentation-free hot path.
func benchSmallDelta(forceFull, withObs bool) (testing.BenchmarkResult, *obs.Registry, error) {
	eng, imgs, err := smallDeltaEngine(forceFull)
	if err != nil {
		return testing.BenchmarkResult{}, nil, err
	}
	var reg *obs.Registry
	if withObs {
		reg = obs.NewRegistry()
		eng.SetMetrics(maintain.NewMetrics(reg))
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := maintain.Delta{Table: "sale", Updates: []maintain.Update{
				{Old: imgs[i%2], New: imgs[(i+1)%2]},
			}}
			if err := eng.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, reg, nil
}

// histSnapshots extracts the non-empty histogram snapshots from a registry,
// keyed by metric name.
func histSnapshots(reg *obs.Registry) map[string]obs.HistogramSnapshot {
	out := map[string]obs.HistogramSnapshot{}
	for name, h := range reg.Snapshot().Histograms {
		if h.Count > 0 {
			out[name] = h
		}
	}
	return out
}

// runBenchJSON measures the maintenance hot-path benchmarks and writes
// BENCH_maintain.json. The full-recompute variant runs the same delta with
// the delta-scoped path disabled, so the speedup is reproducible from one
// invocation.
func runBenchJSON(path string) error {
	var results []benchResult
	stageHists := map[string]map[string]obs.HistogramSnapshot{}

	scoped, reg, err := benchSmallDelta(false, true)
	if err != nil {
		return err
	}
	results = append(results, toResult("ApplySmallDeltaLargeAux", scoped))
	stageHists["ApplySmallDeltaLargeAux"] = histSnapshots(reg)

	noObs, _, err := benchSmallDelta(false, false)
	if err != nil {
		return err
	}
	results = append(results, toResult("ApplySmallDeltaLargeAux/no-obs", noObs))

	full, _, err := benchSmallDelta(true, false)
	if err != nil {
		return err
	}
	results = append(results, toResult("ApplySmallDeltaLargeAux/force-full-recompute", full))

	row := tuple.Tuple{
		types.Int(7), types.Str("brand42"), types.Float(19.5),
		types.Int(1997), types.Str("cat3"),
	}
	pos := []int{0, 1, 3}
	var sink string
	keyAt := toResult("GroupKeyEncode/KeyAt", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = row.KeyAt(pos)
		}
	}))
	results = append(results, keyAt)
	results = append(results, toResult("GroupKeyEncode/AppendKeyAt", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = row.AppendKeyAt(buf[:0], pos)
		}
		sink = string(buf)
	})))
	_ = sink

	fanout, err := runFanoutBenches(stageHists)
	if err != nil {
		return err
	}
	results = append(results, fanout...)

	walBenches, err := runWALBenches()
	if err != nil {
		return err
	}
	results = append(results, walBenches...)

	batchBenches, err := runBatchBenches()
	if err != nil {
		return err
	}
	results = append(results, batchBenches...)

	serverQPS, err := runServerBench()
	if err != nil {
		return err
	}
	results = append(results, serverQPS)

	outOfCore, poolCounters, err := runOutOfCoreBenches()
	if err != nil {
		return err
	}
	results = append(results, outOfCore...)

	zoo, err := runZooBenches()
	if err != nil {
		return err
	}
	results = append(results, zoo...)

	baseline, err := measureSeedBaseline(toResult("ApplySmallDeltaLargeAux", full), keyAt)
	if err != nil {
		return err
	}

	rep := benchReport{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GoOS:            runtime.GOOS,
		GoArch:          runtime.GOARCH,
		Baseline:        baseline,
		Benchmarks:      results,
		StageHistograms: stageHists,
		PoolCounters:    poolCounters,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-50s %14.0f ns/op %12d B/op %9d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
