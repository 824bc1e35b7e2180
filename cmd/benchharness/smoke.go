package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// smokeFactor is how much slower than the committed BENCH_maintain.json a
// hot-path benchmark may measure before the smoke gate fails. The wide
// margin absorbs CI-runner variance while still catching order-of-
// magnitude regressions.
const smokeFactor = 3.0

// smokeGateNames is the canonical list of benchmarks the smoke gate
// re-measures. The gate cross-checks the measured set against this list:
// a gated benchmark that silently fails to produce a result — a helper
// returning a short slice, a renamed scenario — used to make the gate
// pass vacuously; now it is "missing from run" and fails the gate.
func smokeGateNames() []string {
	return []string{
		"ApplySmallDeltaLargeAux/no-obs",
		"GroupKeyEncode/KeyAt",
		"WALAppendThroughput",
		"RecoveryReplay/200-deltas",
		"BatchPropagate2",
		"BatchPropagate4",
		"BatchPropagate8",
		"ServerQPS",
		"OutOfCoreMaintain/memory",
		"OutOfCoreMaintain/paged",
		"OnlineBackfillUnderLoad",
		"ZipfSkewMaintain",
		"TinyGroupsFanout",
		"SnowflakeUpdateHeavy",
		"WideGroupMaintain",
	}
}

// runSmoke re-measures a fast subset of the recorded hot-path benchmarks
// and fails when any of them regressed more than smokeFactor against the
// committed report at path, or when a gated benchmark went missing from
// the run entirely. It is the CI bench-smoke gate: cheap enough for every
// push, coarse enough not to flake.
func runSmoke(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("smoke: reading committed report: %w", err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("smoke: parsing %s: %w", path, err)
	}
	committed := map[string]float64{}
	for _, b := range rep.Benchmarks {
		committed[b.Name] = b.NsPerOp
	}

	measured, err := smokeSubset()
	if err != nil {
		return err
	}
	measuredByName := map[string]bool{}
	for _, m := range measured {
		measuredByName[m.Name] = true
	}

	var failures int
	// A gated benchmark the run did not produce is a failure, not a free
	// pass: the committed baseline entry is unguarded until it returns.
	for _, name := range smokeGateNames() {
		if !measuredByName[name] {
			fmt.Printf("%-45s missing from run — gate list and measured subset diverged\n", name)
			failures++
		}
	}
	for _, m := range measured {
		want, ok := committed[m.Name]
		if !ok {
			// A benchmark added since the committed report has nothing to
			// regress against; report it and keep gating the rest. The next
			// `make bench-json` baselines it.
			fmt.Printf("%-45s %14.0f ns/op  (new, no committed baseline — regenerate with make bench-json)\n",
				m.Name, m.NsPerOp)
			continue
		}
		ratio := m.NsPerOp / want
		status := "ok"
		if ratio > smokeFactor {
			status = "REGRESSED"
			failures++
		}
		fmt.Printf("%-45s %14.0f ns/op  committed %14.0f  ratio %5.2fx  %s\n",
			m.Name, m.NsPerOp, want, ratio, status)
	}
	if failures > 0 {
		return fmt.Errorf("smoke: %d benchmark(s) regressed more than %.1fx or went missing vs %s", failures, smokeFactor, path)
	}
	fmt.Printf("bench smoke passed: %d benchmarks within %.1fx of %s\n", len(measured), smokeFactor, path)
	return nil
}

// smokeSubset measures the gate's benchmark subset: the headline
// maintenance hot path without instrumentation, the group-key encoder,
// both durability benchmarks, batched writes, the wire server,
// the out-of-core stores, and the workload zoo. Keep smokeGateNames in
// sync.
func smokeSubset() ([]benchResult, error) {
	var results []benchResult

	noObs, _, err := benchSmallDelta(false, false)
	if err != nil {
		return nil, err
	}
	results = append(results, toResult("ApplySmallDeltaLargeAux/no-obs", noObs))

	row := tuple.Tuple{
		types.Int(7), types.Str("brand42"), types.Float(19.5),
		types.Int(1997), types.Str("cat3"),
	}
	pos := []int{0, 1, 3}
	var sink string
	results = append(results, toResult("GroupKeyEncode/KeyAt", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = row.KeyAt(pos)
		}
	})))
	_ = sink

	walBenches, err := runWALBenches()
	if err != nil {
		return nil, err
	}
	results = append(results, walBenches...)

	// Batched writes: batch depths 2/4/8, so a regression in
	// coalescing or fsync batching fails the gate.
	for _, depth := range []int{2, 4, 8} {
		r, err := benchBatchPropagate(depth)
		if err != nil {
			return nil, err
		}
		results = append(results, toResult(fmt.Sprintf("BatchPropagate%d", depth), r))
	}

	// The wire serve path: 1k concurrent sessions of mixed reads and
	// group-committed applies, so a regression in framing, session
	// scheduling, or ApplyDelta's group commit fails the gate.
	serverQPS, err := runServerBench()
	if err != nil {
		return nil, err
	}
	results = append(results, serverQPS)

	// The out-of-core hot path: the skewed stream over paged auxiliary
	// stores next to its in-memory twin, so a buffer-pool regression
	// (eviction policy, index probes, page codec) fails the gate.
	outOfCore, _, err := runOutOfCoreBenches()
	if err != nil {
		return nil, err
	}
	results = append(results, outOfCore...)

	// The workload zoo: each maintenance regime plus online DDL under
	// concurrent load, so a regression confined to one regime — skew,
	// fan-out, wide groups, chain joins, the backfill — fails the gate.
	zoo, err := runZooBenches()
	if err != nil {
		return nil, err
	}
	results = append(results, zoo...)
	return results, nil
}
