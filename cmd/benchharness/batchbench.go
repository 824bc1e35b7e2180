package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/wal"
)

// The batch-propagation benchmark measures the write pipeline end to end
// at batch depth N: N adjacent deltas coalesce into one propagation and
// their commit records group-commit under a single fsync (SyncCommit).
// Depth 1 is the serial pipeline: one delta per propagation, one fsync per
// commit. The per-delta fixed costs — the fsync above all, then the
// per-propagation expand/join setup — amortize across the batch, which is
// where the improvement comes from. The deltas are the paper's small-delta
// regime.
const (
	batchBenchDeltas  = 64 // deltas applied per benchmark op
	batchBenchRowsPer = 1  // rows per delta (the paper's small-delta regime)
)

// batchBenchSetup opens a durable warehouse (SyncCommit) with the two-view
// schema of the WAL benchmarks.
func batchBenchSetup(dir string) (*wal.Durable, error) {
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncCommit})
	if err != nil {
		return nil, err
	}
	w := d.Warehouse()
	if _, err := w.Exec(`
CREATE TABLE product (id INTEGER PRIMARY KEY, brand STRING, category STRING);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, qty INTEGER, price FLOAT);
CREATE MATERIALIZED VIEW by_brand AS
  SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY brand;
CREATE MATERIALIZED VIEW by_category AS
  SELECT category, SUM(qty) AS q, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY category;
INSERT INTO product VALUES (1, 'acme', 'tools'), (2, 'zenith', 'toys'), (3, 'nadir', 'tools');
`); err != nil {
		d.Close()
		return nil, err
	}
	w.SetObs(false)
	return d, nil
}

// batchBenchDelta builds one insert-only sale delta of batchBenchRowsPer
// fresh rows starting at id.
func batchBenchDelta(id int64) maintain.Delta {
	d := maintain.Delta{Table: "sale"}
	for i := int64(0); i < batchBenchRowsPer; i++ {
		k := id + i
		d.Inserts = append(d.Inserts, tuple.Tuple{
			types.Int(k), types.Int(k%3 + 1), types.Int(k % 7), types.Float(float64(k%20) * 0.25),
		})
	}
	return d
}

// benchBatchPropagate measures one op = batchBenchDeltas deltas through
// the pipeline at batch depth depth: batches of depth adjacent deltas per
// ApplyDeltaBatch, so group commit and coalescing engage at exactly that
// depth. depth == 1 degenerates to the serial per-delta path with one
// fsync each.
func benchBatchPropagate(depth int) (testing.BenchmarkResult, error) {
	dir, err := os.MkdirTemp("", "batchbench")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer os.RemoveAll(dir)
	d, err := batchBenchSetup(dir)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer d.Close()
	w := d.Warehouse()

	var nextID int64 = 1000
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for applied := 0; applied < batchBenchDeltas; applied += depth {
				batch := make([]maintain.Delta, depth)
				for k := range batch {
					batch[k] = batchBenchDelta(nextID)
					nextID += batchBenchRowsPer
				}
				for j, err := range w.ApplyDeltaBatch(batch) {
					if err != nil {
						benchErr = fmt.Errorf("delta %d: %w", j, err)
						b.Fatal(benchErr)
					}
				}
			}
		}
	})
	return r, benchErr
}

// benchWALAppendSyncCommit measures the single-stream durable commit path:
// one intent + one commit with its own fsync per op: the per-delta fsync
// cost the batch pipeline amortizes.
func benchWALAppendSyncCommit() (testing.BenchmarkResult, error) {
	dir, err := os.MkdirTemp("", "walsynccommit")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.OpenLog(filepath.Join(dir, "wal.log"), wal.SyncCommit)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer l.Close()
	d := maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{
		{types.Int(1), types.Int(12), types.Int(307), types.Int(4), types.Float(19.75)},
	}}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lsn, err := l.BeginDelta(d, true)
			if err == nil {
				err = l.Commit(lsn)
			}
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	return r, benchErr
}

// runBatchBenches measures the batch-propagation depth curve and the
// single-stream commit cost for the JSON report.
func runBatchBenches() ([]benchResult, error) {
	var results []benchResult
	for _, depth := range []int{1, 2, 4, 8} {
		r, err := benchBatchPropagate(depth)
		if err != nil {
			return nil, err
		}
		results = append(results, toResult(fmt.Sprintf("BatchPropagate%d", depth), r))
	}
	single, err := benchWALAppendSyncCommit()
	if err != nil {
		return nil, err
	}
	results = append(results, toResult("WALAppendSyncCommit", single))
	return results, nil
}
