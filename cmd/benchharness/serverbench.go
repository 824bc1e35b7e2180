package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
	"mindetail/internal/workload"
)

// serverBenchParams sizes the wire-server load scenario: a modest
// warehouse so the measurement is dominated by the serve path (framing,
// session scheduling, snapshot reads, group-commit applies) rather than
// propagation cost.
var serverBenchParams = workload.RetailParams{
	Days: 60, Stores: 1, Products: 200, ProductsSoldPerDay: 5,
	TransactionsPerProduct: 1, Brands: 20, SelectYear: 1997, Seed: 1,
}

// runServerBench measures sustained mixed-traffic throughput over the wire
// protocol: nConns concurrent authenticated sessions each issuing
// opsPerConn requests, ~90% snapshot view reads and ~10% single-delta
// applies, which Warehouse.ApplyDelta group-commits across sessions. The
// result's NsPerOp is wall-clock per completed request across all
// sessions, so QPS = 1e9 / NsPerOp.
func runServerBench() (benchResult, error) {
	const (
		nConns     = 1000
		opsPerConn = 20
		applyEvery = 10 // every 10th request is an apply
		dialers    = 64
	)

	w := warehouse.New()
	if _, err := w.Exec(workload.DDL()); err != nil {
		return benchResult{}, err
	}
	if err := workload.Load(w.Source(), serverBenchParams); err != nil {
		return benchResult{}, err
	}
	if _, err := w.Exec("CREATE MATERIALIZED VIEW product_sales AS " + workload.ProductSalesSQL(1997) + ";"); err != nil {
		return benchResult{}, err
	}

	s, err := wire.Listen(w, "127.0.0.1:0", wire.Config{Secret: "bench", MaxConns: nConns + 8})
	if err != nil {
		return benchResult{}, err
	}
	defer s.Close()
	addr := s.Addr().String()

	// Connect the whole fleet up front (bounded dial concurrency) so the
	// timed window measures steady-state serving, not connection setup.
	clients := make([]*wireclient.Client, nConns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	var dialWG sync.WaitGroup
	dialSem := make(chan struct{}, dialers)
	dialErrs := make(chan error, nConns)
	for i := range clients {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			dialSem <- struct{}{}
			defer func() { <-dialSem }()
			c, err := wireclient.Dial(addr, "bench")
			if err != nil {
				dialErrs <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			clients[i] = c
		}(i)
	}
	dialWG.Wait()
	close(dialErrs)
	if err := <-dialErrs; err != nil {
		return benchResult{}, err
	}

	// Fresh fact keys landing inside the selected year so every apply does
	// real view maintenance. Prices are multiples of 0.25: exact sums.
	var nextID atomic.Int64
	nextID.Store(10_000_000)
	selected := int64(serverBenchParams.Days / 2)
	mkDelta := func() maintain.Delta {
		id := nextID.Add(1)
		return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{{
			types.Int(id), types.Int(id%selected + 1),
			types.Int(id%int64(serverBenchParams.Products) + 1), types.Int(1),
			types.Float(float64(id%16) * 0.25),
		}}}
	}

	var runWG sync.WaitGroup
	runErrs := make(chan error, nConns)
	start := time.Now()
	for _, c := range clients {
		runWG.Add(1)
		go func(c *wireclient.Client) {
			defer runWG.Done()
			for n := 0; n < opsPerConn; n++ {
				var err error
				if n%applyEvery == 0 {
					err = c.ApplyDelta(mkDelta())
				} else {
					_, err = c.Query("product_sales")
				}
				if err != nil {
					runErrs <- err
					return
				}
			}
		}(c)
	}
	runWG.Wait()
	elapsed := time.Since(start)
	close(runErrs)
	if err := <-runErrs; err != nil {
		return benchResult{}, err
	}

	const ops = nConns * opsPerConn
	fmt.Printf("ServerQPS: %d conns, %d requests in %s (%.0f req/s)\n",
		nConns, ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds())
	return benchResult{
		Name:       "ServerQPS",
		Iterations: ops,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(ops),
	}, nil
}
