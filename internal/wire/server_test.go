package wire_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
	"mindetail/internal/workload"
)

// newServerWarehouse builds a small retail warehouse carrying the paper
// view, sized so server tests measure protocol behavior rather than
// propagation cost. Rows are hand-rolled instead of workload.Load so every
// price is a multiple of 0.25: aggregation stays exact and Verify's
// recomputation matches incremental maintenance bit-for-bit.
func newServerWarehouse(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	w := warehouse.New()
	if _, err := w.Exec(workload.DDL()); err != nil {
		t.Fatal(err)
	}
	db := w.Source()
	for i := int64(1); i <= 4; i++ {
		year := int64(1997)
		if i == 4 {
			year = 1998
		}
		row := tuple.Tuple{types.Int(i), types.Int(i), types.Int((i-1)/2 + 1), types.Int(year)}
		if err := db.Insert("time", row); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 10; i++ {
		row := tuple.Tuple{types.Int(i), types.Str(fmt.Sprintf("brand%d", i%3)), types.Str("cat")}
		if err := db.Insert("product", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("store", tuple.Tuple{
		types.Int(1), types.Str("1 main st"), types.Str("aalborg"), types.Str("dk"), types.Str("mgr"),
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 24; i++ {
		row := tuple.Tuple{
			types.Int(i), types.Int(i%4 + 1), types.Int(i%10 + 1), types.Int(1),
			types.Float(float64(i%16) * 0.25),
		}
		if err := db.Insert("sale", row); err != nil {
			t.Fatal(err)
		}
	}
	sql := "CREATE MATERIALIZED VIEW product_sales AS " + workload.ProductSalesSQL(1997) + ";"
	if _, err := w.Exec(sql); err != nil {
		t.Fatal(err)
	}
	return w
}

// nextSaleID hands out fact keys far above anything workload.Load placed.
var nextSaleID atomic.Int64

func init() { nextSaleID.Store(5_000_000) }

// saleInsert builds a single-row sale insert referencing existing
// dimension keys. timeid always lands in the view's selected year, so
// every applied insert adds exactly one to the view's summed TotalCount —
// the accounting the tests below rely on. (ApplyDelta models externally
// produced deltas: it maintains the views without touching the minimized
// source tables, so view contents — not source rows — are what to check.)
func saleInsert() maintain.Delta {
	id := nextSaleID.Add(1)
	return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{{
		types.Int(id), types.Int(id%3 + 1), types.Int(id%10 + 1), types.Int(1),
		types.Float(float64(id%16) * 0.25),
	}}}
}

// viewCount sums TotalCount across the view's months — the number of
// selected-year sale rows the view has absorbed.
func viewCount(t *testing.T, w *warehouse.Warehouse) int64 {
	t.Helper()
	rel, err := w.Query("product_sales")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rel.Rows {
		total += r[2].AsInt()
	}
	return total
}

func startServer(t *testing.T, w *warehouse.Warehouse, cfg wire.Config) *wire.Server {
	t.Helper()
	s, err := wire.Listen(w, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerEndToEnd(t *testing.T) {
	w := newServerWarehouse(t)
	s := startServer(t, w, wire.Config{Secret: "hunter2"})
	addr := s.Addr().String()

	c, err := wireclient.Dial(addr, "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Query the view through the snapshot path and remember a baseline.
	rs, err := c.Query("product_sales")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(rs.Cols) != 4 || rs.Cols[0] != "time.month" {
		t.Fatalf("query cols = %v", rs.Cols)
	}
	baseRows := len(rs.Rows)
	if baseRows == 0 {
		t.Fatal("view is empty")
	}

	// Exec an all-SELECT script (shared-lock read path on the server).
	rs, err = c.Exec("SELECT month, TotalPrice, TotalCount FROM product_sales;")
	if err != nil {
		t.Fatalf("exec select: %v", err)
	}
	if len(rs.Rows) != baseRows {
		t.Fatalf("exec select rows = %d, want %d", len(rs.Rows), baseRows)
	}

	// Exec DML: a script ending in INSERT yields no relation.
	rs, err = c.Exec("INSERT INTO store VALUES (77, 'x', 'y', 'z', 'm');")
	if err != nil {
		t.Fatalf("exec insert: %v", err)
	}
	if rs != nil {
		t.Fatalf("insert returned a relation: %v", rs)
	}

	// Apply a delta through the group-committed APPLY path; the view absorbs it.
	base := viewCount(t, w)
	if err := c.ApplyDelta(saleInsert()); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := viewCount(t, w); got != base+1 {
		t.Fatalf("view count after apply = %d, want %d", got, base+1)
	}

	// Batch apply: failures are per-member, not all-or-nothing.
	errs, err := c.ApplyDeltaBatch([]maintain.Delta{
		saleInsert(),
		{Table: "nosuch", Inserts: []tuple.Tuple{{types.Int(1)}}},
	})
	if err != nil {
		t.Fatalf("apply batch: %v", err)
	}
	if errs[0] != nil {
		t.Fatalf("good batch member failed: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "nosuch") {
		t.Fatalf("bad batch member error = %v", errs[1])
	}
	if got := viewCount(t, w); got != base+2 {
		t.Fatalf("view count after batch = %d, want %d", got, base+2)
	}

	// Server-side errors come back as errors, not dropped connections.
	if _, err := c.Query("nosuch_view"); err == nil {
		t.Fatal("query of unknown view succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error response: %v", err)
	}

	// Metrics reflect the session's traffic.
	data, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"wire.requests", "wire.conns.accepted", "wire.request.ns"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics JSON missing %q", want)
		}
	}
}

func TestServerRejectsBadSecret(t *testing.T) {
	w := newServerWarehouse(t)
	s := startServer(t, w, wire.Config{Secret: "hunter2"})

	if _, err := wireclient.Dial(s.Addr().String(), "wrong"); err == nil ||
		!strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("bad secret: err = %v", err)
	}

	// The session must still be admitted with the right secret afterwards.
	c, err := wireclient.Dial(s.Addr().String(), "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	data, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "wire.auth.failures") {
		t.Error("metrics JSON missing wire.auth.failures")
	}
}

func TestServerAdmissionControl(t *testing.T) {
	w := newServerWarehouse(t)
	s := startServer(t, w, wire.Config{Secret: "s", MaxConns: 1})

	c1, err := wireclient.Dial(s.Addr().String(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Second connection is over capacity: the handshake fails with the
	// server's capacity error rather than a bare EOF.
	if _, err := wireclient.Dial(s.Addr().String(), "s"); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("over-capacity dial: err = %v", err)
	}

	// The admitted session is unaffected, and the slot frees on close.
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := wireclient.Dial(s.Addr().String(), "s")
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDisconnectNoLeak is the satellite regression: clients that
// vanish mid-request must not leak session goroutines or abandon
// in-flight group-committed applies. It tears connections while requests are in
// flight, closes the server, and requires the goroutine count to return
// to its pre-server baseline.
func TestServerDisconnectNoLeak(t *testing.T) {
	w := newServerWarehouse(t)

	runtime.GC()
	baseline := runtime.NumGoroutine()

	s := startServer(t, w, wire.Config{Secret: "s", MaxInFlight: 4})

	const nClients = 8
	var wg sync.WaitGroup
	clients := make([]*wireclient.Client, nClients)
	for i := range clients {
		c, err := wireclient.Dial(s.Addr().String(), "s")
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func(i int, c *wireclient.Client) {
			defer wg.Done()
			// Mix group-commit applies and snapshot reads until the
			// connection is torn out from under us.
			for n := 0; ; n++ {
				var err error
				if n%4 == 0 {
					err = c.ApplyDelta(saleInsert())
				} else {
					_, err = c.Query("product_sales")
				}
				if err != nil {
					return
				}
			}
		}(i, c)
	}

	// Let traffic build, then tear every connection abruptly mid-request.
	time.Sleep(20 * time.Millisecond)
	for _, c := range clients {
		c.Close()
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	// Every session, handler, writer, and accept-loop goroutine
	// must be gone. Poll: the runtime needs a moment to retire them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCloseDrainsInFlight verifies shutdown while sessions are mid
// request: Close severs connections, waits for handlers, and returns
// without stranding anyone (the 30s watchdog catches a drain deadlock).
func TestServerCloseDrainsInFlight(t *testing.T) {
	w := newServerWarehouse(t)
	base := viewCount(t, w)
	s := startServer(t, w, wire.Config{Secret: "s"})

	const nClients = 6
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		c, err := wireclient.Dial(s.Addr().String(), "s")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *wireclient.Client) {
			defer wg.Done()
			defer c.Close()
			for {
				if err := c.ApplyDelta(saleInsert()); err != nil {
					return
				}
			}
		}(c)
	}

	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server Close did not drain within 30s")
	}
	wg.Wait()

	// Every delta the warehouse committed made it into the view — acked or
	// not, none were half-applied or dropped mid-drain.
	committed := w.MetricsSnapshot().Counters["warehouse.batch.deltas"]
	if got := viewCount(t, w); got != base+committed {
		t.Fatalf("view count = %d, want base %d + committed %d", got, base, committed)
	}
}

// TestServerConcurrentSessions drives mixed traffic over many sessions and
// cross-checks totals, exercising the per-session in-flight cap and the
// shared group commit under contention.
func TestServerConcurrentSessions(t *testing.T) {
	w := newServerWarehouse(t)
	base := viewCount(t, w)
	s := startServer(t, w, wire.Config{Secret: "s", MaxInFlight: 2})

	const nClients, nOps = 6, 20
	var applied atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wireclient.Dial(s.Addr().String(), "s")
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for n := 0; n < nOps; n++ {
				if n%2 == 0 {
					if err := c.ApplyDelta(saleInsert()); err != nil {
						errCh <- fmt.Errorf("apply: %w", err)
						return
					}
					applied.Add(1)
				} else if _, err := c.Query("product_sales"); err != nil {
					errCh <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := w.MetricsSnapshot()
	if got := snap.Counters["warehouse.batch.deltas"]; got != applied.Load() {
		t.Fatalf("batch.deltas = %d, want %d", got, applied.Load())
	}
	if got := viewCount(t, w); got != base+applied.Load() {
		t.Fatalf("view count = %d, want base %d + applied %d", got, base, applied.Load())
	}
}

// TestServerClosedListener: Serve on a pre-closed listener must not hang
// Close.
func TestServerClosedListener(t *testing.T) {
	w := newServerWarehouse(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	s := wire.Serve(w, ln, wire.Config{Secret: "s"})
	if err := s.Close(); err == nil {
		t.Log("close after dead listener returned nil (listener error already consumed)")
	}
}

// TestOversizedResultAnsweredWithError: a result whose frame would exceed
// the client's limit comes back as an error response, so the connection
// stays at a frame boundary and keeps working.
func TestOversizedResultAnsweredWithError(t *testing.T) {
	w := warehouse.New()
	if _, err := w.Exec(`CREATE TABLE blob (id INTEGER PRIMARY KEY, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	chunk := strings.Repeat("x", 1<<20)
	for i := int64(0); i < 17; i++ {
		if err := w.Source().Insert("blob", tuple.Tuple{types.Int(i), types.Str(chunk)}); err != nil {
			t.Fatal(err)
		}
	}
	s := startServer(t, w, wire.Config{})
	c, err := wireclient.Dial(s.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT blob.id, blob.s FROM blob`); err == nil ||
		!strings.Contains(err.Error(), "result exceeds frame limit") {
		t.Fatalf("oversized result: err = %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping on the same client after an oversized result: %v", err)
	}
	fresh, err := wireclient.Dial(s.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Ping(); err != nil {
		t.Fatalf("ping on a fresh client: %v", err)
	}
}

// TestServerDurableConcurrentApplies drives APPLYs from many sessions into
// a warehouse logged with SyncCommit, so concurrent applies group-commit to
// disk. Reopening the directory must recover every view equal to the live
// one.
func TestServerDurableConcurrentApplies(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Sync: wal.SyncCommit}
	d, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	w := d.Warehouse()
	if _, err := w.Exec(`
CREATE TABLE product (id INTEGER PRIMARY KEY, brand STRING MUTABLE, category STRING);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, qty INTEGER, price FLOAT MUTABLE);
INSERT INTO product VALUES (1, 'acme', 'tools'), (2, 'zenith', 'toys'), (3, 'acme', 'toys');
CREATE MATERIALIZED VIEW by_brand AS
  SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY brand;
CREATE MATERIALIZED VIEW by_category AS
  SELECT category, SUM(qty) AS q, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY category;
`); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, w, wire.Config{})

	const nClients, perClient = 8, 12
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wireclient.Dial(s.Addr().String(), "")
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for n := 0; n < perClient; n++ {
				id := int64(100 + i*perClient + n)
				if err := c.ApplyDelta(maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{{
					types.Int(id), types.Int(id%3 + 1), types.Int(id % 5), types.Float(float64(id%16) * 0.25),
				}}}); err != nil {
					errCh <- fmt.Errorf("apply: %w", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d applies in %d group commits", nClients*perClient,
		w.MetricsSnapshot().Histograms["wal.groupcommit.batch"].Count)
	views := w.ViewNames()
	live := make([]string, len(views))
	for i, v := range views {
		rel, err := w.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = rel.Sorted().Format()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = wal.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		rel, err := d.Warehouse().Query(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.Sorted().Format(); got != live[i] {
			t.Fatalf("recovered %s diverged\ngot:\n%s\nwant:\n%s", v, got, live[i])
		}
	}
}
