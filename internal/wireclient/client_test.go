package wireclient_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
	"mindetail/internal/wireclient"
)

const setupSQL = `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR MUTABLE);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, price FLOAT MUTABLE);
INSERT INTO product VALUES (1, 'acme'), (2, 'bolt');
INSERT INTO sale VALUES (1, 1, 2.5), (2, 1, 4), (3, 2, 1.25);
CREATE MATERIALIZED VIEW by_brand AS
SELECT product.brand, SUM(price) AS total, COUNT(*) AS n
FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand;
CREATE MATERIALIZED VIEW by_product AS
SELECT product.id, COUNT(*) AS n
FROM sale, product WHERE sale.productid = product.id GROUP BY product.id;
`

// serve starts a wire server over a small warehouse and dials one client;
// it returns the server's address for more.
func serve(t *testing.T) (*warehouse.Warehouse, string, *wireclient.Client) {
	t.Helper()
	w := warehouse.New()
	if _, err := w.Exec(setupSQL); err != nil {
		t.Fatal(err)
	}
	s, err := wire.Listen(w, "127.0.0.1:0", wire.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := wireclient.Dial(s.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return w, s.Addr().String(), c
}

func unchanged(w *warehouse.Warehouse) int64 {
	return w.MetricsSnapshot().Counters["warehouse.query.unchanged"]
}

func query(t *testing.T, c *wireclient.Client, view string) *wire.ResultSet {
	t.Helper()
	rs, err := c.Query(view)
	if err != nil {
		t.Fatalf("query %s: %v", view, err)
	}
	return rs
}

// saleInsert is a one-row fact insert for product 1.
func saleInsert(id int64, price float64) maintain.Delta {
	return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{{types.Int(id), types.Int(1), types.Float(price)}}}
}

func TestQueryUnchangedReturnsCachedSet(t *testing.T) {
	w, _, c := serve(t)
	first := query(t, c, "by_brand")
	before := unchanged(w)
	if again := query(t, c, "by_brand"); again != first {
		t.Fatal("second Query of an unchanged view returned a new result set")
	}
	if got := unchanged(w) - before; got != 1 {
		t.Fatalf("warehouse.query.unchanged moved by %d, want 1", got)
	}
}

func TestQueryAfterApplyReturnsFreshRows(t *testing.T) {
	w, _, c := serve(t)
	first := query(t, c, "by_brand")
	if err := c.ApplyDelta(saleInsert(10, 3)); err != nil {
		t.Fatal(err)
	}
	before := unchanged(w)
	fresh := query(t, c, "by_brand")
	if fresh == first {
		t.Fatal("Query after an APPLY returned the cached result set")
	}
	if unchanged(w) != before {
		t.Fatal("a changed view was answered UNCHANGED")
	}
	// acme: 2.5 + 4 + 3 over three sales.
	for _, row := range fresh.Rows {
		if types.Identical(row[0], types.Str("acme")) {
			if !types.Identical(row[1], types.Float(9.5)) || !types.Identical(row[2], types.Int(3)) {
				t.Fatalf("acme row after apply = %v", row)
			}
			return
		}
	}
	t.Fatalf("no acme row in %v", fresh.Rows)
}

func TestDropAndRecreateNeverServesOldCache(t *testing.T) {
	_, _, c := serve(t)
	old := query(t, c, "by_product")
	if _, err := c.Exec(`DROP MATERIALIZED VIEW by_product`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("by_product"); err == nil {
		t.Fatal("Query of a dropped view succeeded")
	}
	if _, err := c.Exec(`CREATE MATERIALIZED VIEW by_product AS
		SELECT product.id, SUM(price) AS total
		FROM sale, product WHERE sale.productid = product.id GROUP BY product.id`); err != nil {
		t.Fatal(err)
	}
	got := query(t, c, "by_product")
	if got == old || len(got.Cols) != 2 || got.Cols[1] != "total" {
		t.Fatalf("re-created by_product served %v, cols %v", got.Rows, got.Cols)
	}
}

func TestQueryUnknownView(t *testing.T) {
	_, _, c := serve(t)
	if _, err := c.Query("nosuch"); err == nil {
		t.Fatal("Query of an unknown view succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after an error response: %v", err)
	}
}

// TestConcurrentQueries shares one client between readers while another
// connection keeps changing the views; run under -race it checks the cache
// is guarded by the client's lock.
func TestConcurrentQueries(t *testing.T) {
	_, addr, c := serve(t)
	writer, err := wireclient.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	const readers, reads, applies = 4, 50, 20
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < applies; i++ {
			if err := writer.ApplyDelta(saleInsert(int64(100+i), 1)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			view := []string{"by_brand", "by_product"}[r%2]
			for i := 0; i < reads; i++ {
				rs, err := c.Query(view)
				if err != nil {
					errs <- err
					return
				}
				if len(rs.Rows) != 2 {
					errs <- errors.New(view + ": wrong row count")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every apply is visible once the writer is done.
	rs := query(t, c, "by_product")
	for _, row := range rs.Rows {
		if types.Identical(row[0], types.Int(1)) && !types.Identical(row[1], types.Int(2+applies)) {
			t.Fatalf("product 1 row = %v, want %d sales", row, 2+applies)
		}
	}
}

// TestFramingErrorClosesClient: a response frame the client cannot read
// leaves the stream mid-frame, so the client must refuse later calls
// instead of parsing the rest of that frame as the next one.
func TestFramingErrorClosesClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		magic := make([]byte, len(wire.Magic))
		if _, err := io.ReadFull(conn, magic); err != nil {
			return
		}
		hello, _, err := wire.ReadFrame(conn, nil, 0)
		if err != nil {
			return
		}
		if _, err := wire.WriteFrame(conn, nil, wire.Frame{Kind: wire.KindOK, ID: hello.ID}); err != nil {
			return
		}
		if _, _, err := wire.ReadFrame(conn, nil, 0); err != nil {
			return
		}
		// A header announcing more than the client accepts, then bytes that
		// would parse as a frame header if the client read on.
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], wire.DefaultMaxFrame+1)
		_, _ = conn.Write(hdr[:])
		_, _ = conn.Write(wire.AppendFrame(nil, wire.Frame{Kind: wire.KindOK, ID: 2}))
		_, _ = io.Copy(io.Discard, conn)
	}()
	c, err := wireclient.Dial(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("oversized response frame accepted")
	}
	if err := c.Ping(); !errors.Is(err, wireclient.ErrClosed) {
		t.Fatalf("call after a framing error = %v, want ErrClosed", err)
	}
	c.Close()
	<-done
}
