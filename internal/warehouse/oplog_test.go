package warehouse

import (
	"strings"
	"testing"
)

// The op log must record view-answered queries, ad-hoc queries with their
// clustering signature, and committed deltas.
func TestOpLogRecordsQueriesAndDeltas(t *testing.T) {
	w := newRetail(t)
	var events []OpEvent
	w.SetOpLog(func(ev OpEvent) { events = append(events, ev) })

	if _, err := w.Exec("SELECT month, TotalPrice FROM product_sales"); err != nil {
		t.Fatal(err)
	}
	adhoc := "SELECT time.year, SUM(price) AS total FROM sale, time WHERE sale.timeid = time.id GROUP BY time.year"
	if _, err := w.Exec(adhoc); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO sale VALUES (81, 1, 100, 7, 4)"); err != nil {
		t.Fatal(err)
	}
	// A failing query must not be logged.
	if _, err := w.Exec("SELECT month FROM nosuch"); err == nil {
		t.Fatal("query over unknown table should fail")
	}

	if len(events) != 3 {
		t.Fatalf("want 3 events, got %d: %+v", len(events), events)
	}
	if ev := events[0]; ev.Kind != "query-view" || ev.View != "product_sales" {
		t.Fatalf("view query event wrong: %+v", ev)
	}
	if ev := events[1]; ev.Kind != "query-adhoc" ||
		!strings.Contains(ev.SQL, "GROUP BY time.year") ||
		len(ev.Tables) != 2 || len(ev.GroupBy) != 1 {
		t.Fatalf("ad-hoc query event wrong: %+v", ev)
	}
	if ev := events[2]; ev.Kind != "delta" || ev.Table != "sale" || ev.Rows != 1 {
		t.Fatalf("delta event wrong: %+v", ev)
	}
	for _, ev := range events {
		if ev.Ns <= 0 {
			t.Fatalf("event missing latency: %+v", ev)
		}
	}
}
