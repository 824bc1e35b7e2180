package costmodel_test

import (
	"strings"
	"testing"

	"mindetail/internal/costmodel"
	"mindetail/internal/ra"
	"mindetail/internal/warehouse"
)

const retailSetup = `
CREATE TABLE time (id INTEGER PRIMARY KEY, day INTEGER, month INTEGER, year INTEGER);
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR MUTABLE, category VARCHAR);
CREATE TABLE store (id INTEGER PRIMARY KEY, city VARCHAR, manager VARCHAR MUTABLE);
CREATE TABLE sale (id INTEGER PRIMARY KEY,
	timeid INTEGER REFERENCES time,
	productid INTEGER REFERENCES product,
	storeid INTEGER REFERENCES store,
	price FLOAT MUTABLE);
INSERT INTO time VALUES (1, 5, 1, 1997), (2, 6, 1, 1997), (3, 7, 2, 1997);
INSERT INTO product VALUES (100, 'acme', 'tools'), (101, 'bolt', 'tools');
INSERT INTO store VALUES (7, 'aalborg', 'kim');
INSERT INTO sale VALUES (1, 1, 100, 7, 10), (2, 1, 100, 7, 10), (3, 2, 101, 7, 5), (4, 3, 101, 7, 7);
`

func newRetailWarehouse(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	w := warehouse.New()
	if _, err := w.Exec(retailSetup); err != nil {
		t.Fatal(err)
	}
	return w
}

// The advisor must turn a synthetic workload log into ranked, budgeted
// picks with measured footprints.
func TestAdvisorRankingAndBudget(t *testing.T) {
	w := newRetailWarehouse(t)
	adv := new(costmodel.Advisor)
	adhocSQL := "SELECT time.month, SUM(price) AS total FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month"
	for i := 0; i < 5; i++ {
		adv.Record(costmodel.Event{Kind: costmodel.EventQuery, SQL: adhocSQL,
			Tables: []string{"sale", "time"}, GroupBy: []string{"time.month"}, Ns: 1_000_000})
	}
	adv.Record(costmodel.Event{Kind: costmodel.EventQuery, View: "existing", Ns: 500})
	adv.Record(costmodel.Event{Kind: costmodel.EventDelta, Table: "sale", Rows: 1, Ns: 100_000})
	adv.Record(costmodel.Event{Kind: costmodel.EventDelta, Table: "product", Rows: 1, Ns: 100_000})

	src := func(table string) *ra.Relation {
		return ra.FromTable(w.Source().Table(table), table)
	}
	advice, err := adv.Advise(w.Catalog(), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if advice.AdhocQueries != 5 || advice.ViewQueries != 1 || advice.DeltaEvents != 2 {
		t.Fatalf("event accounting wrong: %+v", advice)
	}
	if len(advice.Candidates) != 1 {
		t.Fatalf("want 1 candidate cluster, got %d", len(advice.Candidates))
	}
	c := advice.Candidates[0]
	if !c.Picked || c.Reason != "" {
		t.Fatalf("candidate should be picked under an unlimited budget: %+v", c)
	}
	if c.Queries != 5 || c.QueryNs != 5_000_000 {
		t.Fatalf("query weight wrong: %+v", c)
	}
	if c.Deltas != 1 || c.DeltaNs != 100_000 {
		t.Fatalf("only the sale delta touches the candidate: %+v", c)
	}
	if c.BenefitNs != 4_900_000 {
		t.Fatalf("benefit = %d, want 4900000", c.BenefitNs)
	}
	if c.EstBytes <= 0 {
		t.Fatalf("materialized footprint should be measured, got %d", c.EstBytes)
	}
	if advice.PickedBytes != c.EstBytes {
		t.Fatalf("PickedBytes = %d, want %d", advice.PickedBytes, c.EstBytes)
	}

	// A budget below the footprint excludes the candidate.
	tight, err := adv.Advise(w.Catalog(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := tight.Candidates[0]; c.Picked || !strings.Contains(c.Reason, "over budget") {
		t.Fatalf("1-byte budget should exclude the candidate: %+v", c)
	}

	// Detached sources: footprints cannot be measured, nothing is picked.
	blind, err := adv.Advise(w.Catalog(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := blind.Candidates[0]; c.Picked || !strings.Contains(c.Reason, "size unknown") {
		t.Fatalf("nil src should exclude with a clear reason: %+v", c)
	}
}

func TestAdvisorRejectsLosingAndBrokenCandidates(t *testing.T) {
	w := newRetailWarehouse(t)
	src := func(table string) *ra.Relation {
		return ra.FromTable(w.Source().Table(table), table)
	}
	adv := new(costmodel.Advisor)
	// Maintenance-dominated cluster: one cheap query vs heavy delta traffic.
	adv.Record(costmodel.Event{Kind: costmodel.EventQuery,
		SQL:    "SELECT product.brand, COUNT(*) AS cnt FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand",
		Tables: []string{"sale", "product"}, GroupBy: []string{"product.brand"}, Ns: 1000})
	adv.Record(costmodel.Event{Kind: costmodel.EventDelta, Table: "sale", Rows: 64, Ns: 5_000_000})
	// Unparseable representative.
	adv.Record(costmodel.Event{Kind: costmodel.EventQuery, SQL: "SELECT FROM WHERE",
		Tables: []string{"mystery"}, Ns: 1_000_000})

	advice, err := adv.Advise(w.Catalog(), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Candidates) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(advice.Candidates))
	}
	for _, c := range advice.Candidates {
		if c.Picked {
			t.Fatalf("no candidate should be picked: %+v", c)
		}
		switch {
		case strings.Contains(c.SQL, "brand"):
			if !strings.Contains(c.Reason, "maintenance cost exceeds") {
				t.Fatalf("losing candidate reason: %+v", c)
			}
		default:
			if !strings.Contains(c.Reason, "unparseable") {
				t.Fatalf("broken candidate reason: %+v", c)
			}
		}
	}
}
