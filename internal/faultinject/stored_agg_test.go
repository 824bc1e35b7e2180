package faultinject_test

// Crash and determinism coverage for views with stored (non-CSMAS)
// aggregates, whose maintenance splits every delta with deletions between
// adjusting and recomputing groups (maintain's net-effect avoidance).

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
)

const storedAggSetup = `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand STRING MUTABLE, category STRING);
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, qty INTEGER, price FLOAT MUTABLE);
INSERT INTO product VALUES (1, 'acme', 'tools'), (2, 'zenith', 'tools'), (3, 'nadir', 'toys');
INSERT INTO sale VALUES (10, 1, 1, 9.75), (11, 1, 2, 4.25), (12, 2, 2, 8.5), (13, 2, 1, 6.5), (14, 3, 3, 2.75), (15, 1, 1, 5.5);
CREATE MATERIALIZED VIEW range_by_category AS
  SELECT category, MIN(price) AS lo, MAX(price) AS hi, COUNT(DISTINCT brand) AS brands,
         SUM(price) AS total, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY category;
CREATE MATERIALIZED VIEW range_by_product AS
  SELECT product.id, MIN(price) AS lo, MAX(price) AS hi, COUNT(*) AS cnt
  FROM sale, product WHERE sale.productid = product.id GROUP BY product.id;
`

// storedAggSteps is update/delete-heavy. In order: an update between the
// extrema (adjust only), to a new maximum (adjust + raise), of a group's
// only fact (through count zero), away from the minimum (recompute); a
// two-row update that adjusts one product and recomputes the other; a
// delete missing the extrema, a delete hitting one, and a rename.
var storedAggSteps = []string{
	`UPDATE sale SET price = 6.25 WHERE id = 13;`,
	`UPDATE sale SET price = 12.5 WHERE id = 13;`,
	`UPDATE sale SET price = 3.25 WHERE id = 14;`,
	`UPDATE sale SET price = 7.75 WHERE id = 11;`,
	`UPDATE sale SET price = 9.25 WHERE qty = 2;`,
	`DELETE FROM sale WHERE id = 10;`,
	`DELETE FROM sale WHERE id = 15;`,
	`UPDATE product SET brand = 'acme' WHERE id = 2;`,
}

// TestFaultInjectionCrashRecoveryStoredAggregates replays the stored-
// aggregate corpus through the crash-point sweep: every injection point on
// the adjust-instead-of-recompute branch must roll back, and recover from
// the on-disk bytes, byte-identically.
func TestFaultInjectionCrashRecoveryStoredAggregates(t *testing.T) {
	sweepCrashRecovery(t, storedAggSetup, storedAggSteps)
}

// sumDistinctScript loads 40 non-dyadic prices into one group before the
// view exists, so the view's hash indexes are built by a map scan (random
// order from run to run), then forces the group through recomputation.
func sumDistinctScript() (load, churn string) {
	var b strings.Builder
	b.WriteString("CREATE TABLE sale (id INTEGER PRIMARY KEY, g INTEGER, price FLOAT MUTABLE);\n")
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, "INSERT INTO sale VALUES (%d, 1, %.9f);\n", i, 2.05+float64(i)*0.000000553)
	}
	b.WriteString(`CREATE MATERIALIZED VIEW distinct_prices AS
		SELECT g, SUM(DISTINCT price) AS s, AVG(DISTINCT price) AS a, COUNT(*) AS n FROM sale GROUP BY g;`)
	return b.String(), `DELETE FROM sale WHERE id = 7;
		INSERT INTO sale VALUES (41, 1, 2.050000001);
		UPDATE sale SET price = 2.05000077 WHERE id = 12;`
}

// TestSumDistinctOneBitPattern builds the same warehouse 40 times: SUM and
// AVG over a DISTINCT set must not depend on the order the set was met in.
func TestSumDistinctOneBitPattern(t *testing.T) {
	load, churn := sumDistinctScript()
	var first []byte
	for run := 0; run < 40; run++ {
		w := warehouse.New()
		if _, err := w.Exec(load + churn); err != nil {
			t.Fatal(err)
		}
		got := snap(t, w)
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d produced a different bit pattern:\n%s\n---\n%s", run, got, first)
		}
	}
}

// TestRecoverSumDistinctBitIdentical: a warehouse recovered from snapshot +
// log replay rebuilds its hash indexes in another order than the one that
// never crashed; the DISTINCT sums must agree to the bit regardless.
func TestRecoverSumDistinctBitIdentical(t *testing.T) {
	load, churn := sumDistinctScript()
	dir := t.TempDir()
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := d.Warehouse()
	if _, err := w.Exec(load); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(churn); err != nil {
		t.Fatal(err)
	}
	want := snap(t, w)
	for i := 0; i < 5; i++ {
		if got := recoverBytes(t, crashImage(t, dir)); !bytes.Equal(got, want) {
			t.Fatalf("recovery %d diverged from the never-crashed warehouse:\n got:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
