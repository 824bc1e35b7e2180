package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mindetail/internal/warehouse"
)

// drive runs the shell over scripted input and returns the output.
func drive(t *testing.T, input string) string {
	t.Helper()
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	sh.run(strings.NewReader(input))
	return out.String()
}

func TestShellEndToEnd(t *testing.T) {
	out := drive(t, `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR);
CREATE TABLE sale (id INTEGER PRIMARY KEY,
  productid INTEGER REFERENCES product, price FLOAT);
INSERT INTO product VALUES (1, 'acme');
INSERT INTO sale VALUES (1, 1, 10), (2, 1, 5);
CREATE MATERIALIZED VIEW totals AS
SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.brand;
SELECT brand, total, cnt FROM totals;
\views
\plan totals
\graph totals
\report
\verify
INSERT INTO sale VALUES (3, 1, 2.5);
SELECT brand, total, cnt FROM totals;
\metrics
\q
`)
	for _, want := range []string{
		"| 15",            // first query total
		"| 17.5",          // after the insert
		"totals",          // \views
		"sale_dtl",        // \plan
		"digraph",         // \graph
		"all views match", // \verify
		"aux bytes",       // \report header fragment
		// \metrics:
		"maintain.recompute.avoided",
		"maintain.recompute.rows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellMultilineStatement(t *testing.T) {
	out := drive(t, `CREATE TABLE t (id INTEGER
PRIMARY KEY,
x INTEGER);
INSERT INTO t VALUES (1, 2);
SELECT t.x, COUNT(*) AS c FROM t GROUP BY t.x;
`)
	if !strings.Contains(out, "(1 rows)") {
		t.Errorf("multiline statement failed:\n%s", out)
	}
}

func TestShellErrorsAndUnknowns(t *testing.T) {
	out := drive(t, `
SELECT nope FROM nowhere;
\plan nosuch
\plan
\graph nosuch
\wibble
\views
\verify
\import onearg
\export onearg
\detach
`)
	for _, want := range []string{
		"error:",              // bad SQL
		"unknown view nosuch", // \plan nosuch
		"usage: \\plan VIEW",  // \plan with no arg
		"unknown command \\wibble",
		"(no materialized views)",
		"usage: \\import",
		"usage: \\export",
		"sources detached",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellQuitAliases(t *testing.T) {
	if out := drive(t, "\\quit\nSELECT 1;\n"); strings.Contains(out, "error") {
		t.Errorf("statements after quit executed:\n%s", out)
	}
}

func TestShellHelp(t *testing.T) {
	out := drive(t, "\\help\n\\q\n")
	if !strings.Contains(out, "\\plan VIEW") || !strings.Contains(out, "\\detach") {
		t.Errorf("help output:\n%s", out)
	}
}

func TestShellImportExport(t *testing.T) {
	dir := t.TempDir()
	csvIn := filepath.Join(dir, "products.csv")
	if err := os.WriteFile(csvIn, []byte("1,acme\n2,bolt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	csvOut := filepath.Join(dir, "out.csv")
	out := drive(t, `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR);
`+"\\import product "+csvIn+`
CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, price FLOAT);
INSERT INTO sale VALUES (1, 1, 4), (2, 2, 6);
CREATE MATERIALIZED VIEW totals AS
SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.brand;
`+"\\export totals "+csvOut+`
\q
`)
	if !strings.Contains(out, "imported 2 rows") {
		t.Fatalf("import failed:\n%s", out)
	}
	if !strings.Contains(out, "exported totals") {
		t.Fatalf("export failed:\n%s", out)
	}
	data, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "acme,4") || !strings.Contains(string(data), "bolt,6") {
		t.Errorf("exported CSV:\n%s", data)
	}
	// Import errors surface.
	out = drive(t, "\\import product /nonexistent/file.csv\n\\q\n")
	if !strings.Contains(out, "error:") {
		t.Errorf("missing-file import should error:\n%s", out)
	}
}

func TestShellSaveLoad(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.snap")
	out := drive(t, `
CREATE TABLE sale (id INTEGER PRIMARY KEY, price FLOAT);
INSERT INTO sale VALUES (1, 10), (2, 5);
CREATE MATERIALIZED VIEW totals AS
SELECT SUM(price) AS total, COUNT(*) AS cnt FROM sale;
`+"\\save "+snap+`
\q
`)
	if !strings.Contains(out, "saved to") {
		t.Fatalf("save failed:\n%s", out)
	}
	out = drive(t, "\\load "+snap+`
SELECT total, cnt FROM totals;
\q
`)
	if !strings.Contains(out, "restored from") || !strings.Contains(out, "| 2") {
		t.Fatalf("load failed:\n%s", out)
	}
	out = drive(t, "\\load /nonexistent.snap\n\\save\n\\load\n\\q\n")
	for _, want := range []string{"error:", "usage: \\save", "usage: \\load"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestShellOpenCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dw")
	out := drive(t, "\\open "+dir+`
CREATE TABLE sale (id INTEGER PRIMARY KEY, price FLOAT);
INSERT INTO sale VALUES (1, 10), (2, 5);
CREATE MATERIALIZED VIEW totals AS
SELECT SUM(price) AS total, COUNT(*) AS cnt FROM sale;
\checkpoint
INSERT INTO sale VALUES (3, 2.5);
\q
`)
	if !strings.Contains(out, "opened durable warehouse") {
		t.Fatalf("\\open failed:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint at LSN") {
		t.Fatalf("\\checkpoint failed:\n%s", out)
	}

	// A second session over the same directory recovers everything —
	// including the post-checkpoint insert that only lives in the log.
	out = drive(t, "\\open "+dir+`
SELECT total, cnt FROM totals;
\q
`)
	if !strings.Contains(out, "17.5") || !strings.Contains(out, "| 3") {
		t.Fatalf("recovered session lost state:\n%s", out)
	}

	// \checkpoint without \open reports a usable error.
	out = drive(t, "\\checkpoint\n\\open\n\\q\n")
	if !strings.Contains(out, "no durable directory open") || !strings.Contains(out, "usage: \\open DIR") {
		t.Errorf("error handling:\n%s", out)
	}
}

func TestShellStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pages")
	out := drive(t, `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR);
CREATE TABLE sale (id INTEGER PRIMARY KEY,
  productid INTEGER REFERENCES product, price FLOAT);
INSERT INTO product VALUES (1, 'acme'), (2, 'bolt');
INSERT INTO sale VALUES (1, 1, 10), (2, 2, 5);
CREATE MATERIALIZED VIEW totals AS
SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.brand;
\store
`+"\\store "+dir+` 8
\store
INSERT INTO sale VALUES (3, 1, 2.5);
SELECT brand, total, cnt FROM totals;
\verify
\store x y z
\store `+dir+` nope
\q
`)
	for _, want := range []string{
		"totals: in memory", // before the switch
		"auxiliary views out of core under " + dir,
		"totals: out of core", // after the switch
		"resident",            // occupancy line
		"hit ratio",           // pool counters
		"12.5",                // acme total after the insert on the paged backend
		"all views match",     // \verify over paged stores
		"usage: \\store",      // too many args
		"POOLPAGES must be",   // bad pool size
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
		t.Fatalf("no page files under %s: %v", dir, err)
	}
}

// \advise mines the session's op log: repeated ad-hoc queries become ranked
// candidate views with measured footprints and a ready-to-run CREATE
// statement, and a zero budget (unlimited) picks the winners. All inserts
// happen before the view exists, so no delta events are logged and the
// candidate's benefit is deterministically positive.
func TestShellAdvise(t *testing.T) {
	out := drive(t, `
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR);
CREATE TABLE sale (id INTEGER PRIMARY KEY,
  productid INTEGER REFERENCES product, price FLOAT);
INSERT INTO product VALUES (1, 'acme'), (2, 'bolt');
INSERT INTO sale VALUES (1, 1, 10), (2, 2, 5);
CREATE MATERIALIZED VIEW totals AS
SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.brand;
\advise
SELECT product.brand, SUM(price) AS t FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand;
SELECT product.brand, SUM(price) AS t FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand;
SELECT brand, total, cnt FROM totals;
\advise
\advise 1
\advise nope
\advise 1 2 3
\q
`)
	for _, want := range []string{
		"(no ad-hoc query clusters to advise on — run some queries first)",
		"workload: 1 view-answered queries, 2 ad-hoc queries, 0 deltas",
		"advised_1: 2 queries, 0 deltas",
		"CREATE MATERIALIZED VIEW advised_1 AS",
		"over budget",         // \advise 1 cannot fit the candidate
		"BUDGETBYTES must be", // \advise nope
		"usage: \\advise",     // too many args
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
