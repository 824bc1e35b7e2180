package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const testBenchmark = `{
  "workloads": [{"name": "feed-append"}, {"name": "dash-read"}],
  "end_to_end": [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "alloc_kb_per_op", "better": "lower"},
    {"name": "aux_bytes_per_detail_byte", "better": "lower"}
  ]
}`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func rec(side string, pair int, ops, alloc, ratio float64) record {
	return record{Workload: "feed-append", Side: side, Pair: pair, Seed: pair, Result: result{
		Correct: true, Attempted: 100,
		Metrics: map[string]metric{
			"ops_per_s":                 {ops, "1/s"},
			"alloc_kb_per_op":           {alloc, "KB"},
			"aux_bytes_per_detail_byte": {ratio, "ratio"},
		},
	}}
}

func TestQuantileInclusive(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestSummarizeTable(t *testing.T) {
	b, err := readBenchmark(writeFile(t, "BENCHMARK.json", testBenchmark))
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{
		rec(sideBase, 1, 100, 537.6, 0.5), rec(sideChange, 1, 110, 345.8, 0.5),
		rec(sideChange, 2, 90, 345.7, 0.5), rec(sideBase, 2, 95, 537.7, 0.5),
		rec(sideBase, 3, 100, 537.6, 0.5), rec(sideChange, 3, 101, 345.6, 0.5),
		rec(sideBase, 4, 99, 537.8, 0.5), // no change side: not a pair
	}
	var out bytes.Buffer
	if err := summarize(&out, b, recs); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"**feed-append** (3 pairs; every run oracle-correct, 0 failed operations)",
		"| metric | parent median (Q1–Q3) | change median (Q1–Q3) | change better | Δ median |",
		// higher is better: the change won pairs 1 and 3.
		"| `ops_per_s` | 100 (97.5–100) | 101 (95.5–105.5) | 2/3 | +1.0% |",
		// lower is better: the change won every pair.
		"| `alloc_kb_per_op` | 537.6 (537.6–537.65) | 345.7 (345.65–345.75) | 3/3 | -35.7% |",
		"| `aux_bytes_per_detail_byte` | 0.5 (0.5–0.5) | 0.5 (0.5–0.5) | 0/3 (3 equal) | +0.0% |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q; got:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dash-read") {
		t.Errorf("summary printed a workload without runs:\n%s", got)
	}
}

func TestSummarizeNeedsAPair(t *testing.T) {
	b, err := readBenchmark(writeFile(t, "BENCHMARK.json", testBenchmark))
	if err != nil {
		t.Fatal(err)
	}
	if err := summarize(&bytes.Buffer{}, b, []record{rec(sideBase, 1, 1, 1, 1)}); err == nil {
		t.Fatal("a lone run summarized without error")
	}
}

func TestParseResultAndCheck(t *testing.T) {
	ok := "ops_per_s 1 1/s\n{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":1.5,\"unit\":\"1/s\"}}}\n"
	res, err := parseResult([]byte(ok))
	if err != nil || res.check() != nil || res.Metrics["ops_per_s"].Value != 1.5 {
		t.Fatalf("parseResult = %+v, %v", res, err)
	}
	for _, bad := range []string{
		"{\"correct\":false,\"attempted\":9,\"failed\":0}",
		"{\"correct\":true,\"attempted\":9,\"failed\":2}",
	} {
		res, err := parseResult([]byte(bad))
		if err != nil {
			t.Fatal(err)
		}
		if res.check() == nil {
			t.Errorf("%s passed the check", bad)
		}
	}
	if _, err := parseResult([]byte("no result here\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestReadRecordsRoundTrip(t *testing.T) {
	good := `{"workload":"feed-append","side":"parent","pair":1,"seed":1,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{}}}` + "\n\n"
	recs, err := readRecords(writeFile(t, "ok.jsonl", good))
	if err != nil || len(recs) != 1 || recs[0].Side != sideBase {
		t.Fatalf("readRecords = %+v, %v", recs, err)
	}
	bad := `{"workload":"feed-append","side":"change","pair":1,"seed":1,"result":{"correct":true,"attempted":3,"failed":1}}`
	if _, err := readRecords(writeFile(t, "bad.jsonl", bad)); err == nil {
		t.Error("a run with a failed operation was read back without error")
	}
}

func TestPickWorkloads(t *testing.T) {
	b, err := readBenchmark(writeFile(t, "BENCHMARK.json", testBenchmark))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.pick("all"); err != nil || strings.Join(got, ",") != "feed-append,dash-read" {
		t.Errorf("pick(all) = %v, %v", got, err)
	}
	if got, err := b.pick("dash-read"); err != nil || len(got) != 1 {
		t.Errorf("pick(dash-read) = %v, %v", got, err)
	}
	if _, err := b.pick("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := readBenchmark(writeFile(t, "bad.json", `{"end_to_end":[{"name":"x","better":"up"}]}`)); err == nil {
		t.Error("a metric without a direction accepted")
	}
}

// TestExportEmptiesTheDirectory exports two commits of a scratch repository
// into one directory: a file the second commit deleted must not survive
// from the first export.
func TestExportEmptiesTheDirectory(t *testing.T) {
	repo := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	for _, f := range []string{"keep.go", "gone.go"} {
		if err := os.WriteFile(filepath.Join(repo, f), []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("add", ".")
	git("commit", "-q", "-m", "both")
	first := git("rev-parse", "HEAD")
	git("rm", "-q", "gone.go")
	git("commit", "-q", "-m", "one")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repo); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	dir := filepath.Join(t.TempDir(), "base")
	for _, treeish := range []string{first, "HEAD"} {
		if _, err := export(treeish, dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.go")); err != nil {
		t.Errorf("the second export lacks keep.go: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.go")); !os.IsNotExist(err) {
		t.Errorf("gone.go, deleted in the second tree, survived its export (stat: %v)", err)
	}
}
