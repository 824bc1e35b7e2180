package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mindetail/internal/wire"
)

// quickRun runs one workload at test scale and fails the test on any
// mismatch the run itself found.
func quickRun(t *testing.T, name string, seed int64, trace bool) (*runResult, *tracer) {
	t.Helper()
	spec, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.quick()
	work := t.TempDir()
	cfg := runConfig{spec: spec, seed: seed, seconds: runSeconds, workDir: work, setupReps: 1}
	if trace {
		cfg.tr = newTracer()
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", name, res.failed, res.attempted, res.notes)
	}
	return res, cfg.tr
}

// opStream is the first n deltas of a workload's stream, wire-encoded.
func opStream(t *testing.T, spec *workloadSpec, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(spec.params, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i := 0; i < n; i++ {
		out = wire.AppendDeltaBody(out, spec.next(g))
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range workloads() {
		spec.quick()
		a, b := opStream(t, spec, 7, 64), opStream(t, spec, 7, 64)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different op streams", spec.name)
		}
		if c := opStream(t, spec, 8, 64); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", spec.name)
		}
	}
}

// TestRunsRepeat checks what must repeat exactly between two runs of the
// same code on the same seed: op counts and every byte ratio, and from the
// traced run the request bytes per op.
func TestRunsRepeat(t *testing.T) {
	exact := []string{"aux_bytes_per_detail_byte", "wal_bytes_per_delta_byte", "snapshot_bytes_per_detail_byte"}
	for _, spec := range workloads() {
		a, _ := quickRun(t, spec.name, 3, false)
		b, _ := quickRun(t, spec.name, 3, false)
		if a.attempted != b.attempted || a.units != b.units || a.applies != b.applies {
			t.Errorf("%s: op counts differ: %d/%d/%d vs %d/%d/%d", spec.name,
				a.attempted, a.units, a.applies, b.attempted, b.units, b.applies)
		}
		for _, m := range exact {
			if a.e2e[m].value != b.e2e[m].value || a.e2e[m].value == 0 {
				t.Errorf("%s: %s = %v and %v", spec.name, m, a.e2e[m].value, b.e2e[m].value)
			}
		}
		ta, _ := quickRun(t, spec.name, 3, true)
		tb, _ := quickRun(t, spec.name, 3, true)
		if x, y := ta.layer["wire.req_bytes_per_op"].value, tb.layer["wire.req_bytes_per_op"].value; x != y || x == 0 {
			t.Errorf("%s: wire.req_bytes_per_op = %v and %v", spec.name, x, y)
		}
	}
}

// TestSpansReconcile checks the trace's arithmetic. No span has negative
// self time, even where store calls overlap (spill-paged); the self times
// under a request plus what trace.unexplained_share reports add up to the
// request's duration, exactly where nothing overlaps (churn-recompute);
// and a request is tiled by its client and server spans, with the layer
// spans of an apply nested inside the server span.
func TestSpansReconcile(t *testing.T) {
	for _, name := range []string{"churn-recompute", "spill-paged"} {
		res, tr := quickRun(t, name, 5, true)
		self := selfTimes(tr.spans)
		root := make([]int, len(tr.spans)) // index of each span's root
		sum := make(map[int]int64)
		requestTime, uncovered := int64(0), int64(0)
		for i, s := range tr.spans {
			root[i] = i
			if s.Parent != 0 {
				root[i] = root[s.Parent-1]
			} else {
				requestTime += s.End - s.Start
				uncovered += self[i]
			}
			sum[root[i]] += self[i]
			if self[i] < 0 {
				t.Fatalf("%s: span %d (%s) has negative self time %d", name, s.ID, s.Name, self[i])
			}
		}
		for i, total := range sum {
			s := tr.spans[i]
			if total < s.End-s.Start || (name == "churn-recompute" && total != s.End-s.Start) {
				t.Fatalf("%s: %s span %d: self times sum to %d, duration is %d", name, s.Name, s.ID, total, s.End-s.Start)
			}
		}
		if got, want := res.layer["trace.unexplained_share"].value, float64(uncovered)/float64(requestTime); got != want || got > 0.01 {
			t.Errorf("%s: trace.unexplained_share = %v, requests' own self time is %v of request time", name, got, want)
		}

		tiles := make(map[int]int64) // request ID -> client_send + server + client_recv
		inServer := make(map[int]int64)
		serverOf := make(map[int]span)
		for _, s := range tr.spans {
			switch s.Name {
			case spanSend, spanServer, spanRecv:
				tiles[s.Parent] += s.End - s.Start
				if s.Name == spanServer {
					serverOf[s.ID] = s
				}
			case spanWALBegin, spanPropagate, spanWALCommit:
				inServer[s.Parent] += s.End - s.Start
			}
		}
		if len(tiles) == 0 {
			t.Fatalf("%s: no request spans", name)
		}
		for _, s := range tr.spans {
			if s.Parent == 0 && tiles[s.ID] != s.End-s.Start {
				t.Fatalf("%s: %s span %d lasts %d, its client and server spans %d", name, s.Name, s.ID, s.End-s.Start, tiles[s.ID])
			}
		}
		for id, d := range inServer {
			if srv, ok := serverOf[id]; !ok || d <= 0 || d > srv.End-srv.Start {
				t.Fatalf("%s: layer spans of %d ns under server span %+v", name, d, srv)
			}
		}
	}
}

// TestCatalogueMatchesProgramAndFile checks that BENCHMARK.json lists
// exactly the catalogue's workloads and metrics with their units,
// directions and bounds, that it stays inside the contract's limits, and
// that a run emits exactly the catalogue's metrics.
func TestCatalogueMatchesProgramAndFile(t *testing.T) {
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json: command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	var want []entry
	for _, s := range workloads() {
		want = append(want, entry{Name: s.name, Why: s.why})
	}
	if !reflect.DeepEqual(doc.Workloads, want) {
		t.Errorf("BENCHMARK.json workloads %v, the program's %v", doc.Workloads, want)
	}
	want = nil
	for _, m := range endToEnd {
		want = append(want, entry{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	if !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, the catalogue's %v", doc.EndToEnd, want)
	}
	want = nil
	for _, m := range perLayer {
		want = append(want, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer %v, the catalogue's %v", doc.PerLayer, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	for _, s := range workloads() {
		check(s.name, "")
		if len(s.why) > 200 {
			t.Errorf("%s: why has %d characters", s.name, len(s.why))
		}
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}

	res, _ := quickRun(t, "spill-paged", 1, false)
	for _, m := range endToEnd {
		if v, ok := res.e2e[m.name]; !ok || v.value <= 0 {
			t.Errorf("end-to-end metric %s: emitted=%v value=%v", m.name, ok, v.value)
		}
	}
	if len(res.e2e) != len(endToEnd)+1 { // + failed_share
		t.Errorf("run emitted %d end-to-end metrics, catalogue has %d", len(res.e2e), len(endToEnd))
	}
	traced, _ := quickRun(t, "spill-paged", 1, true)
	for _, m := range perLayer {
		if _, ok := traced.layer[m.name]; !ok {
			t.Errorf("per-layer metric %s not emitted", m.name)
		}
	}
	if len(traced.layer) != len(perLayer) {
		t.Errorf("run emitted %d per-layer metrics, catalogue has %d", len(traced.layer), len(perLayer))
	}
}

// TestResultLine checks the last line a run prints.
func TestResultLine(t *testing.T) {
	spec, err := findWorkload("feed-append")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := options{workload: spec.name, seed: 2, seconds: runSeconds, dir: t.TempDir(), quick: true}
	if _, err := runOne(io.MultiWriter(&out), spec, o); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	if !bytes.HasPrefix(last, []byte(`{"correct":true,"attempted":`)) || !bytes.Contains(last, []byte(`"setup_s":{"value":`)) {
		t.Errorf("unexpected result line: %s", last)
	}
}
