// Command bench is the repository's benchmark: four workloads over the
// retail star, each driven over the wire protocol by one closed-loop client
// against a WAL-backed, detached, checkpointed warehouse, with every view
// checked against a from-scratch recomputation and every recovery checked
// against the acknowledged prefix. See README.md. From this directory:
//
//	go run . -workload churn-recompute -seed 1
//	go run . -workload all -seed 1 -trace 1
//	go run . -calibrate 10
//
// The last line of standard output is one JSON object per workload with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// of BENCHMARK.json with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	dir       string
	quick     bool
	calibrate int
	// repeat makes -calibrate run one seed N times instead of seeds 1..N.
	repeat bool
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase the op counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics, spans written as JSONL under -dir")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "work"), "scratch directory for warehouse directories and span files")
	flag.BoolVar(&o.quick, "quick", false, "test scale: a 60-day star and a few cycles per segment")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run every workload N times, on seeds 1..N or N times on -seed when that is given, and print the dispersion table and the bounds it calls for")
	flag.Parse()
	o.trace = trace != 0
	flag.Visit(func(f *flag.Flag) { o.repeat = o.repeat || f.Name == "seed" })
	if err := mainErr(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(out io.Writer, o options) error {
	if o.calibrate > 0 {
		return calibrate(out, o)
	}
	specs := workloads()
	if o.workload != "all" {
		s, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []*workloadSpec{s}
	}
	bad := 0
	for _, s := range specs {
		res, err := runOne(out, s, o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		bad += res.failed
	}
	if bad > 0 {
		return fmt.Errorf("%d operations failed or were judged wrong", bad)
	}
	return nil
}

// runOne runs one workload in the mode -trace selects, prints its table and
// its result line.
func runOne(out io.Writer, spec *workloadSpec, o options) (*runResult, error) {
	if o.quick {
		spec.quick()
	}
	work, err := scratch(o.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{spec: spec, seed: o.seed, seconds: o.seconds, workDir: work, setupReps: 3}
	if o.trace {
		cfg.setupReps, cfg.tr = 1, newTracer()
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		report(out, spec, o, res, endToEnd, res.e2e)
		return res, nil
	}
	spanFile := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", spec.name, o.seed))
	if err := cfg.tr.writeJSONL(spanFile); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(cfg.tr.spans), spanFile))
	report(out, spec, o, res, perLayer, res.layer)
	return res, nil
}

// scratch makes a fresh directory for one run under dir.
func scratch(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

// report prints every metric by name with its unit, sample count and the
// per-segment or per-repetition values, then the result line.
func report(out io.Writer, spec *workloadSpec, o options, res *runResult, defs []metricDef, vals map[string]measurement) {
	fmt.Fprintf(out, "# %s seed=%d seconds=%g GOMAXPROCS=%d: %d requests, %d measured units (%d applies)\n",
		spec.name, o.seed, o.seconds, runtime.GOMAXPROCS(0), res.attempted, res.units, res.applies)
	line := func(name, unit string, m measurement) {
		parts := make([]string, len(m.parts))
		for i, p := range m.parts {
			parts[i] = fmt.Sprintf("%.6g", p)
		}
		fmt.Fprintf(out, "%-42s %14.6g %-6s n=%-7d %s\n", name, m.value, unit, m.samples, strings.Join(parts, " "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		line(d.name, d.unit, vals[d.name])
		metrics[d.name] = value{vals[d.name].value, d.unit}
	}
	if m, ok := vals["failed_share"]; ok {
		line("failed_share", "share", m)
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "#", n)
	}
	result, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Fprintf(out, "%s\n", result)
}
