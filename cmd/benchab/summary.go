package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	sideBase   = "parent"
	sideChange = "change"
)

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check refuses a run that was not oracle-correct or lost an operation.
func (r result) check() error {
	switch {
	case !r.Correct:
		return errors.New("run was not oracle-correct")
	case r.Failed > 0:
		return fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	return nil
}

// record is one JSONL line: which run, and its result.
type record struct {
	Workload string `json:"workload"`
	Side     string `json:"side"`
	Pair     int    `json:"pair"`
	Seed     int    `json:"seed"`
	Result   result `json:"result"`
}

// parseResult reads the JSON object on the last non-empty line of a run's
// standard output.
func parseResult(stdout []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	last := lines[len(lines)-1]
	if len(last) == 0 || last[0] != '{' {
		return res, errors.New("run printed no result line")
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// benchmark is the part of BENCHMARK.json the comparison reads.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range b.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &b, nil
}

// pick resolves a comma-separated workload list ("all": every declared one).
func (b *benchmark) pick(list string) ([]string, error) {
	known := map[string]bool{}
	var all []string
	for _, w := range b.Workloads {
		known[w.Name] = true
		all = append(all, w.Name)
	}
	if list == "all" {
		return all, nil
	}
	var out []string
	for _, w := range strings.Split(list, ",") {
		if w = strings.TrimSpace(w); !known[w] {
			return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", w, strings.Join(all, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// summarize prints one table per workload, in declaration order, over the
// pairs whose both sides are present.
func summarize(w io.Writer, b *benchmark, recs []record) error {
	type pair struct{ base, change *result }
	byWorkload := map[string]map[int]*pair{}
	for i := range recs {
		r := &recs[i]
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[int]*pair{}
		}
		p := byWorkload[r.Workload][r.Pair]
		if p == nil {
			p = &pair{}
			byWorkload[r.Workload][r.Pair] = p
		}
		switch r.Side {
		case sideBase:
			p.base = &r.Result
		case sideChange:
			p.change = &r.Result
		default:
			return fmt.Errorf("%s pair %d: unknown side %q", r.Workload, r.Pair, r.Side)
		}
	}
	printed := false
	for _, wl := range b.Workloads {
		pairs := byWorkload[wl.Name]
		var ids []int
		for id, p := range pairs {
			if p.base != nil && p.change != nil {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		sort.Ints(ids)
		printed = true
		fmt.Fprintf(w, "\n**%s** (%d pairs; every run oracle-correct, 0 failed operations)\n\n", wl.Name, len(ids))
		fmt.Fprintln(w, "| metric | parent median (Q1–Q3) | change median (Q1–Q3) | change better | Δ median |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
		for _, m := range b.EndToEnd {
			var base, change []float64
			better, equal := 0, 0
			for _, id := range ids {
				bv, okB := pairs[id].base.Metrics[m.Name]
				cv, okC := pairs[id].change.Metrics[m.Name]
				if !okB || !okC {
					continue
				}
				base, change = append(base, bv.Value), append(change, cv.Value)
				switch {
				case cv.Value == bv.Value:
					equal++
				case (m.Better == "lower") == (cv.Value < bv.Value):
					better++
				}
			}
			if len(base) == 0 {
				continue
			}
			wins := fmt.Sprintf("%d/%d", better, len(base))
			if equal > 0 {
				wins += fmt.Sprintf(" (%d equal)", equal)
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.Name, spread(base), spread(change), wins,
				relChange(quantile(base, 0.5), quantile(change, 0.5)))
		}
	}
	if !printed {
		return errors.New("no workload has a complete pair")
	}
	return nil
}

// spread formats a sample as "median (Q1–Q3)".
func spread(xs []float64) string {
	return fmt.Sprintf("%s (%s–%s)", num(quantile(xs, 0.5)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

// quantile is the inclusive-method quantile: linear interpolation between
// the order statistics at position q·(n−1).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// relChange formats the change of the median relative to the base's.
func relChange(base, change float64) string {
	if base == 0 {
		if change == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (change-base)/math.Abs(base)*100)
}
