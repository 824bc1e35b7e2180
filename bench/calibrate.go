package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the driver computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// roundUp rounds a share up to a whole hundredth.
func roundUp(x float64) float64 { return math.Ceil(x*100-1e-9) / 100 }

// calibrate runs every workload o.calibrate times — on seeds 1..N, which is
// what the driver does and includes what the inputs add, or N times on
// -seed, which is run-to-run noise alone — and prints, per workload and
// end-to-end metric, the median, the quartiles, and the interquartile
// spread and the range as shares of the median. Then, per metric, the
// bound each rule calls for: the issue's, max(0.05, 2 x range) (0.01 for
// the exact ratios), and the driver's, under which a spread must stay
// below a third of the bound, so 3 x the interquartile spread. README.md
// records the table the committed bounds were read from.
func calibrate(out io.Writer, o options) error {
	worstIQR, worstRange := make(map[string]float64), make(map[string]float64)
	for _, spec := range workloads() {
		values := make(map[string][]float64)
		for i := 0; i < o.calibrate; i++ {
			s, err := findWorkload(spec.name)
			if err != nil {
				return err
			}
			ro := o
			ro.trace = false
			if !o.repeat {
				ro.seed = int64(i + 1)
			}
			res, err := runOne(io.Discard, s, ro)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", spec.name, ro.seed, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %v", spec.name, ro.seed, res.notes)
			}
			for _, m := range endToEnd {
				values[m.name] = append(values[m.name], res.e2e[m.name].value)
			}
			fmt.Fprintf(out, "# %s seed %d done: ops_per_s %.1f\n", spec.name, ro.seed, res.e2e["ops_per_s"].value)
		}
		fmt.Fprintf(out, "\n%-16s %-32s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
		for _, m := range endToEnd {
			xs := values[m.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			iqr, rng := ratio(q3-q1, med), ratio(sorted[len(sorted)-1]-sorted[0], med)
			fmt.Fprintf(out, "%-16s %-32s %12.6g %12.6g %12.6g %8.4f %8.4f\n", spec.name, m.name, med, q1, q3, iqr, rng)
			worstIQR[m.name] = math.Max(worstIQR[m.name], iqr)
			worstRange[m.name] = math.Max(worstRange[m.name], rng)
		}
	}
	fmt.Fprintf(out, "\n%-32s %10s %10s %12s %12s %10s\n", "metric", "worst iqr", "worst rng", "2 x range", "3 x iqr", "committed")
	for _, m := range endToEnd {
		floor := 0.05
		if m.unit == "ratio" {
			floor = 0.01
		}
		fmt.Fprintf(out, "%-32s %10.4f %10.4f %12.2f %12.2f %10.2f\n", m.name, worstIQR[m.name], worstRange[m.name],
			math.Max(floor, roundUp(2*worstRange[m.name])), math.Max(floor, roundUp(3*worstIQR[m.name])), m.bound)
	}
	return nil
}
