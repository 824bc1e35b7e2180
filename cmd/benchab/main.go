// Command benchab runs the repository benchmark (BENCHMARK.json's command,
// bash bench/run.sh) as alternating pairs: a base tree exported with git
// archive against the change, one run at a time, and prints the
// parent-vs-change table EXPERIMENTS.md records — per end-to-end metric the
// median and quartiles of each side, how many pairs the change won, and the
// change of the median.
//
// Pair i runs seed i on both sides; odd pairs run the base first, even pairs
// the change first, so drift over the series falls on both sides alike.
// Every run's result line is appended to a JSONL file, and any run that is
// not oracle-correct, reports a failed operation or exits non-zero stops the
// comparison. From the root of a checkout:
//
//	go run ./cmd/benchab -base HEAD~1 -workloads feed-append -pairs 4
//	go run ./cmd/benchab -base HEAD~1 -change "$(git write-tree)" -pairs 2
//	go run ./cmd/benchab -base HEAD~1 -workloads dash-read -first 5 -pairs 4
//	go run ./cmd/benchab -summarize first.jsonl,more.jsonl
//
// Without -change the change side is the checkout itself; with it, both
// sides are fresh exports, each into an emptied directory under -dir. Every
// run lasts BENCHMARK.json's run_seconds and builds inside its own tree
// (bench/run.sh keeps its build under .bench_build). Run nothing else on
// the machine meanwhile: the timing cells move with any load.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

type options struct {
	base, change string
	workloads    string
	first, pairs int
	dir          string
	out          string
	summarize    string
}

// benchmarkFile is the benchmark declaration, read from the checkout: it
// names the workloads, the run length and each metric's direction.
const benchmarkFile = "BENCHMARK.json"

func main() {
	var o options
	flag.StringVar(&o.base, "base", "", "git tree-ish of the base (parent) side, exported with git archive")
	flag.StringVar(&o.change, "change", "", "git tree-ish of the change side; empty: the checkout itself")
	flag.StringVar(&o.workloads, "workloads", "all", "comma-separated workload names, or all (BENCHMARK.json's list)")
	flag.IntVar(&o.first, "first", 1, "number of the first pair, to extend an earlier series")
	flag.IntVar(&o.pairs, "pairs", 4, "alternating pairs per workload; pair i runs seed i")
	flag.StringVar(&o.dir, "dir", "", "directory for the exported trees, emptied first (default: a new temporary directory)")
	flag.StringVar(&o.out, "out", "benchab.jsonl", "JSONL file every run's result is appended to")
	flag.StringVar(&o.summarize, "summarize", "", "print the tables of existing JSONL files (comma-separated) instead of running")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	decl, err := readBenchmark(benchmarkFile)
	if err != nil {
		return err
	}
	if o.summarize != "" {
		var recs []record
		for _, path := range strings.Split(o.summarize, ",") {
			more, err := readRecords(path)
			if err != nil {
				return err
			}
			recs = append(recs, more...)
		}
		return summarize(w, decl, recs)
	}
	if o.base == "" {
		return errors.New("-base is required")
	}
	if o.pairs < 1 || o.first < 1 {
		return fmt.Errorf("-first and -pairs must be at least 1, got %d and %d", o.first, o.pairs)
	}
	if decl.RunSeconds <= 0 {
		return fmt.Errorf("%s: run_seconds is %v, want a positive length", benchmarkFile, decl.RunSeconds)
	}
	workloads, err := decl.pick(o.workloads)
	if err != nil {
		return err
	}
	if o.dir == "" {
		if o.dir, err = os.MkdirTemp("", "benchab-"); err != nil {
			return err
		}
	}
	baseDir, err := export(o.base, filepath.Join(o.dir, "base"))
	if err != nil {
		return err
	}
	changeDir := "."
	if o.change != "" {
		if changeDir, err = export(o.change, filepath.Join(o.dir, "change")); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# base %s in %s, change %s in %s\n", o.base, baseDir, orCheckout(o.change), changeDir)
	out, err := os.OpenFile(o.out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()
	var recs []record
	for _, wl := range workloads {
		for pair := o.first; pair < o.first+o.pairs; pair++ {
			sides := []struct{ name, dir string }{{sideBase, baseDir}, {sideChange, changeDir}}
			if pair%2 == 0 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				res, err := benchOnce(s.dir, wl, pair, decl.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s side: %w", wl, pair, s.name, err)
				}
				rec := record{Workload: wl, Side: s.name, Pair: pair, Seed: pair, Result: res}
				line, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
					return err
				}
				recs = append(recs, rec)
				fmt.Fprintf(w, "# %s pair %d %s: %d operations\n", wl, pair, s.name, res.Attempted)
			}
		}
	}
	if err := out.Close(); err != nil {
		return err
	}
	return summarize(w, decl, recs)
}

func orCheckout(change string) string {
	if change == "" {
		return "(checkout)"
	}
	return change
}

// export writes the tree-ish into dir with git archive and returns dir.
// It empties dir first, so a file the tree does not have — left by an
// earlier export of another tree — cannot be built into the benchmark.
func export(treeish, dir string) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", treeish)
	var tarball, stderr bytes.Buffer
	archive.Stdout, archive.Stderr = &tarball, &stderr
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %v: %s", treeish, err, strings.TrimSpace(stderr.String()))
	}
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin, untar.Stderr = &tarball, &stderr
	if err := untar.Run(); err != nil {
		return "", fmt.Errorf("unpacking %s: %v: %s", treeish, err, strings.TrimSpace(stderr.String()))
	}
	return dir, nil
}

// benchOnce runs one workload at one seed in dir and returns its result
// line, refusing a run that failed, was judged wrong or lost an operation.
func benchOnce(dir, workload string, seed int, seconds float64) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	res, err := parseResult(stdout.Bytes())
	if runErr != nil {
		return res, fmt.Errorf("bench/run.sh: %v: %s", runErr, lastLines(stderr.String(), 5))
	}
	if err != nil {
		return res, err
	}
	return res, res.check()
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// readRecords loads a JSONL file written by a run.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if err := r.Result.check(); err != nil {
			return nil, fmt.Errorf("%s:%d: %s pair %d %s: %w", path, n, r.Workload, r.Pair, r.Side, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
