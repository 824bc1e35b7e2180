package main

import (
	"strings"
	"testing"
)

func TestRunSimulator(t *testing.T) {
	for _, view := range []string{"paper", "csmas", "elimination"} {
		var b strings.Builder
		if err := run(&b, 1500, 30, "default", view, false, false, 0); err != nil {
			t.Fatalf("%s: %v", view, err)
		}
		out := b.String()
		for _, want := range []string{"loading retail workload", "streamed 30 deltas", "view groups"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", view, want, out)
			}
		}
	}
}

func TestRunInsertOnlyMix(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 1500, 20, "insert-only", "csmas", false, false, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "group adjusts") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 1000, 10, "bogus", "paper", false, false, 0); err == nil {
		t.Error("bad mix accepted")
	}
	if err := run(&b, 1000, 10, "default", "bogus", false, false, 0); err == nil {
		t.Error("bad view accepted")
	}
}

func TestRunMetricsDump(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 1500, 20, "default", "paper", true, false, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"metrics:", "maintain.apply_ns", "maintain.stage.delta_detail_join_ns", "\"maintain.applies\": 20",
		"group recomputes: ", "(avoided: ", "rows re-aggregated: ", "maintain.recompute.avoided", "maintain.recompute.rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
}

// Flag combinations whose semantics would be silently wrong must be
// rejected up front, and the legitimate combinations must keep working.
func TestFlagInteractions(t *testing.T) {
	// -batch only group-commits WAL fsyncs; without -wal it would be ignored.
	if err := validateFlags("", false, 8); err == nil || !strings.Contains(err.Error(), "-batch") {
		t.Errorf("-batch without -wal should be rejected, got %v", err)
	}
	// -advise drives its own attached record/replay and cannot nest in -wal.
	if err := validateFlags(t.TempDir(), true, 1); err == nil || !strings.Contains(err.Error(), "-advise") {
		t.Errorf("-advise with -wal should be rejected, got %v", err)
	}
	// -advise with -batch>1 trips the batch rule (there is still no WAL).
	if err := validateFlags("", true, 4); err == nil {
		t.Error("-advise with -batch should be rejected")
	}
	// Legitimate combinations pass validation.
	for _, ok := range []struct {
		wal    string
		advise bool
		batch  int
	}{
		{"", false, 1},          // plain run
		{"", true, 1},           // -advise
		{t.TempDir(), false, 8}, // -wal -batch
	} {
		if err := validateFlags(ok.wal, ok.advise, ok.batch); err != nil {
			t.Errorf("validateFlags(%q, %v, %d) = %v", ok.wal, ok.advise, ok.batch, err)
		}
	}
}

// -aux-disk is not tied to -wal: the in-memory scenario can spill its
// auxiliary views to page files too.
func TestRunAuxDiskWithoutWAL(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 1500, 20, "default", "paper", false, true, 64); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"out-of-core auxiliary views", "out-of-core auxiliary stores", "streamed 20 deltas"} {
		if !strings.Contains(out, want) {
			t.Errorf("aux-disk run missing %q:\n%s", want, out)
		}
	}
}

// -advise records a workload, ranks candidates, materializes the picks,
// and reports the measured net cost delta.
func TestRunAdvise(t *testing.T) {
	var b strings.Builder
	if err := runAdvise(&b, 1500, 30, "default", 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"candidates (ranked by benefit density):",
		"advised_1",
		"replay without picks:",
		"net cost delta:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("advise run missing %q:\n%s", want, out)
		}
	}
	// A 1-byte budget fits nothing: every viable candidate is over budget.
	var tight strings.Builder
	if err := runAdvise(&tight, 1500, 30, "default", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tight.String(), "over budget") {
		t.Errorf("tight budget should leave candidates over budget:\n%s", tight.String())
	}
	if err := runAdvise(&b, 1500, 10, "bogus", 0); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestRunWALMode(t *testing.T) {
	dir := t.TempDir() + "/dw"
	var b strings.Builder
	if err := runWAL(&b, dir, 1500, 30, "default", "paper", "never", 1, false, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"detached sources; checkpoint at LSN",
		"streamed 30 logged deltas",
		"recovery self-check: OK",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Group-committed batches land on the same recovered state (the
	// self-check inside runWAL compares live vs recovered).
	var sb strings.Builder
	if err := runWAL(&sb, t.TempDir()+"/batched", 1500, 30, "insert-only", "paper", "never", 8, false, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batch=8", "recovery self-check: OK"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("batched run missing %q:\n%s", want, sb.String())
		}
	}

	// Reusing a non-empty directory is refused.
	if err := runWAL(&b, dir, 1500, 30, "default", "paper", "never", 1, false, 0); err == nil {
		t.Error("non-empty directory accepted")
	}
	// Bad arguments surface as errors.
	if err := runWAL(&b, t.TempDir()+"/x", 1500, 5, "bogus", "paper", "never", 1, false, 0); err == nil {
		t.Error("bad mix accepted")
	}
	if err := runWAL(&b, t.TempDir()+"/y", 1500, 5, "default", "bogus", "never", 1, false, 0); err == nil {
		t.Error("bad view accepted")
	}
	if err := runWAL(&b, t.TempDir()+"/z", 1500, 5, "default", "paper", "bogus", 1, false, 0); err == nil {
		t.Error("bad sync policy accepted")
	}
}
