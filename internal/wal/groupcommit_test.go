package wal

import (
	"path/filepath"
	"testing"

	"mindetail/internal/obs"
)

// TestCommitBatchRecords verifies CommitBatch appends one commit record
// per LSN, in order, counts the batch as one group-commit sync, and that a
// reopened log sees every outcome.
func TestCommitBatchRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.SetObs(reg)
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsn, err := l.BeginDelta(testDelta(int64(i)), true)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.CommitBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.CommitBatch(lsns); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if syncs, commits := snap.Counters["wal.groupcommit.syncs"], snap.Counters["wal.records.commit"]; syncs != 1 || commits != 5 {
		t.Fatalf("group-commit syncs = %d, commit records = %d; want 1 and 5", syncs, commits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(path, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10 (5 intents + 5 commits)", len(recs))
	}
	for i, lsn := range lsns {
		c := recs[5+i]
		if c.Kind != KindCommit || c.LSN != lsn {
			t.Fatalf("commit record %d = kind %v lsn %d, want commit of %d", i, c.Kind, c.LSN, lsn)
		}
	}
}
