package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// seg1 is the first segment's file name — the entire log for tests
// that never checkpoint.
var seg1 = fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix)

func commitN(t *testing.T, s *store.Store, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := s.Begin(store.ReadCommitted)
		txn.Put(fmt.Sprintf("k%04d", i), store.Entry{"v": {fmt.Sprint(i)}})
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 10)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := store.New("r1")
	csn, replayed, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 10 || replayed != 10 {
		t.Fatalf("csn=%d replayed=%d", csn, replayed)
	}
	if recovered.Len() != 10 || recovered.CSN() != 10 {
		t.Fatalf("len=%d csn=%d", recovered.Len(), recovered.CSN())
	}
	e, _, ok := recovered.GetCommitted("k0007")
	if !ok || e.First("v") != "7" {
		t.Fatalf("row = %v %v", e, ok)
	}
}

func TestUnsyncedTailLost(t *testing.T) {
	// The paper's periodic-save trade-off: a crash loses the
	// un-synced tail (§3.1, §4.2).
	dir := t.TempDir()
	l, err := Open(dir, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Five more commits, never synced.
	for i := 5; i < 10; i++ {
		txn := s.Begin(store.ReadCommitted)
		txn.Put(fmt.Sprintf("k%04d", i), store.Entry{"v": {fmt.Sprint(i)}})
		rec, _ := txn.Commit()
		l.Append(rec)
	}
	if got := l.Pending(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	// Periodic commits issue no fsync of their own: the one sync is
	// the explicit Sync above (§3.1 fn 6, the cheap end).
	if got := l.Syncs(); got != 1 {
		t.Fatalf("syncs = %d after 10 periodic commits and one Sync, want 1", got)
	}
	l.Close() // crash: no final sync

	recovered := store.New("r1")
	csn, _, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn > 5 {
		// Buffered writes may straddle the bufio boundary; we may
		// recover a few more than the synced 5, but never all 10.
		if csn == 10 {
			t.Fatalf("recovered all %d commits despite missing sync", csn)
		}
	}
	if csn < 5 {
		t.Fatalf("lost synced commits: csn = %d", csn)
	}
}

func TestSyncEveryCommitLosesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 10)
	if l.Pending() != 0 {
		t.Fatalf("pending = %d in sync mode", l.Pending())
	}
	// Sequential commits have no cohort to share with: every one pays
	// its own fsync (§3.1 fn 6, the expensive end).
	if l.Syncs() != l.Appends() {
		t.Fatalf("syncs = %d, appends = %d: want one fsync per sequential commit", l.Syncs(), l.Appends())
	}
	l.Close() // crash is harmless: everything synced

	recovered := store.New("r1")
	csn, _, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 10 || recovered.Len() != 10 {
		t.Fatalf("csn=%d len=%d", csn, recovered.Len())
	}
}

func TestCheckpointPrunesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 20)
	if err := l.Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	// The sealed segment holding the 20 commits is gone; appends
	// continue in a fresh segment.
	if _, err := os.Stat(segPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("sealed segment survived checkpoint: %v", err)
	}
	fi, err := os.Stat(segPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("active segment size after checkpoint = %d", fi.Size())
	}
	// More commits after the snapshot.
	for i := 20; i < 25; i++ {
		txn := s.Begin(store.ReadCommitted)
		txn.Put(fmt.Sprintf("k%04d", i), store.Entry{"v": {fmt.Sprint(i)}})
		rec, _ := txn.Commit()
		l.Append(rec)
	}
	l.Sync()
	l.Close()

	recovered := store.New("r1")
	csn, replayed, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 25 || recovered.Len() != 25 {
		t.Fatalf("csn=%d len=%d", csn, recovered.Len())
	}
	if replayed != 5 {
		t.Fatalf("replayed = %d, want 5 (snapshot covered the rest)", replayed)
	}
}

func TestSnapshotPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Periodic)
	s := store.New("r1")
	commitN(t, s, l, 3)
	txn := s.Begin(store.ReadCommitted)
	txn.Delete("k0001")
	rec, _ := txn.Commit()
	l.Append(rec)
	if err := l.Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered := store.New("r1")
	if _, _, err := Recover(dir, recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != 2 {
		t.Fatalf("len = %d, want 2", recovered.Len())
	}
	m, ok := recovered.MetaOf("k0001")
	if !ok || !m.Tombstone {
		t.Fatalf("tombstone lost: %v %v", m, ok)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	s := store.New("r1")
	csn, replayed, err := Recover(t.TempDir(), s)
	if err != nil || csn != 0 || replayed != 0 {
		t.Fatalf("empty recover: %d %d %v", csn, replayed, err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, SyncEveryCommit)
	s := store.New("r1")
	commitN(t, s, l, 5)
	l.Close()

	// Corrupt the tail: append garbage bytes.
	f, err := os.OpenFile(filepath.Join(dir, seg1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0x02, 0x03})
	f.Close()

	recovered := store.New("r1")
	csn, _, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 5 {
		t.Fatalf("csn = %d after torn tail", csn)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Periodic)
	l.Close()
	if err := l.Append(&store.CommitRecord{CSN: 1}); err != ErrClosed {
		t.Fatalf("append after close = %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync after close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestPeriodicFlusher(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Periodic)
	l.StartPeriodic(5 * time.Millisecond)
	s := store.New("r1")
	commitN(t, s, l, 3)
	deadline := time.Now().Add(2 * time.Second)
	for l.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic flusher never synced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	l.Close()
}

func TestModeString(t *testing.T) {
	if Periodic.String() != "periodic" || SyncEveryCommit.String() != "sync-every-commit" {
		t.Fatal("mode strings")
	}
}

func TestRecoverSlaveAppliedCSN(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Periodic)
	s := store.New("slave")
	s.SetRole(store.Slave)
	// Simulate replicated applies then snapshot.
	for i := 1; i <= 4; i++ {
		rec := &store.CommitRecord{CSN: uint64(i), Origin: "m", Ops: []store.Op{
			{Kind: store.OpPut, Key: fmt.Sprintf("k%d", i), Entry: store.Entry{"v": {"x"}}},
		}}
		if err := s.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recovered := store.New("slave")
	recovered.SetRole(store.Slave)
	if _, _, err := Recover(dir, recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.AppliedCSN() != 4 {
		t.Fatalf("applied CSN = %d", recovered.AppliedCSN())
	}
}
