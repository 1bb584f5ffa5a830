package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vclock"
)

func TestCodecRoundTrip(t *testing.T) {
	recs := []*store.CommitRecord{
		{CSN: 1, WallTS: 1700000000000001, Origin: "se-eu-1/p0", Ops: []store.Op{
			{Kind: store.OpPut, Key: "sub-1", Entry: store.Entry{
				"msisdn": {"34600000001"}, "imsi": {"214010000000001", "214010000000002"},
			}},
		}},
		{CSN: 2, Origin: "", Ops: []store.Op{
			{Kind: store.OpDelete, Key: "sub-2"}, // nil entry
		}},
		{CSN: 1 << 40, WallTS: -7, Origin: "m", Ops: []store.Op{
			{Kind: store.OpModify, Key: "sub-3",
				Entry: store.Entry{"area": {"LA-7"}},
				Mods: []store.Mod{
					{Kind: store.ModReplace, Attr: "area", Vals: []string{"LA-7"}},
					{Kind: store.ModDelete, Attr: "tmp"},
				},
				VC: vclock.VC{"a": 3, "b": 9},
			},
			{Kind: store.OpPut, Key: "sub-4", Entry: store.Entry{"empty": nil}},
		}},
		{CSN: 9}, // no ops
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendFrame(buf, appendRecord(nil, rec))
	}
	off := 0
	for i, want := range recs {
		var got store.CommitRecord
		next, err := readFrame(buf, off, &got)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		off = next
		// The codec decodes empty op lists as nil; normalize.
		w := *want
		if len(w.Ops) == 0 {
			w.Ops = nil
		}
		if len(got.Ops) == 0 {
			got.Ops = nil
		}
		if !reflect.DeepEqual(&got, &w) {
			t.Fatalf("rec %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestCodecTruncationAndCorruption(t *testing.T) {
	rec := &store.CommitRecord{CSN: 7, WallTS: 42, Origin: "o", Ops: []store.Op{
		{Kind: store.OpPut, Key: "k", Entry: store.Entry{"v": {"1"}}},
	}}
	frame := appendFrame(nil, appendRecord(nil, rec))

	// Every strict prefix is a torn tail: error, never a panic or a
	// bogus record.
	for n := 0; n < len(frame); n++ {
		var got store.CommitRecord
		if _, err := readFrame(frame[:n], 0, &got); err == nil {
			t.Fatalf("prefix %d/%d decoded successfully", n, len(frame))
		}
	}
	// A flipped payload byte must fail the checksum.
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0xFF
	var got store.CommitRecord
	if _, err := readFrame(bad, 0, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrCorrupt", err)
	}
	// An overflowing length varint is corruption, never a torn tail:
	// silently truncating here would destroy the good frames after it.
	overflow := bytes.Repeat([]byte{0xFF}, 11)
	if _, err := readFrame(overflow, 0, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("varint overflow: err = %v, want ErrCorrupt", err)
	}
}

// TestGroupCommitConcurrentDurable hammers one sync-every-commit log
// from many goroutines and verifies the core guarantee: every Append
// that returned success is durable across a crash-style close, and
// cohorts shared fsyncs (fewer fsyncs than appends).
func TestGroupCommitConcurrentDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	const gors, perG = 8, 30
	var csn atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < gors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := &store.CommitRecord{
					CSN:    csn.Add(1),
					Origin: "m",
					Ops: []store.Op{{Kind: store.OpPut, Key: fmt.Sprintf("g%d-k%d", g, i),
						Entry: store.Entry{"v": {fmt.Sprint(i)}}}},
				}
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p := l.Pending(); p != 0 {
		t.Fatalf("pending = %d after sync-mode appends", p)
	}
	// Concurrent durable appends share cohort fsyncs (§3.1 fn 6's
	// cost, amortized): strictly fewer fsyncs than records.
	if l.Syncs() >= l.Appends() {
		t.Fatalf("appends=%d fsyncs=%d: group commit did not coalesce", l.Appends(), l.Syncs())
	}
	t.Logf("appends=%d fsyncs=%d (%.1f appends/fsync)",
		l.Appends(), l.Syncs(), float64(l.Appends())/float64(l.Syncs()))
	l.Close() // crash: harmless, every append was acknowledged durable

	recovered := store.New("r")
	gotCSN, replayed, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(gors * perG); gotCSN != want || replayed != gors*perG {
		t.Fatalf("csn=%d replayed=%d, want %d", gotCSN, replayed, want)
	}
	if recovered.Len() != gors*perG {
		t.Fatalf("rows = %d, want %d", recovered.Len(), gors*perG)
	}
}

// TestTornTailBatchRecovery cuts a crash mid batch-write and verifies
// recovery keeps every intact frame, truncates the torn tail off the
// file, and that post-recovery appends are then fully readable.
func TestTornTailBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 6)
	l.Close()

	// Tear the last frame: drop its trailing 3 bytes, as if the crash
	// cut the cohort write short.
	path := filepath.Join(dir, seg1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	recovered := store.New("r1")
	csn, replayed, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 5 || replayed != 5 {
		t.Fatalf("csn=%d replayed=%d, want 5", csn, replayed)
	}

	// The torn bytes must be gone: append more records and recover
	// again; everything must be readable.
	l2, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	recovered.SetRole(store.Master)
	commitN2 := func(n int) {
		for i := 0; i < n; i++ {
			txn := recovered.Begin(store.ReadCommitted)
			txn.Put(fmt.Sprintf("post-%d", i), store.Entry{"v": {"x"}})
			rec, err := txn.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitN2(4)
	l2.Close()

	final := store.New("r1")
	csn, replayed, err = Recover(dir, final)
	if err != nil {
		t.Fatal(err)
	}
	if csn != 9 || replayed != 9 {
		t.Fatalf("after re-append: csn=%d replayed=%d, want 9", csn, replayed)
	}
	if _, _, ok := final.GetCommitted("post-3"); !ok {
		t.Fatal("post-recovery append lost")
	}
}

// TestRecoverSurfacesMidFileCorruption distinguishes the two failure
// shapes: a torn tail is truncated silently (crash artifact), but a
// corrupt frame with intact records after it must surface an error
// and leave the file alone — silently truncating would destroy
// durably-fsynced commits.
func TestRecoverSurfacesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	commitN(t, s, l, 5)
	l.Close()

	path := filepath.Join(dir, seg1)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second frame's payload: frames are
	// identical in size, so frame 2 starts at len/5.
	mut := append([]byte(nil), buf...)
	mut[len(buf)/5+4] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := store.New("r1")
	if _, _, err := Recover(dir, recovered); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover over corruption: err = %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(mut) {
		t.Fatalf("recover truncated a corrupt (not torn) log: %d -> %d bytes", len(mut), len(after))
	}
}

// TestGroupCommitAppendSyncSnapshotRace drives Append (through the
// store commit pipeline), Sync and Snapshot concurrently; run under
// -race this is the scheduler's memory-safety gauntlet, and the final
// recovery must still see every committed row.
func TestGroupCommitAppendSyncSnapshotRace(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	s.SetCommitPipeline(func(rec *store.CommitRecord) (func() error, error) {
		ticket, needSync, err := l.AppendStage(rec)
		if err != nil {
			return nil, err
		}
		if !needSync {
			return nil, nil
		}
		return func() error { return l.WaitDurable(ticket) }, nil
	})

	const gors, perG = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < gors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				txn := s.Begin(store.ReadCommitted)
				txn.Put(fmt.Sprintf("g%d-k%d", g, i), store.Entry{"v": {fmt.Sprint(i)}})
				if _, err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.Sync()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := l.Checkpoint(s); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	_ = l.Sync()
	l.Close()

	recovered := store.New("r1")
	if _, _, err := Recover(dir, recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != gors*perG {
		t.Fatalf("rows = %d, want %d", recovered.Len(), gors*perG)
	}
	if recovered.CSN() != uint64(gors*perG) {
		t.Fatalf("csn = %d, want %d", recovered.CSN(), gors*perG)
	}
}

// TestCrashMidCohortProperty is the randomized crash-restart property
// test for the group-commit write path: concurrent appenders hammer a
// sync-every-commit log while a "killer" goroutine snapshots the live
// log file at a random moment — exactly what a machine crash mid
// cohort write leaves on disk, including a possibly torn final frame.
// Recovery from the copy must yield (a) a contiguous CSN prefix 1..m
// with no gaps and no corruption error, and (b) every append whose
// durable acknowledgement happened strictly before the copy started —
// fsynced bytes cannot be lost by a later crash.
func TestCrashMidCohortProperty(t *testing.T) {
	for round := 0; round < 4; round++ {
		rng := rand.New(rand.NewSource(int64(100 + round)))
		dir := t.TempDir()
		l, err := Open(dir, SyncEveryCommit)
		if err != nil {
			t.Fatal(err)
		}

		// Drive through the store commit pipeline, like the storage
		// element does: staging happens under the commit lock, so WAL
		// order equals CSN order and recovery must yield a contiguous
		// CSN prefix.
		s := store.New("crash")
		s.SetCommitPipeline(func(rec *store.CommitRecord) (func() error, error) {
			ticket, needSync, err := l.AppendStage(rec)
			if err != nil {
				return nil, err
			}
			if !needSync {
				return nil, nil
			}
			return func() error { return l.WaitDurable(ticket) }, nil
		})

		const gors, perG = 6, 25
		acked := make([]atomic.Bool, gors*perG+1)
		var wg sync.WaitGroup
		for g := 0; g < gors; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					txn := s.Begin(store.ReadCommitted)
					txn.Put(fmt.Sprintf("g%d-k%d", g, i), store.Entry{"v": {fmt.Sprint(i)}})
					rec, err := txn.Commit()
					if err != nil {
						t.Error(err)
						return
					}
					acked[rec.CSN].Store(true)
				}
			}(g)
		}

		// The kill: after a random slice of the run, copy the live log
		// file byte-for-byte. Reading while the leader writes may catch
		// a cohort mid-write — the torn-tail shape recovery must eat.
		// (A crash can surface unsynced written bytes or cut a cohort
		// short; it can never lose fsynced bytes, so the copy is a
		// faithful crash image.)
		time.Sleep(time.Duration(rng.Intn(4000)) * time.Microsecond)
		ackedBefore := make([]bool, len(acked))
		for i := range acked {
			ackedBefore[i] = acked[i].Load()
		}
		crashDir := t.TempDir()
		buf, err := os.ReadFile(filepath.Join(dir, seg1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, seg1), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		l.Close()

		recovered := store.New("crash")
		gotCSN, replayed, err := Recover(crashDir, recovered)
		if err != nil {
			t.Fatalf("round %d: recover over crash copy: %v", round, err)
		}
		// (a) contiguous prefix: CSNs are assigned by an atomic counter
		// and staged in commit order, so the replayed set must be
		// exactly 1..m.
		if uint64(replayed) != gotCSN {
			t.Fatalf("round %d: replayed %d records but reached CSN %d — gap in the prefix",
				round, replayed, gotCSN)
		}
		// (b) durable-acknowledged before the copy ⇒ present.
		for c := uint64(1); c < uint64(len(ackedBefore)); c++ {
			if ackedBefore[c] && c > gotCSN {
				t.Fatalf("round %d: CSN %d was acknowledged durable before the crash copy but recovery stopped at %d",
					round, c, gotCSN)
			}
		}
		t.Logf("round %d: copied %d bytes, recovered prefix 1..%d", round, len(buf), gotCSN)
	}
}

// TestTornTailEveryOffset sweeps a synced multi-record log through
// every truncation offset: each one is a legal crash artifact and must
// recover to a contiguous prefix, never an error, and re-opening the
// truncated file for new appends must leave a fully readable log.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	s := store.New("r1")
	const n = 5
	commitN(t, s, l, n)
	l.Close()
	buf, err := os.ReadFile(filepath.Join(master, seg1))
	if err != nil {
		t.Fatal(err)
	}

	lastCSN := uint64(0)
	for off := len(buf); off >= 0; off-- {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg1), buf[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := store.New("r1")
		gotCSN, replayed, err := Recover(dir, recovered)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if uint64(replayed) != gotCSN {
			t.Fatalf("offset %d: replayed=%d csn=%d — gap", off, replayed, gotCSN)
		}
		if gotCSN > lastCSN && off != len(buf) {
			t.Fatalf("offset %d: recovered MORE (%d) than a longer prefix did (%d)", off, gotCSN, lastCSN)
		}
		lastCSN = gotCSN

		// The torn bytes must be gone: append and re-recover.
		l2, err := Open(dir, SyncEveryCommit)
		if err != nil {
			t.Fatal(err)
		}
		recovered.SetRole(store.Master)
		txn := recovered.Begin(store.ReadCommitted)
		txn.Put("post", store.Entry{"v": {"x"}})
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Append(rec); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		final := store.New("r1")
		finalCSN, _, err := Recover(dir, final)
		if err != nil {
			t.Fatalf("offset %d: recover after re-append: %v", off, err)
		}
		if finalCSN != gotCSN+1 {
			t.Fatalf("offset %d: post-truncation append lost (csn %d, want %d)", off, finalCSN, gotCSN+1)
		}
	}
	// Sanity: the untruncated log recovers every record.
	recovered := store.New("r1")
	gotCSN, _, err := Recover(master, recovered)
	if err != nil || gotCSN != n {
		t.Fatalf("full recovery: csn=%d err=%v", gotCSN, err)
	}
}
