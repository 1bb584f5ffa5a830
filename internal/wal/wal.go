// Package wal gives a storage element's RAM-resident stores their
// disk protection (§3.1 decision 1): every store saves its data to
// local persistent storage on a periodic basis, so a storage-element
// failure loses at most the un-synced tail of recent commits — the
// durability window E4 measures and E12's pointer names.
//
// Two modes are supported:
//
//   - Periodic (the paper's default): commit records are buffered and
//     flushed+fsynced on an interval. Fast commits, bounded loss.
//   - SyncEveryCommit (the paper's footnote 6: "dump transactions to
//     disk before committing for 100% guaranteed durability, but that
//     would slow down storage elements too much"): every append is
//     flushed and fsynced before the commit returns.
//
// The durable mode is built around group commit: concurrent appenders
// stage framed records into a shared buffer and one of them — the
// cohort leader — writes and fsyncs the whole buffer in a single pass.
// N concurrent durable commits therefore cost ~1 fsync instead of N,
// while each Append still returns only after the fsync covering its
// record has landed. The AppendStage/WaitDurable split lets the
// storage element stage under the store's commit lock (preserving
// WAL order == CSN order) and pay the fsync wait outside it, so
// commits on one partition overlap their durability waits. The
// benchmark's wal.fsyncs_per_commit figure measures the amortization.
//
// A Log persists one store (one partition replica) as numbered
// segment files plus CRC-framed checkpoint images (segment.go,
// snapshot.go). Checkpoints compact the log incrementally: the image
// streams while commits flow, and the covered prefix is dropped by
// deleting whole sealed segments (checkpoint.go).
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Mode selects the durability mode.
type Mode int

const (
	// Periodic buffers appends and syncs on an interval (or explicit
	// Sync calls).
	Periodic Mode = iota
	// SyncEveryCommit flushes and fsyncs every append before
	// returning: the 100%-durability mode.
	SyncEveryCommit
)

// String returns the mode name.
func (m Mode) String() string {
	if m == SyncEveryCommit {
		return "sync-every-commit"
	}
	return "periodic"
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// encScratch pools per-append payload encode buffers.
var encScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// Log is the write-ahead log + snapshot manager for one store.
type Log struct {
	dir  string
	mode Mode

	mu   sync.Mutex
	cond *sync.Cond // durableSeq advance / leader handoff

	file   *os.File
	closed bool
	// failed poisons the log after a write or fsync error, by design
	// permanently: after a failed fsync the kernel may have dropped
	// the dirty pages, so a later fsync that "succeeds" proves
	// nothing about the lost writes — retrying would fake
	// durability. Every later operation reports the original error;
	// Failed exposes the state so an owner can fail the element over
	// to a replica rather than keep committing in RAM only.
	failed error

	// stage holds framed records not yet written+synced; spare is the
	// second half of the double buffer, swapped in while a leader
	// writes the first.
	stage []byte
	spare []byte
	// stagedSeq counts records ever staged; durableSeq counts records
	// covered by a completed fsync (or snapshot). A ticket is a
	// stagedSeq value: the record is durable once durableSeq reaches
	// it.
	stagedSeq  uint64
	durableSeq uint64
	flushing   bool

	// appends / syncs count records staged and fsyncs issued: their
	// ratio is the group-commit amortization factor.
	appends atomic.Uint64
	syncs   atomic.Uint64

	// segSeq is the active segment's sequence number; firstSeg the
	// oldest segment still on disk; snapGen the newest durable
	// checkpoint image generation. All under l.mu.
	segSeq   uint64
	firstSeg uint64
	snapGen  uint64

	// ckptMu serializes checkpoint passes (checkpoint.go).
	ckptMu sync.Mutex
	// hook, when set (tests only), is called at each CheckpointStep;
	// a non-nil return aborts the pass like a crash at that point.
	hook func(CheckpointStep) error

	ckpts     atomic.Uint64
	ckptNanos atomic.Int64
	ckptCSN   atomic.Uint64
	ckptBytes atomic.Int64
	ckptRows  atomic.Int64

	stopPeriodic chan struct{}
	wg           sync.WaitGroup
}

// Open creates or opens the log in dir.
func Open(dir string, mode Mode) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A checkpoint that crashed mid-image leaves a .tmp file behind;
	// it was never durable state, so sweep it.
	sweepTemps(dir)

	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	seq, first := uint64(1), uint64(1)
	created := len(segs) == 0
	if !created {
		seq, first = segs[len(segs)-1], segs[0]
	}
	f, err := os.OpenFile(segPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if created {
		// The first segment's directory entry must be durable before
		// any append into it is acknowledged.
		if err := fsyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	gens, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		f.Close()
		return nil, err
	}
	var gen uint64
	if len(gens) > 0 {
		gen = gens[len(gens)-1]
	}
	l := &Log{dir: dir, mode: mode, file: f,
		segSeq: seq, firstSeg: first, snapGen: gen}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Mode returns the durability mode.
func (l *Log) Mode() Mode { return l.mode }

// Failed returns the write/fsync error that poisoned the log, or nil.
// A non-nil result is permanent (see the failed field): the disk
// state is untrusted and the element should fail over, not retry.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Appends returns the number of records staged over the log's life.
func (l *Log) Appends() uint64 { return l.appends.Load() }

// Syncs returns the number of fsyncs issued over the log's life. The
// appends/syncs ratio is the group-commit amortization factor.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Append persists one commit record according to the mode: staged
// only (Periodic), or staged and durable before returning
// (SyncEveryCommit). Equivalent to AppendStage followed by waiting on
// the returned ticket.
func (l *Log) Append(rec *store.CommitRecord) error {
	ticket, wait, err := l.AppendStage(rec)
	if err != nil {
		return err
	}
	if wait {
		return l.WaitDurable(ticket)
	}
	return nil
}

// AppendStage encodes and stages one commit record and returns its
// durability ticket. Staging order is durable order, so callers that
// need WAL order to match commit order stage while holding their
// commit lock and wait on the ticket after releasing it. wait reports
// whether the mode requires a WaitDurable call before the commit may
// be acknowledged (SyncEveryCommit).
func (l *Log) AppendStage(rec *store.CommitRecord) (ticket uint64, wait bool, err error) {
	bp := encScratch.Get().(*[]byte)
	payload := appendRecord((*bp)[:0], rec)

	l.mu.Lock()
	if err := l.stateErrLocked(); err != nil {
		l.mu.Unlock()
		*bp = payload[:0]
		encScratch.Put(bp)
		return 0, false, err
	}
	l.stage = appendFrame(l.stage, payload)
	l.stagedSeq++
	ticket = l.stagedSeq
	l.appends.Add(1)

	if l.mode == Periodic && len(l.stage) >= periodicSpill && !l.flushing {
		// Write (no fsync) once the buffer runs full, like the seed's
		// bufio writer: the periodic mode's at-risk window stays the
		// in-memory tail, not the whole interval's worth of commits.
		// Skipped while a flush leader holds the file — interleaving
		// would reorder records on disk.
		if _, werr := l.file.Write(l.stage); werr != nil {
			l.failed = fmt.Errorf("wal: write: %w", werr)
		} else {
			l.spare, l.stage = l.stage[:0], l.spare[:0]
		}
	}
	l.mu.Unlock()
	*bp = payload[:0]
	encScratch.Put(bp)
	return ticket, l.mode == SyncEveryCommit, nil
}

// periodicSpill is the staged-byte threshold past which Periodic mode
// writes the buffer to the file without fsyncing it.
const periodicSpill = 4 << 10

// WaitDurable blocks until the record behind ticket is covered by an
// fsync (or a snapshot). The first waiter to find no flush in flight
// becomes the cohort leader: it takes the whole staged buffer, writes
// it and fsyncs once for every record in it; the rest wait on the
// condition variable.
func (l *Log) WaitDurable(ticket uint64) error {
	_, err := l.WaitDurableEx(ticket)
	return err
}

// WaitDurableEx is WaitDurable plus attribution: led reports whether
// this caller became the group-commit cohort leader and performed the
// fsync itself (vs riding another goroutine's flush). Tracing uses it
// to label wal.fsync spans leader/follower.
func (l *Log) WaitDurableEx(ticket uint64) (led bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitDurableLocked(ticket)
}

func (l *Log) waitDurableLocked(ticket uint64) (led bool, err error) {
	for {
		if l.durableSeq >= ticket {
			return led, nil
		}
		if l.failed != nil {
			return led, l.failed
		}
		if l.closed {
			return led, ErrClosed
		}
		if !l.flushing {
			l.flushing = true
			led = true
			l.mu.Unlock()
			// Leader's staging window: yield once so commits already
			// running on other goroutines can stage into this cohort
			// before the fsync freezes it. Costs one scheduler pass
			// (~100ns) against the ~100µs fsync it amortizes; without
			// it a single-CPU box fsyncs cohorts of one because
			// waiting committers never get scheduled to stage.
			runtime.Gosched()
			l.mu.Lock()
			upTo := l.stagedSeq
			buf := l.stage
			l.stage = l.spare[:0]
			l.mu.Unlock()

			werr := l.writeAndSync(buf)

			l.mu.Lock()
			l.spare = buf[:0]
			l.flushing = false
			if werr != nil {
				l.failed = werr
				l.cond.Broadcast()
				return led, werr
			}
			if upTo > l.durableSeq {
				l.durableSeq = upTo
			}
			l.cond.Broadcast()
			continue
		}
		l.cond.Wait()
	}
}

// writeAndSync writes buf and fsyncs the file. Called with l.mu
// released but flushing ownership held (or with l.mu held on the
// no-group-commit path), which serializes access to l.file against
// snapshot rotation.
func (l *Log) writeAndSync(buf []byte) error {
	if len(buf) > 0 {
		if _, err := l.file.Write(buf); err != nil {
			return fmt.Errorf("wal: write: %w", err)
		}
	}
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	return nil
}

// flushLocked writes and fsyncs the staged buffer while holding l.mu.
func (l *Log) flushLocked() error {
	upTo := l.stagedSeq
	buf := l.stage
	l.stage = l.spare[:0]
	err := l.writeAndSync(buf)
	l.spare = buf[:0]
	if err != nil {
		l.failed = err
		l.cond.Broadcast()
		return err
	}
	if upTo > l.durableSeq {
		l.durableSeq = upTo
	}
	l.cond.Broadcast()
	return nil
}

// stateErrLocked reports the closed/poisoned state.
func (l *Log) stateErrLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// Sync makes every staged record durable before returning. Appends
// that race it may or may not be covered, like any group commit
// cohort boundary.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return err
	}
	_, err := l.waitDurableLocked(l.stagedSeq)
	return err
}

// Pending returns the number of appended-but-unsynced records: the
// commits that would be lost if the element failed right now.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.stagedSeq - l.durableSeq)
}

// StartPeriodic launches the background flusher with the given
// interval. It is a no-op in SyncEveryCommit mode.
func (l *Log) StartPeriodic(interval time.Duration) {
	if l.mode == SyncEveryCommit {
		return
	}
	l.mu.Lock()
	if l.stopPeriodic != nil || l.closed {
		l.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	l.stopPeriodic = stop
	l.mu.Unlock()

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = l.Sync()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the periodic flusher and closes the file WITHOUT a
// final sync: data appended since the last sync is lost, exactly like
// the RAM contents of a failed storage element. Call Sync first for a
// clean shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	// Let an in-flight group flush finish with the file open; its
	// cohort keeps the durability it was promised.
	for l.flushing {
		l.cond.Wait()
	}
	l.closed = true
	stop := l.stopPeriodic
	l.stopPeriodic = nil
	f := l.file
	l.cond.Broadcast()
	l.mu.Unlock()

	if stop != nil {
		close(stop)
	}
	l.wg.Wait()
	return f.Close()
}

// RecoverStats describes what one recovery pass did; E24 and the
// scale smoke assert on it (suffix-only replay, bounded restart).
type RecoverStats struct {
	// CSN / AppliedCSN are the recovered store's positions.
	CSN        uint64
	AppliedCSN uint64
	// SnapshotGen / SnapshotCSN / SnapshotRows describe the image the
	// recovery started from (zero values if none existed).
	SnapshotGen  uint64
	SnapshotCSN  uint64
	SnapshotRows int64
	// CorruptSnapshots counts image generations rejected before an
	// intact one loaded.
	CorruptSnapshots int
	// Replayed counts log records applied — the post-checkpoint
	// suffix only. Skipped counts records below the image watermark
	// (sealed-segment leftovers a crashed prune didn't remove).
	Replayed int
	Skipped  int
	// Segments is the number of segment files scanned.
	Segments int
	// TornTail reports that the last segment ended mid-frame (crash
	// during a batch write) and was truncated at the last intact
	// frame boundary.
	TornTail bool
}

// Recover rebuilds a store from dir: newest intact checkpoint image
// first, then streaming replay of the log suffix above the image
// watermark.
func Recover(dir string, s *store.Store) (csn uint64, replayed int, err error) {
	st, err := RecoverWithStats(dir, s)
	return st.CSN, st.Replayed, err
}

// RecoverWithStats is Recover with the full pass description.
//
// Memory is O(largest frame), not O(log size): the image and every
// segment are read through a streaming frame scanner, so a restart at
// 10M subscribers does not double-buffer the dataset.
//
// Failure handling, from benign to fatal:
//   - A torn tail in the LAST segment is a crash artifact: replay
//     stops at the last intact frame and the partial frame is
//     truncated off so post-recovery appends start clean.
//   - A corrupt newest image (ErrSnapshotCorrupt) falls back to the
//     previous generation, which pruning deliberately retains; the
//     segments still on disk then carry the delta. The rejection is
//     reported in CorruptSnapshots.
//   - A corrupt record mid-segment, a torn frame in a SEALED segment,
//     or no intact image generation at all is real damage, not a
//     crash artifact: surfaced as an error without truncating, and
//     the element owner decides (typically reseed from a replica).
func RecoverWithStats(dir string, s *store.Store) (RecoverStats, error) {
	var st RecoverStats

	// Newest intact image wins. Each candidate is verified with a
	// streaming pass BEFORE any row is installed, so a corrupt image
	// can never half-populate the store it is rejected from.
	gens, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		return st, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		path := snapPath(dir, gens[i])
		if _, verr := readSnapshot(path, nil); verr != nil {
			if errors.Is(verr, ErrSnapshotCorrupt) {
				st.CorruptSnapshots++
				continue
			}
			return st, verr
		}
		hdr, lerr := readSnapshot(path, func(key string, e store.Entry, m store.Meta) {
			// Decoded entries are fresh compact copies: install them
			// without the defensive clone.
			s.PutOwned(key, e, m)
		})
		if lerr != nil {
			// The file passed verification a moment ago; treat a
			// second-pass failure as I/O trouble, not a fallback case.
			return st, lerr
		}
		s.SetCSN(hdr.csn)
		s.SetAppliedCSN(hdr.appliedCSN)
		st.SnapshotGen = gens[i]
		st.SnapshotCSN = hdr.csn
		st.SnapshotRows = hdr.rows
		st.CSN = hdr.csn
		st.AppliedCSN = hdr.appliedCSN
		break
	}
	if st.CorruptSnapshots > 0 && st.SnapshotGen == 0 {
		// Generations existed but none verified. The log prefix they
		// covered may already be pruned; recovering from the segments
		// alone could silently resurrect a truncated past.
		return st, fmt.Errorf("%w: no intact generation among %d", ErrSnapshotCorrupt, len(gens))
	}

	// Replay segments oldest→newest, one bounded frame at a time.
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return st, err
	}
	st.Segments = len(segs)
	var rec store.CommitRecord
	for i, seq := range segs {
		path := segPath(dir, seq)
		f, oerr := os.Open(path)
		if oerr != nil {
			return st, fmt.Errorf("wal: %w", oerr)
		}
		fs := newFrameScan(f)
		for {
			payload, rerr := fs.next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				f.Close()
				if !errors.Is(rerr, errShort) {
					// Checksum/structure failure inside a complete
					// frame: corruption. Records already replayed are
					// good; everything after is untrusted and must not
					// be silently truncated away.
					return st, fmt.Errorf("wal: recover %s at offset %d: %w", path, fs.consumed, rerr)
				}
				if i != len(segs)-1 {
					// Sealed segments are flushed+fsynced before the
					// active segment moves on; a short frame here is
					// damage, not a crash artifact.
					return st, fmt.Errorf("wal: recover %s at offset %d: torn frame in sealed segment: %w", path, fs.consumed, ErrCorrupt)
				}
				// Torn tail of the active segment: the crash cut a
				// cohort write short. Truncate at the last intact
				// frame so post-recovery appends start clean.
				if terr := os.Truncate(path, fs.consumed); terr != nil {
					return st, fmt.Errorf("wal: truncate torn tail: %w", terr)
				}
				st.TornTail = true
				break
			}
			rec = store.CommitRecord{}
			if derr := decodeRecord(payload, &rec); derr != nil {
				f.Close()
				if errors.Is(derr, errShort) {
					derr = fmt.Errorf("%w: truncated payload inside intact frame", ErrCorrupt)
				}
				return st, fmt.Errorf("wal: recover %s: %w", path, derr)
			}
			if rec.CSN <= st.SnapshotCSN {
				st.Skipped++
				continue
			}
			s.Replay(&rec)
			if rec.CSN > st.CSN {
				st.CSN = rec.CSN
			}
			st.Replayed++
		}
		f.Close()
	}
	return st, nil
}
