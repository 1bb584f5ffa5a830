package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wal"
)

func init() {
	register("E24", "Checkpointing at scale: bytes/subscriber, recovery time, commit stall",
		"§2.2, §3.1", runE24)
}

// runE24 measures what PR 9's incremental checkpointer buys at the
// population the paper sizes a storage element for (§2.2: elements in
// the millions-of-subscribers range, §3.1: periodic save to disk):
//
//   - resident bytes per subscriber after attribute interning and
//     compact entry layout — the memory side of "10M subscribers in
//     one element";
//   - checkpoint duration, and commit latency WHILE the image is
//     streaming — the checkpoint must not stall the write path;
//   - startup recovery time: image load plus replay of only the log
//     suffix above the checkpoint watermark, never the whole history.
//
// Full runs provision 1M subscribers (override with UDR_E24_SUBS up
// to 10M when the machine has the memory); quick runs compress to
// 20k so the same code path rides the test suite.
func runE24(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E24", "Checkpointing at scale: bytes/subscriber, recovery time, commit stall")

	subs := 1_000_000
	if opts.Quick {
		subs = 20_000
	} else if env := os.Getenv("UDR_E24_SUBS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n >= 1000 && n <= 10_000_000 {
			subs = n
		}
	}
	const batch = 1000 // rows per provisioning txn

	dir, err := os.MkdirTemp("", "udr-e24-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Resident footprint: heap in use before and after provisioning,
	// with the GC quiesced on both sides so the delta is the store.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	st := store.New("e24")
	log, err := wal.Open(dir, wal.Periodic)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	st.SetCommitHook(log.Append)

	provStart := time.Now()
	for i := 0; i < subs; i += batch {
		txn := st.Begin(store.ReadCommitted)
		for j := i; j < i+batch && j < subs; j++ {
			txn.Put(fmt.Sprintf("imsi-%09d", j), store.Entry{
				"objectClass": {"subscriber"},
				"imsi":        {fmt.Sprintf("24001%09d", j)},
				"msisdn":      {fmt.Sprintf("4670%08d", j)},
				"cell":        {fmt.Sprintf("cell-%04d", j%4096)},
			})
		}
		if _, err := txn.Commit(); err != nil {
			return nil, err
		}
	}
	if err := log.Sync(); err != nil {
		return nil, err
	}
	provDur := time.Since(provStart)

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bytesPerSub := float64(int64(m1.HeapInuse)-int64(m0.HeapInuse)) / float64(subs)

	// Commit latency with no checkpoint running — the stall baseline.
	writeOne := func(i int, hist *metrics.Histogram) error {
		txn := st.Begin(store.ReadCommitted)
		txn.Put(fmt.Sprintf("imsi-%09d", i%subs), store.Entry{
			"objectClass": {"subscriber"},
			"imsi":        {fmt.Sprintf("24001%09d", i%subs)},
			"msisdn":      {fmt.Sprintf("4670%08d", i%subs)},
			"cell":        {fmt.Sprintf("cell-%04d", i%4096)},
		})
		start := time.Now()
		_, err := txn.Commit()
		hist.Record(time.Since(start))
		return err
	}
	var baseline metrics.Histogram
	for i := 0; i < 2000; i++ {
		if err := writeOne(i, &baseline); err != nil {
			return nil, err
		}
	}

	// Checkpoint with a writer hammering the same element: the image
	// streams off immutable entries while commits keep flowing, so
	// the writer's latency during the checkpoint IS the stall cost.
	var during metrics.Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := writeOne(i, &during); err != nil {
				writerErr = err
				return
			}
		}
	}()
	ckptStart := time.Now()
	ckptErr := log.Checkpoint(st)
	ckptDur := time.Since(ckptStart)
	close(stop)
	wg.Wait()
	if ckptErr != nil {
		return nil, ckptErr
	}
	if writerErr != nil {
		return nil, writerErr
	}
	cs := log.CheckpointStats()

	// Post-checkpoint traffic: the only records recovery may replay.
	suffix := 500
	for i := 0; i < suffix; i++ {
		txn := st.Begin(store.ReadCommitted)
		txn.Modify(fmt.Sprintf("imsi-%09d", i), store.Mod{
			Kind: store.ModReplace, Attr: "cell", Vals: []string{"cell-moved"},
		})
		if _, err := txn.Commit(); err != nil {
			return nil, err
		}
	}
	if err := log.Sync(); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}

	// Crash-restart: recover a fresh store from image + log suffix.
	recovered := store.New("e24")
	recStart := time.Now()
	rst, err := wal.RecoverWithStats(dir, recovered)
	if err != nil {
		return nil, err
	}
	recDur := time.Since(recStart)

	b := baseline.Snapshot()
	d := during.Snapshot()
	rep.AddRow("metric", "value")
	rep.AddRow("subscribers", fmt.Sprint(subs))
	rep.AddRow("provisioning", provDur.Round(time.Millisecond).String())
	rep.AddRow("resident bytes/subscriber", fmt.Sprintf("%.0f", bytesPerSub))
	rep.AddRow("checkpoint duration", ckptDur.Round(time.Millisecond).String())
	rep.AddRow("checkpoint image bytes", fmt.Sprint(cs.LastBytes))
	rep.AddRow("commit p50/p99 (no checkpoint)", fmt.Sprintf("%s / %s", b.P50, b.P99))
	rep.AddRow("commit p50/p99 (during checkpoint)", fmt.Sprintf("%s / %s", d.P50, d.P99))
	rep.AddRow("commits completed during checkpoint", fmt.Sprint(during.Count()))
	rep.AddRow("startup recovery", recDur.Round(time.Millisecond).String())
	rep.AddRow("recovery replayed/skipped", fmt.Sprintf("%d / %d", rst.Replayed, rst.Skipped))
	rep.AddRow("recovery image rows", fmt.Sprint(rst.SnapshotRows))

	// Claim-shape checks.
	rep.Check("image covers the full population", rst.SnapshotRows >= int64(subs))
	rep.Check("recovery replays only the post-checkpoint suffix",
		rst.Replayed >= suffix && rst.Replayed <= suffix+int(during.Count()))
	rep.Check("no pre-checkpoint record re-read", rst.Skipped == 0)
	rep.Check("recovered element matches (rows + CSN)",
		recovered.Len() == st.Len() && recovered.CSN() == st.CSN())
	// The stall itself is the printed p99 row; the gate is that commits
	// complete while the image streams, as in internal/wal's
	// TestCheckpointCommitsFlowDuringImage.
	rep.Check("commits flow during checkpoint", during.Count() > 0)
	rep.Check("resident layout stays compact", bytesPerSub > 0 && bytesPerSub < 4096)

	rep.Note("scale: %d subscribers (full runs default to 1M; UDR_E24_SUBS overrides up to 10M)", subs)
	rep.Note("commit-stall p99 during checkpoint: %s vs %s baseline over %d commits",
		d.P99, b.P99, during.Count())
	rep.Note("recovery is image + suffix: %d rows loaded, %d records replayed, %d skipped in %s",
		rst.SnapshotRows, rst.Replayed, rst.Skipped, recDur.Round(time.Millisecond))
	return rep, nil
}
