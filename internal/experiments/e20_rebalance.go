package experiments

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

func init() {
	register("E20", "Live partition migration: cost vs size and write rate, freeze window, abort safety",
		"§3.4.2, §3.5 (rebalancing extension)", runE20)
}

// runE20 measures what the paper's scale-out story leaves implicit:
// the cost of *re*-placing a partition under live signalling load.
// For each partition size × write rate × durability cell it migrates
// a loaded partition's master cross-site while paced writers hammer
// it, and reports rows shipped, catch-up records, the client-visible
// write-freeze window and the error/loss tally. An aborted migration
// (backbone cut mid-move) must leave the source authoritative.
func runE20(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E20", "Live partition migration: cost vs size and write rate, freeze window, abort safety")

	sizes := []int{40, 160}
	if !opts.Quick {
		sizes = []int{200, 800}
	}
	rep.AddRow("rows", "writers", "durability", "shipped", "catch-up", "freeze", "errors", "lost")

	var shippedBySize []int
	lostTotal := 0
	for _, rows := range sizes {
		for _, writers := range []int{0, 2} {
			for _, durability := range []replication.Durability{replication.Async, replication.SyncAll} {
				cell, err := migrateCell(ctx, opts, rows, writers, durability)
				if err != nil {
					return nil, fmt.Errorf("e20: rows=%d writers=%d durability=%s: %w", rows, writers, durability, err)
				}
				rep.AddRow(fmt.Sprint(rows), fmt.Sprint(writers), durability.String(),
					fmt.Sprint(cell.shipped), fmt.Sprint(cell.catchUp),
					cell.freeze.Round(10*time.Microsecond).String(),
					fmt.Sprint(cell.clientErrs), fmt.Sprint(cell.lost))
				lostTotal += cell.lost
				if writers == 0 && durability == replication.Async {
					shippedBySize = append(shippedBySize, cell.shipped)
				}
			}
		}
	}

	rep.Check("zero lost acknowledged writes across every cutover", lostTotal == 0)
	rep.Check("migration cost grows with partition size",
		len(shippedBySize) == 2 && shippedBySize[1] > shippedBySize[0])

	// Abort safety: cut the backbone under the target mid-move; the
	// source must stay authoritative and keep serving writes.
	abortOK, err := migrateAbortCase(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("e20 abort case: %w", err)
	}
	rep.Check("aborted migration leaves source authoritative and serving", abortOK)
	rep.Note("migration = bulk copy (stream over backbone) + live-stream catch-up + bounded cutover freeze; see DESIGN.md Rebalancing")
	rep.Note("the freeze column is printed, not gated: the migrator's freeze deadline bounds it, and a target that misses the deadline aborts the move and fails its cell")
	rep.Note("writers are paced (1ms); 'errors' are client-visible failures during the move — stale-epoch referrals are retried inside the PoA and do not surface")
	return rep, nil
}

type migrateCellResult struct {
	shipped    int
	catchUp    uint64
	freeze     time.Duration
	clientErrs int
	lost       int
}

// migrateUDR builds the two-site, two-SE-per-site migration topology
// and loads rows subscribers onto p-eu-south-0.
func migrateUDR(ctx context.Context, opts Options, rows int, durability replication.Durability) (*simnet.Network, *core.UDR, []*subscriber.Profile, string, string, error) {
	net := simnet.New(netConfig(opts))
	cfg := core.DefaultConfig()
	cfg.Sites = []core.SiteSpec{
		{Name: "eu-south", SEs: 2, PartitionsPerSE: 1},
		{Name: "eu-north", SEs: 2, PartitionsPerSE: 1},
	}
	cfg.ReplicationFactor = 2
	cfg.Durability = durability
	u, err := core.New(net, cfg)
	if err != nil {
		return nil, nil, nil, "", "", err
	}
	const partID = "p-eu-south-0"
	ps := core.NewSession(net, simnet.MakeAddr("eu-south", "e20-seed"), "eu-south", core.PolicyPS)
	gen := subscriber.NewGenerator(u.Sites()...)
	profiles := make([]*subscriber.Profile, 0, rows)
	for i := 0; i < rows; i++ {
		p := gen.Profile(i)
		if _, err := ps.ProvisionAt(ctx, p, partID); err != nil {
			u.Stop()
			return nil, nil, nil, "", "", err
		}
		profiles = append(profiles, p)
	}
	return net, u, profiles, partID, "se-eu-north-1", nil
}

func migrateCell(ctx context.Context, opts Options, rows, writers int, durability replication.Durability) (*migrateCellResult, error) {
	net, u, profiles, partID, target, err := migrateUDR(ctx, opts, rows, durability)
	if err != nil {
		return nil, err
	}
	defer u.Stop()

	type keyState struct {
		mu    sync.Mutex
		acked int // highest acknowledged sequence number
	}
	states := make([]keyState, len(profiles))
	var errsMu sync.Mutex
	clientErrs := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := core.NewSession(net, simnet.MakeAddr("eu-south", fmt.Sprintf("e20-w%d", w)), "eu-south", core.PolicyPS)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				key := w + writers*(i%(len(profiles)/writers))
				_, err := sess.Exec(ctx, core.ExecReq{
					SubscriberID: profiles[key].ID,
					Partition:    partID,
					Ops: []se.TxnOp{{Kind: se.TxnModify, Key: profiles[key].ID,
						Mods: []store.Mod{{Kind: store.ModReplace, Attr: "e20seq",
							Vals: []string{fmt.Sprintf("%06d", i)}}}}},
				})
				if err != nil {
					errsMu.Lock()
					clientErrs++
					errsMu.Unlock()
					continue
				}
				states[key].mu.Lock()
				if i > states[key].acked {
					states[key].acked = i
				}
				states[key].mu.Unlock()
			}
		}(w)
	}
	if writers > 0 {
		time.Sleep(15 * time.Millisecond)
	}

	mrep, err := u.MigratePartition(ctx, partID, target, false)
	if writers > 0 {
		time.Sleep(15 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Lost-acknowledged-write audit: the new master must hold, per
	// key, a sequence number at least as high as the last the client
	// saw acknowledged (writes are sequential per key, so a higher
	// number is a trailing in-flight write, never a reordering).
	lost := 0
	st := u.Element(target).Replica(partID).Store
	for k := range profiles {
		states[k].mu.Lock()
		acked := states[k].acked
		states[k].mu.Unlock()
		if acked == 0 {
			continue
		}
		e, _, ok := st.GetCommitted(profiles[k].ID)
		got := 0
		if ok {
			got, _ = strconv.Atoi(e.First("e20seq"))
		}
		if got < acked {
			lost++
		}
	}
	return &migrateCellResult{
		shipped:    mrep.RowsCopied,
		catchUp:    mrep.CatchUpRecords,
		freeze:     mrep.FreezeDuration,
		clientErrs: clientErrs,
		lost:       lost,
	}, nil
}

// migrateAbortCase cuts the backbone under the target mid-move and
// verifies the abort contract: source still master, target holds no
// replica, and a write through the PoA still succeeds.
func migrateAbortCase(ctx context.Context, opts Options) (bool, error) {
	net, u, profiles, partID, target, err := migrateUDR(ctx, opts, 30, replication.Async)
	if err != nil {
		return false, err
	}
	defer u.Stop()
	before, _ := u.Partition(partID)

	net.Partition([]string{"eu-north"})
	_, err = u.MigratePartition(ctx, partID, target, false)
	net.Heal()
	if err == nil {
		return false, fmt.Errorf("migration across a backbone cut did not abort")
	}
	after, _ := u.Partition(partID)
	if after.Master().Element != before.Master().Element || after.Epoch != before.Epoch {
		return false, nil
	}
	if u.Element(target).Replica(partID) != nil {
		return false, nil
	}
	ps := core.NewSession(net, simnet.MakeAddr("eu-south", "e20-abort"), "eu-south", core.PolicyPS)
	if _, err := ps.Modify(ctx, subscriber.Identity{Type: subscriber.UID, Value: profiles[0].ID},
		store.Mod{Kind: store.ModReplace, Attr: "postAbort", Vals: []string{"ok"}}); err != nil {
		return false, err
	}
	return true, nil
}
