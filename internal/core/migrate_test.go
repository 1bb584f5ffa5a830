package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rebalance"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

// migrationUDR builds a two-site, two-SE-per-site UDR (so every
// partition has elements hosting no replica — eligible migration
// targets) and seeds n subscribers pinned onto one partition. It
// returns the loaded partition and an element hosting no replica of
// it.
func migrationUDR(t *testing.T, n int, mutate ...func(*Config)) (*simnet.Network, *UDR, string, string, []*subscriber.Profile) {
	t.Helper()
	net := simnet.New(simnet.FastConfig())
	cfg := DefaultConfig()
	cfg.Sites = []SiteSpec{
		{Name: "eu-south", SEs: 2, PartitionsPerSE: 1},
		{Name: "eu-north", SEs: 2, PartitionsPerSE: 1},
	}
	cfg.ReplicationFactor = 2
	for _, m := range mutate {
		m(&cfg)
	}
	u, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)

	partID := "p-eu-south-0"
	ps := NewSession(net, simnet.MakeAddr("eu-south", "seed-ps"), "eu-south", PolicyPS)
	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 0; i < n; i++ {
		p := gen.Profile(i)
		if _, err := ps.ProvisionAt(ctxT(t), p, partID); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}

	part, _ := u.Partition(partID)
	hosted := make(map[string]bool)
	for _, ref := range part.Replicas {
		hosted[ref.Element] = true
	}
	target := ""
	for _, elID := range u.Elements() {
		if !hosted[elID] {
			target = elID
			break
		}
	}
	if target == "" {
		t.Fatal("no eligible migration target in topology")
	}
	return net, u, partID, target, profiles
}

// TestMigrateMovesMaster pins the basic move: rows arrive, the target
// becomes the table master with a bumped epoch, the source demotes to
// a serving slave, and reads and writes keep working afterwards.
func TestMigrateMovesMaster(t *testing.T) {
	net, u, partID, target, profiles := migrationUDR(t, 40)
	before, _ := u.Partition(partID)
	source := before.Master().Element

	rep, err := u.MigratePartition(ctxT(t), partID, target, false)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if rep.Phase != rebalance.PhaseDone || rep.Aborted {
		t.Fatalf("report = %+v", rep)
	}
	if rep.RowsCopied != 40 {
		t.Fatalf("rows copied = %d, want 40", rep.RowsCopied)
	}

	after, _ := u.Partition(partID)
	if after.Master().Element != target {
		t.Fatalf("master = %s, want %s", after.Master().Element, target)
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", after.Epoch, before.Epoch+1)
	}
	if got := u.Element(target).Replica(partID).Store.Role(); got != store.Master {
		t.Fatalf("target role = %v", got)
	}
	if got := u.Element(source).Replica(partID).Store.Role(); got != store.Slave {
		t.Fatalf("source role = %v", got)
	}
	// The demoted source must still appear in the replica set and
	// follow the new master's stream.
	found := false
	for _, ref := range after.Replicas[1:] {
		if ref.Element == source {
			found = true
		}
	}
	if !found {
		t.Fatalf("source %s missing from replica set %v", source, after.Replicas)
	}

	// Traffic after the move: a write through the PoA lands on the new
	// master and replicates back to the demoted source.
	ps := NewSession(net, simnet.MakeAddr("eu-south", "post-ps"), "eu-south", PolicyPS)
	p0 := profiles[0]
	if _, err := ps.Modify(ctxT(t), subscriber.Identity{Type: subscriber.UID, Value: p0.ID},
		store.Mod{Kind: store.ModReplace, Attr: "postMove", Vals: []string{"yes"}}); err != nil {
		t.Fatalf("post-move write: %v", err)
	}
	if err := u.WaitReplication(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	e, _, ok := u.Element(source).Replica(partID).Store.GetCommitted(p0.ID)
	if !ok || e.First("postMove") != "yes" {
		t.Fatalf("demoted source did not follow the new master's stream: %v", e)
	}
}

// TestMigrateUnderLoad is the acceptance bar: the master moves while
// concurrent FE/PS traffic hammers the partition, with zero lost
// acknowledged writes and zero client-visible errors — stale-epoch
// referrals and the bounded cutover freeze are absorbed by the PoA's
// placement-refresh retry.
func TestMigrateUnderLoad(t *testing.T) {
	net, u, partID, target, profiles := migrationUDR(t, 24)
	ctx := ctxT(t)

	type acked struct {
		mu   sync.Mutex
		last string
	}
	ackedVals := make([]acked, len(profiles))
	var wg sync.WaitGroup
	var writeErrs, readErrs atomic32
	stop := make(chan struct{})

	// Clients pace themselves: simnet spins sub-millisecond latencies,
	// so unthrottled tight loops would starve the migrator (and every
	// other goroutine) on small CI machines.
	const pace = time.Millisecond
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := NewSession(net, simnet.MakeAddr("eu-south", fmt.Sprintf("load-ps-%d", w)), "eu-south", PolicyPS)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(pace):
				}
				key := w + writers*(i%(len(profiles)/writers)) // disjoint key sets per writer
				val := fmt.Sprintf("w%d-i%d", w, i)
				_, err := sess.Exec(ctx, ExecReq{
					SubscriberID: profiles[key].ID,
					Partition:    partID,
					Ops: []se.TxnOp{{Kind: se.TxnModify, Key: profiles[key].ID,
						Mods: []store.Mod{{Kind: store.ModReplace, Attr: "loadVal", Vals: []string{val}}}}},
				})
				if err != nil {
					writeErrs.inc()
					continue
				}
				ackedVals[key].mu.Lock()
				ackedVals[key].last = val
				ackedVals[key].mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 1; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := NewSession(net, simnet.MakeAddr("eu-north", fmt.Sprintf("load-fe-%d", r)), "eu-north", PolicyFE)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(pace):
				}
				_, err := sess.Exec(ctx, ExecReq{
					SubscriberID: profiles[i%len(profiles)].ID,
					Partition:    partID,
					Ops:          []se.TxnOp{{Kind: se.TxnGet}},
				})
				if err != nil {
					readErrs.inc()
				}
			}
		}(r)
	}

	time.Sleep(20 * time.Millisecond) // let traffic build
	rep, err := u.MigratePartition(ctx, partID, target, false)
	time.Sleep(20 * time.Millisecond) // traffic across the new placement
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	if rep.FreezeDuration > 500*time.Millisecond {
		t.Fatalf("freeze window %v exceeds the configured bound", rep.FreezeDuration)
	}
	if we, re := writeErrs.load(), readErrs.load(); we != 0 || re != 0 {
		t.Fatalf("client-visible errors during migration: %d writes, %d reads", we, re)
	}

	// Zero lost acknowledged writes: the new master must hold, for
	// every key, the last acknowledged value (writes are sequential
	// per key, so a trailing unacknowledged attempt is the only other
	// legal value — and there is none, since no write errored).
	st := u.Element(target).Replica(partID).Store
	for k := range profiles {
		ackedVals[k].mu.Lock()
		want := ackedVals[k].last
		ackedVals[k].mu.Unlock()
		if want == "" {
			continue
		}
		e, _, ok := st.GetCommitted(profiles[k].ID)
		if !ok {
			t.Fatalf("key %s vanished across migration", profiles[k].ID)
		}
		if got := e.First("loadVal"); got != want {
			t.Fatalf("key %s: acknowledged write lost: master has %q, last ack was %q",
				profiles[k].ID, got, want)
		}
	}
	t.Logf("moved %d rows, catch-up %d records, freeze %v, 0 client errors",
		rep.RowsCopied, rep.CatchUpRecords, rep.FreezeDuration)
}

// atomic32 is a tiny test counter.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// TestMigrateAbortMatrix aborts a migration at every pre-commit phase
// boundary and asserts the invariant the design doc promises: the
// source stays authoritative, the target holds no replica, the epoch
// does not move, and traffic keeps flowing.
func TestMigrateAbortMatrix(t *testing.T) {
	cases := []struct {
		name  string
		phase rebalance.Phase
		hooks func(net *simnet.Network) rebalance.Hooks
	}{
		{"mid-copy", rebalance.PhaseCopy, func(net *simnet.Network) rebalance.Hooks {
			// Cut before the move starts: the first row batch fails.
			net.Partition([]string{"eu-north"})
			return rebalance.Hooks{}
		}},
		{"mid-catch-up", rebalance.PhaseCatchUp, func(net *simnet.Network) rebalance.Hooks {
			return rebalance.Hooks{AfterCopy: func() {
				net.Partition([]string{"eu-north"})
			}}
		}},
		{"mid-cutover", rebalance.PhaseCutover, func(net *simnet.Network) rebalance.Hooks {
			return rebalance.Hooks{BeforeCutover: func() {
				net.Partition([]string{"eu-north"})
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, u, partID, _, profiles := migrationUDR(t, 12, func(c *Config) {
				c.MigrateCatchUpTimeout = 50 * time.Millisecond
				c.MigrateFreezeTimeout = 20 * time.Millisecond
			})
			// Force a cross-site target so the cut severs the move.
			target := "se-eu-north-1"
			before, _ := u.Partition(partID)
			source := before.Master().Element

			rep, err := u.MigratePartition(ctxT(t), partID, target, false,
				WithMigrateHooks(tc.hooks(net)))
			if !errors.Is(err, rebalance.ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			if rep.Phase != tc.phase {
				t.Fatalf("aborted at %s, want %s", rep.Phase, tc.phase)
			}
			net.Heal()

			after, _ := u.Partition(partID)
			if after.Master().Element != source {
				t.Fatalf("master moved to %s despite abort", after.Master().Element)
			}
			if after.Epoch != before.Epoch {
				t.Fatalf("epoch moved %d -> %d despite abort", before.Epoch, after.Epoch)
			}
			if u.Element(target).Replica(partID) != nil {
				t.Fatal("aborted target still hosts a replica")
			}
			if got := u.Element(source).Replica(partID).Store.Role(); got != store.Master {
				t.Fatalf("source role = %v after abort", got)
			}
			// The cluster still serves and converges.
			ps := NewSession(net, simnet.MakeAddr("eu-south", "abort-ps"), "eu-south", PolicyPS)
			if _, err := ps.Modify(ctxT(t), subscriber.Identity{Type: subscriber.UID, Value: profiles[0].ID},
				store.Mod{Kind: store.ModReplace, Attr: "postAbort", Vals: []string{"ok"}}); err != nil {
				t.Fatalf("write after abort: %v", err)
			}
			if err := u.WaitReplication(ctxT(t)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigrateRelease retires the source replica: it leaves the table
// and the element, and its on-disk state is gone.
func TestMigrateRelease(t *testing.T) {
	net, u, partID, target, profiles := migrationUDR(t, 10)
	before, _ := u.Partition(partID)
	source := before.Master().Element

	rep, err := u.MigratePartition(ctxT(t), partID, target, true)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !rep.Released {
		t.Fatalf("report = %+v, want Released", rep)
	}
	if u.Element(source).Replica(partID) != nil {
		t.Fatal("released source still hosts the replica")
	}
	after, _ := u.Partition(partID)
	for _, ref := range after.Replicas {
		if ref.Element == source {
			t.Fatalf("released source still in the table: %v", after.Replicas)
		}
	}
	if after.HomeSite != u.Element(target).Site() {
		t.Fatalf("home site = %s, want the target's", after.HomeSite)
	}
	// The moved partition still serves all its rows.
	fe := NewSession(net, simnet.MakeAddr("eu-north", "rel-fe"), "eu-north", PolicyFE)
	for _, p := range profiles {
		got, _, _, err := fe.ReadProfile(ctxT(t), subscriber.Identity{Type: subscriber.UID, Value: p.ID})
		if err != nil || got.ID != p.ID {
			t.Fatalf("read %s after release: %v", p.ID, err)
		}
	}
}

// TestMigrateValidation pins the control-plane error classes: unknown
// partition and element, a target already hosting a replica, a move
// onto the current master, and the in-flight conflict.
func TestMigrateValidation(t *testing.T) {
	_, u, partID, target, _ := migrationUDR(t, 4)
	ctx := ctxT(t)
	part, _ := u.Partition(partID)

	if _, err := u.MigratePartition(ctx, "p-nope", target, false); err == nil ||
		!strings.Contains(err.Error(), "unknown partition") {
		t.Fatalf("unknown partition: %v", err)
	}
	if _, err := u.MigratePartition(ctx, partID, "se-nope", false); err == nil ||
		!strings.Contains(err.Error(), "unknown element") {
		t.Fatalf("unknown element: %v", err)
	}
	if _, err := u.MigratePartition(ctx, partID, part.Replicas[1].Element, false); !errors.Is(err, rebalance.ErrConflict) {
		t.Fatalf("target hosts replica: %v", err)
	}
	if _, err := u.MigratePartition(ctx, partID, part.Master().Element, false); err == nil {
		t.Fatal("move onto the current master accepted")
	}

	// In-flight conflict: hold a migration open at the copy boundary.
	hold := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := u.MigratePartition(ctx, partID, target, false,
			WithMigrateHooks(rebalance.Hooks{AfterCopy: func() {
				close(entered)
				<-hold
			}}))
		done <- err
	}()
	<-entered
	if _, err := u.MigratePartition(ctx, partID, target, false); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("in-flight conflict: %v", err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held migration failed: %v", err)
	}
}

// TestMigrateStaleEpochReferral pins the referral path: after a move,
// a request stamped with the old epoch gets the retryable
// ErrStalePlacement from any replica instead of being served.
func TestMigrateStaleEpochReferral(t *testing.T) {
	net, u, partID, target, profiles := migrationUDR(t, 4)
	before, _ := u.Partition(partID)
	staleEpoch := before.Epoch
	oldMaster := before.Master()

	if _, err := u.MigratePartition(ctxT(t), partID, target, false); err != nil {
		t.Fatal(err)
	}
	_, err := net.Call(ctxT(t), simnet.MakeAddr("eu-south", "stale-cli"), oldMaster.Addr, &se.TxnCall{Req: se.TxnReq{
		Partition: partID,
		Epoch:     staleEpoch,
		Ops:       []se.TxnOp{{Kind: se.TxnGet, Key: profiles[0].ID}},
	}})
	if !errors.Is(err, se.ErrStalePlacement) {
		t.Fatalf("stale-epoch request got %v, want ErrStalePlacement", err)
	}
}

// TestRebalanceAfterAddSite pins the scale-out placement gap fix: a
// site added with RebalanceOnAddSite takes over existing master
// partitions, not just future subscribers.
func TestRebalanceAfterAddSite(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	cfg := DefaultConfig()
	cfg.Sites = []SiteSpec{{Name: "eu-south", SEs: 1, PartitionsPerSE: 4}}
	cfg.ReplicationFactor = 1
	cfg.RebalanceOnAddSite = true
	u, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < 120; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := u.AddSite(ctxT(t), SiteSpec{Name: "apac", SEs: 1, PartitionsPerSE: 1}); err != nil {
		t.Fatal(err)
	}
	newEl := u.Element("se-apac-0")
	masters := 0
	rows := 0
	for _, partID := range newEl.Partitions() {
		pr := newEl.Replica(partID)
		if pr.Store.Role() == store.Master {
			masters++
			rows += pr.Store.Len()
		}
	}
	// Its own fresh (empty) home partition plus at least one migrated
	// loaded partition.
	if masters < 2 || rows == 0 {
		t.Fatalf("new site took %d masters / %d rows; rebalance did not move load", masters, rows)
	}
	// Reads of migrated subscribers still resolve through the maps.
	fe := NewSession(net, simnet.MakeAddr("apac", "fe"), "apac", PolicyFE)
	if _, _, _, err := fe.ReadProfile(ctxT(t), subscriber.Identity{Type: subscriber.UID, Value: gen.Profile(0).ID}); err != nil {
		t.Fatalf("read after rebalance: %v", err)
	}
}

// TestRebalanceBalanced pins the no-op: a balanced cluster plans no
// moves.
func TestRebalanceBalanced(t *testing.T) {
	_, u, _ := testUDR(t, 30)
	res, err := u.Rebalance(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 0 {
		t.Fatalf("balanced cluster planned %v", res.Plan)
	}
}
