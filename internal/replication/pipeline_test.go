package replication

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
)

// deliveries wraps a slave's handler and counts what reaches it: every
// ApplyMsg in the handler at once (peak) and every delivery the slave
// rejected. hold keeps each ApplyMsg in the handler that long, so that
// every call in flight at the time is seen there; cut makes the slave
// refuse every ApplyMsg, as a gap-stuck peer does.
type deliveries struct {
	hold     time.Duration
	cut      atomic.Bool
	active   atomic.Int64
	peak     atomic.Int64
	rejected atomic.Int64
}

var errCut = errors.New("test: slave cut off")

// wrap re-registers the slave's address with a handler that counts
// deliveries before handing them to node.
func (d *deliveries) wrap(net *simnet.Network, node *Node) {
	net.Register(node.Addr(), func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
		if _, ok := msg.(*ApplyMsg); ok {
			n := d.active.Add(1)
			for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
			}
			if d.hold > 0 {
				time.Sleep(d.hold)
			}
			defer d.active.Add(-1)
			if d.cut.Load() {
				d.rejected.Add(1)
				return nil, errCut
			}
		}
		resp, _, err := node.HandleMessage(ctx, from, msg)
		if err != nil {
			d.rejected.Add(1)
		}
		return resp, err
	})
}

// commitConcurrently runs committers goroutines of n commits each on
// the rig's master and reports the first commit error.
func commitConcurrently(r *rig, committers, n int) error {
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for c := range committers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				txn := r.master.Store().Begin(store.ReadCommitted)
				txn.Put(fmt.Sprintf("c%d-k%d", c, i%16), store.Entry{"v": {fmt.Sprint(i)}})
				if _, err := txn.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestPipelinedStreamNeverGaps ships Quorum commits from 8 committers
// over a link whose jitter exceeds its latency, so batches overtake
// each other on the wire. Every batch carries the queue from the first
// unacknowledged record, so the slave never sees a CSN gap: no
// delivery is rejected and the slave ends at the master's head.
func TestPipelinedStreamNeverGaps(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	r.net.SetLink("eu", "us", simnet.Link{Latency: 50 * time.Microsecond, Jitter: 150 * time.Microsecond})
	var d deliveries
	d.wrap(r.net, r.nodes[1])
	r.master.SetDurability(Quorum)

	if err := commitConcurrently(r, 8, 500); err != nil {
		t.Fatalf("quorum commit: %v", err)
	}
	head := r.master.Store().CSN()
	if head != 8*500 {
		t.Fatalf("master head = %d, want %d", head, 8*500)
	}
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == head }, "slave reaches the master's head")
	if n := d.rejected.Load(); n != 0 {
		t.Fatalf("%d deliveries rejected, want 0", n)
	}
}

// TestPipelineWindowOpens: with 4 committers on a 2 ms RTT link, more
// than one batch is in flight to the peer at once, and never more
// than pipelineDepth.
func TestPipelineWindowOpens(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	r.net.SetLink("eu", "us", simnet.Link{Latency: time.Millisecond})
	d := deliveries{hold: time.Millisecond}
	d.wrap(r.net, r.nodes[1])
	r.master.SetDurability(Quorum)

	if err := commitConcurrently(r, 4, 25); err != nil {
		t.Fatalf("quorum commit: %v", err)
	}
	if p := d.peak.Load(); p < 2 || p > pipelineDepth {
		t.Fatalf("peak ApplyMsg calls in flight = %d, want 2..%d", p, pipelineDepth)
	}
	if n := d.rejected.Load(); n != 0 {
		t.Fatalf("%d deliveries rejected, want 0", n)
	}
}

// TestFailedShipCollapsesWindow: once a ship fails, one worker probes
// the peer and the others hold back until a ship succeeds, so a cut
// peer sees one call at a time. After the cut heals, the window
// reopens and the stream catches up with nothing rejected.
func TestFailedShipCollapsesWindow(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	r.net.SetLink("eu", "us", simnet.Link{Latency: time.Millisecond})
	d := deliveries{hold: time.Millisecond}
	d.wrap(r.net, r.nodes[1])

	d.cut.Store(true)
	r.commit(t, "first", "v")
	// A second refusal of the lone record means the first failure has
	// been recorded: only a retry resends a record already on the wire.
	waitFor(t, func() bool { return d.rejected.Load() >= 2 }, "the cut peer refuses a retry")
	d.peak.Store(0)
	if err := commitConcurrently(r, 4, 25); err != nil {
		t.Fatalf("async commit: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // let the probe run over the new backlog
	if p := d.peak.Load(); p != 1 {
		t.Fatalf("peak ApplyMsg calls in flight during the cut = %d, want 1", p)
	}

	cutRejects := d.rejected.Load()
	d.cut.Store(false)
	head := r.master.Store().CSN()
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == head }, "slave catches up after the cut")
	if n := d.rejected.Load() - cutRejects; n != 0 {
		t.Fatalf("%d deliveries rejected after the cut, want 0", n)
	}
}

// TestMultiMasterRedeliveryConverges delivers a multi-master origin's
// stream as overlapping prefix batches, shuffled, duplicated and
// merged concurrently, as pipelined workers may deliver them. The
// receiver ends with the same rows as one that merged each record
// once, in order.
func TestMultiMasterRedeliveryConverges(t *testing.T) {
	newMM := func(id string) (*Node, *Replica) {
		node := NewNode(nil, simnet.MakeAddr("eu", id))
		t.Cleanup(node.Stop)
		st := store.New(id)
		st.SetMultiMaster(true)
		return node, node.AddReplica("p", st)
	}
	_, origin := newMM("origin")
	var recs []*store.CommitRecord
	rng := rand.New(rand.NewSource(3))
	for i := range 200 {
		txn := origin.Store().Begin(store.ReadCommitted)
		key := fmt.Sprintf("k%d", rng.Intn(8))
		if rng.Intn(5) == 0 {
			txn.Delete(key)
		} else {
			txn.Put(key, store.Entry{"v": {fmt.Sprint(i)}})
		}
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}

	refNode, ref := newMM("ref")
	if _, _, err := refNode.HandleMessage(context.Background(), "eu/origin",
		&MMApplyMsg{Partition: "p", Recs: recs}); err != nil {
		t.Fatal(err)
	}

	for run := range 20 {
		node, rep := newMM(fmt.Sprintf("r%d", run))
		var batches [][]*store.CommitRecord
		for range 40 {
			batches = append(batches, recs[:1+rng.Intn(len(recs))])
		}
		batches = append(batches, recs, recs)
		rng.Shuffle(len(batches), func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		var wg sync.WaitGroup
		next := make(chan []*store.CommitRecord)
		for range pipelineDepth {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var msg MMApplyMsg
				for b := range next {
					msg = MMApplyMsg{Partition: "p", Recs: b}
					if _, _, err := node.HandleMessage(context.Background(), "eu/origin", &msg); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		for _, b := range batches {
			next <- b
		}
		close(next)
		wg.Wait()
		if !storesEqual(ref.Store(), rep.Store()) {
			t.Fatalf("run %d: re-delivered and reordered batches diverged from in-order delivery", run)
		}
		for _, rec := range recs {
			for _, op := range rec.Ops {
				want, _ := ref.Store().MetaOf(op.Key)
				got, _ := rep.Store().MetaOf(op.Key)
				if got.VC.Compare(want.VC) != 0 || got.Tombstone != want.Tombstone {
					t.Fatalf("run %d: %s version %v, want %v", run, op.Key, got, want)
				}
			}
		}
	}
}

// TestShipAllocs gates a steady-state sender round trip: enqueue, cut
// the batch, ship it through simnet as a worker-owned message, apply it
// at the slave and take the ack. None of it allocates.
func TestShipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	r := newRig(t, 1, "eu", "us")
	r.master.mu.Lock()
	s := r.master.senders[r.nodes[1].Addr()]
	r.master.mu.Unlock()
	const warm, runs = 100, 500
	recs := make([]*store.CommitRecord, warm+runs+1)
	for i := range recs {
		recs[i] = &store.CommitRecord{CSN: uint64(i + 1)}
	}
	next := 0
	ship := func() {
		rec := recs[next]
		next++
		s.enqueue(rec)
		for s.ackedCSN() < rec.CSN {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for range warm {
		ship()
	}
	if got := testing.AllocsPerRun(runs, ship); got != 0 {
		t.Errorf("ship round trip = %.2f allocs, want 0", got)
	}
	if applied := r.slaves[0].Store().AppliedCSN(); applied != uint64(next) {
		t.Fatalf("slave applied %d, want %d", applied, next)
	}
}
