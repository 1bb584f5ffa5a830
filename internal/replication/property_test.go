package replication

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

// mmWrite is one generated write in the multi-master convergence
// property test.
type mmWrite struct {
	Replica uint8 // which replica accepts the write
	Key     uint8 // %6 keys
	Attr    uint8 // %3 attrs
	Val     uint8
	Delete  bool
}

// applyDirect commits one write locally on a multi-master store.
func applyDirect(st *store.Store, w mmWrite) error {
	txn := st.Begin(store.ReadCommitted)
	key := fmt.Sprintf("k%d", w.Key%6)
	if w.Delete {
		txn.Delete(key)
	} else {
		txn.Put(key, store.Entry{
			fmt.Sprintf("a%d", w.Attr%3): {fmt.Sprint(w.Val)},
		})
	}
	_, err := txn.Commit()
	return err
}

// TestMultiMasterMergeConvergesProperty: three fully partitioned
// multi-master replicas accept arbitrary writes independently; after
// pairwise pull-based anti-entropy runs to fixpoint, all replicas
// hold identical state — for any write interleaving. This is the §5
// consistency-restoration contract: deterministic resolvers guarantee
// one single view regardless of merge order.
func TestMultiMasterMergeConvergesProperty(t *testing.T) {
	// Replicas are built through the package constructor with no
	// network attached; merges are driven in-process via
	// buildSyncResp/mergeRow, which is exactly what SyncWith
	// exchanges over the wire.
	g := func(writes []mmWrite) bool {
		const replicas = 3
		nodes := make([]*Node, replicas)
		reps := make([]*Replica, replicas)
		for i := range reps {
			nodes[i] = NewNode(nil, "")
			st := store.New(fmt.Sprintf("r%d", i))
			st.SetMultiMaster(true)
			reps[i] = nodes[i].AddReplica("p", st)
			reps[i].SetResolver(LWW{})
		}
		defer func() {
			for _, n := range nodes {
				n.Stop()
			}
		}()

		// Fully partitioned: writes land only on their replica.
		for _, w := range writes {
			if err := applyDirect(reps[w.Replica%replicas].Store(), w); err != nil {
				return false
			}
		}

		// Anti-entropy to fixpoint: every replica pulls every other
		// replica's dominant rows (the in-process equivalent of
		// SyncWith), twice to propagate transitively.
		for round := 0; round < 2; round++ {
			for i := range reps {
				for j := range reps {
					if i == j {
						continue
					}
					resp := reps[j].buildSyncResp(reps[i].Store().AllMeta())
					for _, row := range resp.Rows {
						reps[i].mergeRow(row)
					}
				}
			}
		}

		// All replicas identical (live rows and tombstones).
		for i := 1; i < replicas; i++ {
			if !storesEqual(reps[0].Store(), reps[i].Store()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// storesEqual compares the live contents of two stores.
func storesEqual(a, b *store.Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	var keys []string
	a.ForEach(func(k string, _ store.Entry, _ store.Meta) bool {
		keys = append(keys, k)
		return true
	})
	for _, k := range keys {
		ae, _, _ := a.GetCommitted(k)
		be, _, ok := b.GetCommitted(k)
		if !ok || !ae.Equal(be) {
			return false
		}
	}
	return true
}

// TestMergeRowIdempotentProperty: merging the same incoming row twice
// leaves the same state as merging it once.
func TestMergeRowIdempotentProperty(t *testing.T) {
	f := func(val1, val2 uint8, ts1, ts2 uint16) bool {
		node := NewNode(nil, "")
		defer node.Stop()
		st := store.New("local")
		st.SetMultiMaster(true)
		rep := node.AddReplica("p", st)
		rep.SetResolver(LWW{})

		// Seed a local version.
		txn := st.Begin(store.ReadCommitted)
		txn.Put("k", store.Entry{"v": {fmt.Sprint(val1)}})
		if _, err := txn.Commit(); err != nil {
			return false
		}

		incoming := RowTransfer{
			Key:   "k",
			Entry: store.Entry{"v": {fmt.Sprint(val2)}},
			Meta: store.Meta{
				WallTS: int64(ts2),
				VC:     map[string]uint64{"peer": uint64(ts1)%5 + 1},
			},
		}
		rep.mergeRow(incoming)
		after1, _, _ := st.GetAny("k")
		m1, _ := st.MetaOf("k")
		rep.mergeRow(incoming)
		after2, _, _ := st.GetAny("k")
		m2, _ := st.MetaOf("k")
		return after1.Equal(after2) && m1.VC.Compare(m2.VC) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
