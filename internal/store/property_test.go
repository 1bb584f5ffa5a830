package store

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// oracleOp is a generated operation for the model-based property
// tests.
type oracleOp struct {
	Kind   uint8 // %4: put, modify, delete, commit-split
	Key    uint8 // %8 keys
	Attr   uint8 // %4 attrs
	Val    uint8
	Delete bool
}

// TestStoreMatchesOracleProperty drives random committed transactions
// against a map-based oracle: after every commit the store's
// committed state must equal the oracle exactly.
func TestStoreMatchesOracleProperty(t *testing.T) {
	f := func(ops []oracleOp) bool {
		s := New("prop")
		oracle := map[string]Entry{}

		txn := s.Begin(ReadCommitted)
		pending := map[string]Entry{} // oracle's view of the open txn
		for k, v := range oracle {
			_ = k
			_ = v
		}
		snapshot := func() map[string]Entry {
			out := make(map[string]Entry, len(oracle))
			for k, v := range oracle {
				out[k] = v.Clone()
			}
			return out
		}
		base := snapshot()

		commit := func() bool {
			if _, err := txn.Commit(); err != nil {
				return false
			}
			for k, v := range pending {
				if v == nil {
					delete(oracle, k)
				} else {
					oracle[k] = v.Clone()
				}
			}
			// Committed state must match the oracle.
			if s.Len() != len(oracle) {
				return false
			}
			for k, want := range oracle {
				got, _, ok := s.GetCommitted(k)
				if !ok || !got.Equal(want) {
					return false
				}
			}
			txn = s.Begin(ReadCommitted)
			pending = map[string]Entry{}
			base = snapshot()
			return true
		}

		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%8)
			attr := fmt.Sprintf("a%d", op.Attr%4)
			val := fmt.Sprint(op.Val)
			switch op.Kind % 4 {
			case 0: // put
				e := Entry{attr: {val}}
				txn.Put(key, e)
				pending[key] = e.Clone()
			case 1: // modify (replace one attr)
				txn.Modify(key, Mod{Kind: ModReplace, Attr: attr, Vals: []string{val}})
				var cur Entry
				if p, ok := pending[key]; ok && p != nil {
					cur = p.Clone()
				} else if p, ok := pending[key]; ok && p == nil {
					cur = Entry{} // deleted in txn; modify recreates
				} else if b, ok := base[key]; ok {
					cur = b.Clone()
				} else {
					cur = Entry{}
				}
				cur[attr] = []string{val}
				pending[key] = cur
			case 2: // delete
				txn.Delete(key)
				pending[key] = nil
			case 3: // commit and start a new transaction
				if !commit() {
					return false
				}
			}
		}
		return commit()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCSNStrictlyIncreasesProperty: every non-empty commit advances
// the CSN by exactly one, regardless of the op mix.
func TestCSNStrictlyIncreasesProperty(t *testing.T) {
	f := func(batches [][3]uint8) bool {
		s := New("prop")
		want := uint64(0)
		for _, b := range batches {
			txn := s.Begin(ReadCommitted)
			txn.Put(fmt.Sprintf("k%d", b[0]%4), Entry{"v": {fmt.Sprint(b[1])}})
			if b[2]%2 == 0 {
				txn.Delete(fmt.Sprintf("k%d", b[2]%4))
			}
			rec, err := txn.Commit()
			if err != nil {
				return false
			}
			want++
			if rec.CSN != want || s.CSN() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaConvergenceProperty: applying the master's records in
// order onto a fresh slave reproduces the master state exactly, for
// arbitrary op mixes (the §3.2 serialization-order guarantee).
func TestReplicaConvergenceProperty(t *testing.T) {
	f := func(ops []oracleOp) bool {
		master := New("m")
		slave := New("s")
		slave.SetRole(Slave)

		var recs []*CommitRecord
		txn := master.Begin(ReadCommitted)
		dirty := false
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%8)
			switch op.Kind % 4 {
			case 0:
				txn.Put(key, Entry{fmt.Sprintf("a%d", op.Attr%4): {fmt.Sprint(op.Val)}})
				dirty = true
			case 1:
				txn.Modify(key, Mod{Kind: ModAdd, Attr: fmt.Sprintf("a%d", op.Attr%4), Vals: []string{fmt.Sprint(op.Val)}})
				dirty = true
			case 2:
				txn.Delete(key)
				dirty = true
			case 3:
				rec, err := txn.Commit()
				if err != nil {
					return false
				}
				if rec != nil {
					recs = append(recs, rec)
				}
				txn = master.Begin(ReadCommitted)
				dirty = false
			}
		}
		if dirty {
			rec, err := txn.Commit()
			if err != nil {
				return false
			}
			if rec != nil {
				recs = append(recs, rec)
			}
		}

		for _, rec := range recs {
			if err := slave.ApplyReplicated(rec); err != nil {
				return false
			}
		}
		// Live state equal.
		if master.Len() != slave.Len() {
			return false
		}
		for _, k := range liveKeys(master) {
			me, _, _ := master.GetCommitted(k)
			se, _, ok := slave.GetCommitted(k)
			if !ok || !me.Equal(se) {
				return false
			}
		}
		return slave.AppliedCSN() == master.CSN()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// modStep is one generated modification in the post-image
// immutability property test.
type modStep struct {
	Kind uint8 // %3: add, replace, delete
	Attr uint8 // %4 attrs, a3 absent from the seeded row
	Vals uint8 // %3 values (0: a value-less replace or delete)
	Val  uint8 // %4: overlaps the seeded values
	Read bool  // also hold an open Txn's image of another mod
}

// TestPostImageImmutableProperty: modify post-images share value
// slices with the version they replace, so a mod must never write into
// a slice it did not allocate. The row is seeded with slices that have
// spare capacity — where an in-place append would land — and commits
// arbitrary modifies while readers hold every previous image and scan
// it concurrently (run under -race, a write into a shared slice is a
// reported race), and while open transactions hold images of other
// mods built from the same versions. Every held image must still
// equal the copy taken when it was read.
func TestPostImageImmutableProperty(t *testing.T) {
	f := func(steps []modStep) bool {
		s := New("prop")
		seed := Entry{}
		for a := 0; a < 3; a++ {
			vs := make([]string, 2, 8)
			vs[0], vs[1] = "v0", fmt.Sprint("v", a+1)
			seed[fmt.Sprintf("a%d", a)] = vs
		}
		s.PutOwned("k", seed, Meta{CSN: 1})

		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(stop)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					e, _, _ := s.GetCommitted("k")
					for _, vs := range e {
						for _, v := range vs {
							n += len(v)
						}
					}
				}
			}()
		}

		type held struct{ img, want Entry }
		var hs []held
		for _, st := range steps {
			img, _, _ := s.GetCommitted("k")
			hs = append(hs, held{img, img.Clone()})
			m := Mod{Kind: ModKind(st.Kind % 3), Attr: fmt.Sprintf("a%d", st.Attr%4)}
			for i := 0; i < int(st.Vals%3); i++ {
				m.Vals = append(m.Vals, fmt.Sprint("v", (int(st.Val)+i)%4))
			}
			if st.Read {
				// An open transaction's view of a different mod is an
				// image built from the same version as the commit below.
				alt := Mod{Kind: m.Kind, Attr: m.Attr}
				for _, v := range m.Vals {
					alt.Vals = append(alt.Vals, v+"'")
				}
				peek := s.Begin(ReadCommitted)
				peek.Modify("k", alt)
				if img, _, ok := peek.Get("k"); ok {
					hs = append(hs, held{img, img.Clone()})
				}
				peek.Abort()
			}
			txn := s.Begin(ReadCommitted)
			txn.Modify("k", m)
			if _, err := txn.Commit(); err != nil {
				return false
			}
		}
		for _, h := range hs {
			if !h.img.Equal(h.want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
