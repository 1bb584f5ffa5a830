package store

import (
	"fmt"
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
