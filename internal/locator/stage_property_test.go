package locator

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/idtable"
	"repro/internal/subscriber"
)

// trickyValues are identity values at the edge of the inline decimal
// encoding: the numeric-looking ones must round-trip as strings.
var trickyValues = []string{
	"0", "00", "0346000001", "+34600000001", "34600000001", "214010000000001",
	"12345678901234567890", "18446744073709551615", "99999999999999999999",
	"9999999999999999999", "1", "", "-1", " 1", "1e5",
	"sub-00000001", "sub-00000001@ims.mnc001.mcc214.3gppnetwork.org",
	"sip:+34600000001@ims.example.net", "tel:+34600000001",
}

// numericStrings are the tricky values that look numeric but must not
// be stored as numbers.
var numericStrings = map[string]bool{
	"00": true, "0346000001": true, "+34600000001": true,
	"12345678901234567890": true, "18446744073709551615": true,
	"99999999999999999999": true,
}

var propPartitions = []string{"p-0", "p-1", "p-2", "p-3", "p-4", "p-5"}

// opCoverage records which table behaviours an op sequence reached.
type opCoverage struct {
	maxSlots       int // the largest table the stage grew to
	compactions    int // rehashes that reclaimed dead arena bytes
	moved          int // identities re-put onto another subscriber or partition
	numericStrings int // lookup hits on numeric-looking string values
}

// opReader decodes an op sequence; exhausted input reads as zeros.
type opReader struct{ data []byte }

func (r *opReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) identity() subscriber.Identity {
	typ := subscriber.IdentityType(r.next() % 5)
	b := r.next()
	if b < 128 {
		return subscriber.Identity{Type: typ, Value: trickyValues[int(b)%len(trickyValues)]}
	}
	return bulkIdentity(int(b&0x7f)<<8 | int(r.next()))
}

// bulkIdentity is the n-th identity of a large space mixing the three
// encodings: inline decimal, leading-zero decimal and long string.
func bulkIdentity(n int) subscriber.Identity {
	switch n % 3 {
	case 0:
		return subscriber.Identity{Type: subscriber.MSISDN, Value: fmt.Sprintf("346%08d", n)}
	case 1:
		return subscriber.Identity{Type: subscriber.IMSI, Value: fmt.Sprintf("0%014d", n)}
	}
	return subscriber.Identity{Type: subscriber.IMPI, Value: fmt.Sprintf("imp-%d@ims.mnc001.mcc214.3gppnetwork.org", n)}
}

func (r *opReader) placement() Placement {
	return Placement{
		SubscriberID: fmt.Sprintf("sub-%d", r.next()%32),
		Partition:    propPartitions[int(r.next())%len(propPartitions)],
	}
}

// sortEntries orders entries by identity type, then value, in place
// (Dump returns table order).
func sortEntries(es []MapEntry) []MapEntry {
	slices.SortFunc(es, func(a, b MapEntry) int {
		return cmp.Or(cmp.Compare(a.Identity.Type, b.Identity.Type),
			strings.Compare(a.Identity.Value, b.Identity.Value))
	})
	return es
}

// runStageOps drives a stage and a plain-map reference model through
// the op sequence data encodes, failing t at the first divergence.
func runStageOps(t *testing.T, data []byte) opCoverage {
	ctx := context.Background()
	s := NewStage("eu", Provisioned, true)
	model := map[subscriber.Identity]Placement{}
	var cov opCoverage
	lastDead := 0
	bulk := 0
	r := &opReader{data: data}
	put := func(id subscriber.Identity, p Placement) {
		if old, ok := model[id]; ok && old != p {
			cov.moved++
		}
		model[id] = p
	}
	for op := 0; len(r.data) > 0; op++ {
		switch code := r.next() % 8; code {
		case 0, 1:
			ids := make([]subscriber.Identity, 1+r.next()%6)
			for i := range ids {
				ids[i] = r.identity()
			}
			p := r.placement()
			s.PutProfile(ids, p)
			for _, id := range ids {
				put(id, p)
			}
		case 2:
			ids := make([]subscriber.Identity, 1+r.next()%6)
			for i := range ids {
				ids[i] = r.identity()
				if i%2 == 1 && bulk > 0 {
					ids[i] = bulkIdentity((int(r.next())<<8 | int(r.next())) % bulk)
				}
			}
			s.RemoveProfile(ids)
			for _, id := range ids {
				delete(model, id)
			}
		case 3:
			part := propPartitions[int(r.next())%len(propPartitions)]
			want := 0
			for id, p := range model {
				if p.Partition == part {
					delete(model, id)
					want++
				}
			}
			if got := s.InvalidatePartition(part); got != want {
				t.Fatalf("op %d: InvalidatePartition(%s) = %d, model dropped %d", op, part, got, want)
			}
		case 4:
			entries := make([]MapEntry, 1+r.next()%8)
			for i := range entries {
				entries[i] = MapEntry{Identity: r.identity(), Placement: r.placement()}
			}
			s.Load(entries)
			for _, e := range entries {
				put(e.Identity, e.Placement)
			}
		case 5:
			id := r.identity()
			got, err := s.Lookup(ctx, id)
			want, ok := model[id]
			switch {
			case ok && (err != nil || got != want):
				t.Fatalf("op %d: Lookup(%v) = %+v, %v; model %+v", op, id, got, err, want)
			case !ok && !errors.Is(err, ErrNotFound):
				t.Fatalf("op %d: Lookup(%v) = %+v, %v; model has no entry", op, id, got, err)
			case ok && numericStrings[id.Value]:
				cov.numericStrings++
			}
		case 6:
			dump := sortEntries(s.Dump())
			want := make([]MapEntry, 0, len(model))
			for id, p := range model {
				want = append(want, MapEntry{Identity: id, Placement: p})
			}
			sortEntries(want)
			if !slices.Equal(dump, want) {
				t.Fatalf("op %d: Dump diverges from the model (%d vs %d entries)", op, len(dump), len(want))
			}
			fresh := NewStage("us", Provisioned, true)
			fresh.Load(dump)
			if !slices.Equal(sortEntries(fresh.Dump()), dump) {
				t.Fatalf("op %d: Load(Dump()) does not reproduce the map", op)
			}
			checkHandles(t, fresh)
		case 7:
			p := r.placement()
			for n := 8 * (1 + int(r.next()%8)); n > 0; n-- {
				id := bulkIdentity(bulk)
				bulk++
				s.PutProfile([]subscriber.Identity{id}, p)
				put(id, p)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, s.Len(), len(model))
		}
		if op%16 == 0 {
			st := s.MapStats()
			cov.maxSlots = max(cov.maxSlots, st.Slots)
			if lastDead > 0 && st.DeadBytes == 0 {
				cov.compactions++
			}
			lastDead = st.DeadBytes
			checkHandles(t, s)
		}
	}
	checkHandles(t, s)
	return cov
}

// checkHandles verifies the handle table: every handle's count equals
// the identities mapped to it, and exactly the unreferenced handles
// are free and name nobody.
func checkHandles(t *testing.T, s *Stage) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	counts := make([]uint32, len(s.subs))
	s.ids.Range(func(_ uint8, _ string, r idtable.Ref) { counts[r.Sub]++ })
	free := map[uint32]bool{}
	for _, h := range s.free {
		if free[h] {
			t.Fatalf("handle %d freed twice", h)
		}
		free[h] = true
	}
	for h := range s.subs {
		if s.refs[h] != counts[h] {
			t.Fatalf("handle %d: count %d, %d identities map to it", h, s.refs[h], counts[h])
		}
		if (counts[h] == 0) != free[uint32(h)] || (free[uint32(h)] && s.subs[h] != "") {
			t.Fatalf("handle %d: refs %d, free %v, names %q", h, counts[h], free[uint32(h)], s.subs[h])
		}
	}
}

func FuzzStage(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 2, 3, 4, 5, 6, 6})
	f.Add([]byte{7, 1, 2, 7, 3, 4, 7, 5, 6, 2, 2, 0, 200, 1, 3, 1, 6})
	f.Add([]byte{4, 3, 1, 2, 1, 5, 3, 3, 1, 2, 3, 9, 1, 6, 5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runStageOps(t, data)
	})
}

func TestStageMatchesModel(t *testing.T) {
	var total opCoverage
	for seed := int64(1); seed <= 6; seed++ {
		data := make([]byte, 24_000)
		rand.New(rand.NewSource(seed)).Read(data)
		cov := runStageOps(t, data)
		total.maxSlots = max(total.maxSlots, cov.maxSlots)
		total.compactions += cov.compactions
		total.moved += cov.moved
		total.numericStrings += cov.numericStrings
	}
	t.Logf("coverage: %+v", total)
	// The sequences must have reached what they exist to test: several
	// doublings from the 8-slot start, arena compaction, re-puts onto
	// another subscriber or partition, and numeric-looking strings.
	if total.maxSlots < 8<<6 || total.compactions == 0 || total.moved == 0 || total.numericStrings == 0 {
		t.Fatalf("op sequences missed a behaviour: %+v", total)
	}
}

// TestStageConcurrentUse runs writers, readers, invalidations and
// dumps at once; run it under -race. The handle table must stay exact.
func TestStageConcurrentUse(t *testing.T) {
	s := NewStage("eu", Cached, true)
	s.SetMissResolver(func(ctx context.Context, id subscriber.Identity) (Placement, int, error) {
		return Placement{SubscriberID: "sub-" + id.Value, Partition: "p-0"}, 1, nil
	})
	gen := subscriber.NewGenerator()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 2000; i++ {
				p := gen.Profile(w*1000 + i%1500)
				ids := p.Identities()
				switch i % 5 {
				case 0, 1:
					s.PutProfile(ids, Placement{SubscriberID: p.ID, Partition: propPartitions[i%len(propPartitions)]})
				case 2:
					s.RemoveProfile(ids[:2])
				case 3:
					if _, err := s.Lookup(ctx, ids[i%len(ids)]); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if i%100 == 4 {
						s.InvalidatePartition(propPartitions[w])
						s.Dump()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkHandles(t, s)
}

func TestStageLookupHitAllocs(t *testing.T) {
	s := NewStage("eu", Provisioned, true)
	p := subscriber.NewGenerator().Profile(7)
	s.PutProfile(p.Identities(), Placement{SubscriberID: p.ID, Partition: "p-eu-0"})
	ctx := context.Background()
	for _, id := range []subscriber.Identity{
		{Type: subscriber.MSISDN, Value: p.MSISDNVal},
		{Type: subscriber.IMPI, Value: p.IMPIVal}, // longer than 32 bytes
	} {
		got := testing.AllocsPerRun(1000, func() {
			if pl, err := s.Lookup(ctx, id); err != nil || pl.SubscriberID != p.ID {
				t.Fatalf("Lookup(%v) = %+v, %v", id, pl, err)
			}
		})
		if got != 0 {
			t.Errorf("Lookup(%v) hit = %.0f allocs/op, want 0", id, got)
		}
	}
}

// TestStageFootprint gates the map's heap cost per subscriber on the
// generator's identity mix (UID, IMSI, MSISDN, IMPI, two IMPUs).
func TestStageFootprint(t *testing.T) {
	const n = 100_000
	gen := subscriber.NewGenerator()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStage("eu", Provisioned, true)
	for i := 0; i < n; i++ {
		p := gen.Profile(i)
		s.PutProfile(p.Identities(), Placement{SubscriberID: p.ID, Partition: propPartitions[i%len(propPartitions)]})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSub := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if s.Len() != 6*n {
		t.Fatalf("len = %d", s.Len())
	}
	t.Logf("%.0f B/subscriber, %+v", perSub, s.MapStats())
	if perSub > 420 {
		t.Fatalf("stage costs %.0f B/subscriber, want ≤ 420", perSub)
	}
	runtime.KeepAlive(s)
}
