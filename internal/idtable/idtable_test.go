package idtable

import (
	"fmt"
	"strconv"
	"testing"
	"unsafe"
)

func TestSlotIsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
	}
}

func TestDecimalInlinesOnlyCanonicalNumbers(t *testing.T) {
	for _, c := range []struct {
		s      string
		inline bool
	}{
		{"0", true},
		{"7", true},
		{"34600000001", true},
		{"214010000000001", true},
		{"9999999999999999999", true}, // 19 digits
		{"", false},
		{"00", false},
		{"0346000001", false},
		{"+34600000001", false},
		{"-1", false},
		{" 1", false},
		{"1e5", false},
		{"12345678901234567890", false}, // 20 digits
		{"18446744073709551615", false}, // fits a uint64, still 20 digits
		{"１２", false},                   // full-width digits
	} {
		n, ok := decimal(c.s)
		if ok != c.inline {
			t.Errorf("decimal(%q) inline = %v, want %v", c.s, ok, c.inline)
		}
		if ok && strconv.FormatUint(n, 10) != c.s {
			t.Errorf("decimal(%q) = %d does not render back", c.s, n)
		}
	}
}

func TestInlineAndStringKeysStayDistinct(t *testing.T) {
	var tb Table
	tb.Put(1, "34600000001", Ref{Sub: 1})
	tb.Put(2, "34600000001", Ref{Sub: 2}) // same value, other type
	tb.Put(1, "034600000001", Ref{Sub: 3})
	tb.Put(1, "+34600000001", Ref{Sub: 4})
	for _, c := range []struct {
		typ uint8
		v   string
		sub uint32
	}{{1, "34600000001", 1}, {2, "34600000001", 2}, {1, "034600000001", 3}, {1, "+34600000001", 4}} {
		if r, ok := tb.Get(c.typ, c.v); !ok || r.Sub != c.sub {
			t.Errorf("Get(%d, %q) = %+v %v, want sub %d", c.typ, c.v, r, ok, c.sub)
		}
	}
	got := map[string]bool{}
	tb.Range(func(typ uint8, v string, r Ref) { got[fmt.Sprintf("%d %s", typ, v)] = true })
	if len(got) != 4 || !got["1 34600000001"] || !got["1 034600000001"] {
		t.Fatalf("Range rendered %v", got)
	}
}

// TestTagCollisions fills the smallest table with keys that share both
// the home slot and the 7-bit hash tag of an anchor key, so every probe
// passes a tag match whose key differs.
func TestTagCollisions(t *testing.T) {
	const typ = 3
	anchor := makeKey(typ, "anchor")
	home := func(h uint64) uint64 { return h & (minSlots - 1) }
	var colliders []string
	for i := 0; len(colliders) < 5; i++ {
		v := fmt.Sprintf("impi-%d@ims.mnc001.mcc214.3gppnetwork.org", i)
		k := makeKey(typ, v)
		if tag(k.hash) == tag(anchor.hash) && home(k.hash) == home(anchor.hash) {
			colliders = append(colliders, v)
		}
	}
	var tb Table
	tb.Put(typ, "anchor", Ref{Sub: 100})
	for i, v := range colliders[:4] {
		tb.Put(typ, v, Ref{Sub: uint32(i)})
	}
	if st := tb.Stats(); st.Slots != minSlots || st.MeanProbes != 3 {
		t.Fatalf("want one 5-long probe run in %d slots, got %+v", minSlots, st)
	}
	if _, ok := tb.Get(typ, colliders[4]); ok {
		t.Fatal("absent colliding key found")
	}
	if old, ok := tb.Delete(typ, "anchor"); !ok || old.Sub != 100 {
		t.Fatalf("Delete(anchor) = %+v %v", old, ok)
	}
	for i, v := range colliders[:4] {
		if r, ok := tb.Get(typ, v); !ok || r.Sub != uint32(i) {
			t.Fatalf("collider %d behind a tombstone: %+v %v", i, r, ok)
		}
	}
}

func TestRehashCompactsArena(t *testing.T) {
	var tb Table
	key := func(i int) string { return fmt.Sprintf("sip:+3460%07d@ims.example.net", i) }
	for i := 0; i < 1000; i++ {
		tb.Put(0, key(i), Ref{Sub: uint32(i)})
	}
	for i := 0; i < 1000; i += 2 {
		tb.Delete(0, key(i))
	}
	if st := tb.Stats(); st.DeadBytes != 500*len(key(0)) {
		t.Fatalf("after deletes: %+v", st)
	}
	// Inserts never reuse tombstones, so enough of them force a rehash.
	for i := 1000; tb.Stats().DeadBytes != 0; i++ {
		tb.Put(0, key(i), Ref{Sub: uint32(i)})
	}
	st := tb.Stats()
	if st.ArenaBytes != st.Entries*len(key(0)) {
		t.Fatalf("arena holds %d bytes for %d live keys: %+v", st.ArenaBytes, st.Entries, st)
	}
	for i := 1; i < 1000; i += 2 {
		if r, ok := tb.Get(0, key(i)); !ok || r.Sub != uint32(i) {
			t.Fatalf("key %d lost in compaction", i)
		}
	}
}

func TestDeleteFuncShrinks(t *testing.T) {
	var tb Table
	for i := 0; i < 4096; i++ {
		tb.Put(0, strconv.Itoa(i+1), Ref{Part: uint16(i % 2)})
	}
	if n := tb.DeleteFunc(func(r Ref) bool { return r.Part == 1 }); n != 2048 {
		t.Fatalf("deleted %d", n)
	}
	if n := tb.DeleteFunc(func(r Ref) bool { return true }); n != 2048 {
		t.Fatalf("deleted %d", n)
	}
	if st := tb.Stats(); st.Entries != 0 || st.Slots != minSlots {
		t.Fatalf("emptied table: %+v", st)
	}
}
