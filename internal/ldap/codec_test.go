package ldap

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/ber"
	"repro/internal/subscriber"
)

// Allocation gates: CI fails when the codec's allocations rise above
// these bounds.

// TestCodecAllocs encodes every message of a search and a modify of a
// generated subscriber into a reused buffer with no allocation, and
// bounds one whole search: request, entry and done, each encoded and
// decoded, as client and server do.
func TestCodecAllocs(t *testing.T) {
	p := subscriber.NewGenerator("eu-south").Profile(7)
	dn := subscriber.DN(p.ID)
	msgs := []*Message{
		{ID: 1, Op: &SearchRequest{BaseDN: subscriber.BaseDN, Scope: ScopeWholeSubtree,
			Filter: Eq(subscriber.AttrMSISDN, p.MSISDNVal)}},
		{ID: 1, Op: &SearchEntry{DN: dn, Attrs: p.ToEntry()}},
		{ID: 1, Op: &SearchDone{Result{Code: ResultSuccess}}},
		{ID: 2, Op: &ModifyRequest{DN: dn, Changes: []Change{
			{Op: ChangeReplace, Attr: subscriber.AttrArea, Vals: []string{"eu-north"}}}}},
		{ID: 2, Op: &ModifyResponse{Result{Code: ResultSuccess}}},
	}
	buf := make([]byte, 0, 4096)
	for _, m := range msgs {
		got := testing.AllocsPerRun(200, func() {
			if _, err := m.AppendTo(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%T AppendTo = %.0f allocs, want 0", m.Op, got)
		}
		enc, _ := m.AppendTo(buf[:0])
		dec, err := Decode(enc)
		if err != nil || !reflect.DeepEqual(dec, m) {
			t.Fatalf("%T round trip: %v\n got %#v\nwant %#v", m.Op, err, dec.Op, m.Op)
		}
	}
	search := testing.AllocsPerRun(200, func() {
		for _, m := range msgs[:3] {
			enc, err := m.AppendTo(buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		}
	})
	if search > 20 {
		t.Errorf("one search through the codec = %.0f allocs, want ≤ 20", search)
	}
}

// deepFilterRequest encodes a SearchRequest whose filter nests depth
// AND nodes around a presence filter. It is built front to back in
// linear time: size[k] is the encoded size of the filter at level k.
func deepFilterRequest(depth int) []byte {
	size := make([]int, depth+1)
	size[depth] = 3 // (x=*)
	for k := depth - 1; k >= 0; k-- {
		size[k] = 1 + lenSize(size[k+1]) + size[k+1]
	}
	// The fields before the filter, and the empty attribute list after.
	var pre ber.Encoder
	pre.OctetString(subscriber.BaseDN)
	for _, tag := range []int{ber.TagEnumerated, ber.TagEnumerated, ber.TagInteger, ber.TagInteger} {
		pre.Int(tag, 0)
	}
	pre.Bool(false)
	opLen := len(pre.Buf) + size[0] + 2
	var e ber.Encoder
	e.Buf = make([]byte, 0, 16+opLen)
	e.Buf = appendLen(append(e.Buf, 0x30), 3+1+lenSize(opLen)+opLen)
	e.Int(ber.TagInteger, 1)
	e.Buf = appendLen(append(e.Buf, 0x63), opLen) // [APPLICATION 3]
	e.Buf = append(e.Buf, pre.Buf...)
	for k := 0; k < depth; k++ {
		e.Buf = appendLen(append(e.Buf, 0xA0), size[k+1]) // AND
	}
	e.Buf = append(e.Buf, 0x87, 0x01, 'x', 0x30, 0x00)
	return e.Buf
}

// appendLen appends the definite-length octets of n; lenSize is their
// count.
func appendLen(b []byte, n int) []byte {
	k := lenSize(n) - 1
	if k == 0 {
		return append(b, byte(n))
	}
	b = append(b, byte(0x80|k))
	for i := k - 1; i >= 0; i-- {
		b = append(b, byte(n>>(8*i)))
	}
	return b
}

func lenSize(n int) int {
	if n < 0x80 {
		return 1
	}
	k := 1
	for ; n > 0; n >>= 8 {
		k++
	}
	return k
}

// TestDecodeRejectsDeepFilter: a filter nested past maxFilterDepth is
// rejected as malformed, quickly, however deep it goes; one at the
// bound decodes.
func TestDecodeRejectsDeepFilter(t *testing.T) {
	ok := deepFilterRequest(maxFilterDepth - 1)
	msg, err := Decode(ok)
	if err != nil {
		t.Fatalf("filter at the depth bound: %v", err)
	}
	if d := filterDepth(msg.Op.(*SearchRequest).Filter); d != maxFilterDepth {
		t.Fatalf("decoded filter depth %d, want %d", d, maxFilterDepth)
	}
	if _, err := Decode(deepFilterRequest(maxFilterDepth)); !errors.Is(err, ErrDecode) {
		t.Fatalf("filter one past the bound: %v", err)
	}
	// 1.5 M levels, 9 MB: deep enough to overflow the goroutine stack
	// of a decoder that recursed once per level.
	hostile := deepFilterRequest(1_500_000)
	if len(hostile) > ber.MaxElementSize {
		t.Fatalf("hostile request is %d bytes, over the element bound", len(hostile))
	}
	start := time.Now()
	_, err = Decode(hostile)
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("rejecting took %v, want < 10ms", elapsed)
	}
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("hostile filter: %v", err)
	}
}
