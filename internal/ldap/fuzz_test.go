package ldap

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// fuzzSeeds is the message-level seed corpus: every golden encoding,
// plus shapes the tree decoder read leniently (constructed elements
// where strings are expected, extra trailing children, controls).
func fuzzSeeds(f *testing.F) {
	for _, c := range goldenCases() {
		buf, err := c.msg.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, hx := range []string{
		"30050201024200",                         // unbind
		"300702010242020400",                     // primitive unbind with trailing bytes
		"300a0201024a0530030401",                 // truncated
		"300c02010165070a010004000400a000",       // search done + empty controls
		"300e0201014a0930070405616263646566",     // del request, constructed DN
		"3010020101770b80037869788103010203",     // extended request with value
		"300b02010163063004a0003000",             // search request, too few fields
		"30818702010163820080",                   // bogus long form inside
		"3012020101780d0a0100040004008a00a20130", // extended response, odd children
	} {
		b, err := hex.DecodeString(hx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// filterDepth is the nesting depth of f, the top filter being 1.
func filterDepth(f Filter) int {
	d := 0
	for _, c := range f.Children {
		d = max(d, filterDepth(c))
	}
	return d + 1
}

// FuzzDecodeDifferential: Decode and the tree decoder it replaced
// accept and reject the same inputs and agree on every message, except
// that Decode rejects filters nested past maxFilterDepth.
func FuzzDecodeDifferential(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want, refErr := refDecode(data)
		if refErr == nil {
			if req, ok := want.Op.(*SearchRequest); ok && filterDepth(req.Filter) > maxFilterDepth {
				if !errors.Is(err, ErrDecode) {
					t.Fatalf("filter of depth %d decoded: %v", filterDepth(req.Filter), err)
				}
				return
			}
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode err %v, reference err %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode differs from the reference:\n got %#v\nwant %#v", got.Op, want.Op)
		}
	})
}

// FuzzDecode: arbitrary bytes either fail to decode, or the message
// re-encodes and decodes back to an equal message.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := msg.Encode()
		if err != nil {
			t.Fatalf("re-encode %#v: %v", msg.Op, err)
		}
		again, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("round trip changed the message:\n in %#v\nout %#v", msg.Op, again.Op)
		}
	})
}
