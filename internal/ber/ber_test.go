package ber

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// one decodes the single element buf must hold.
func one(t *testing.T, buf []byte) (Decoder, Element) {
	t.Helper()
	d := NewDecoder(buf)
	el, err := d.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if d.More() {
		t.Fatalf("Next left %d bytes", len(buf)-el.Off-len(el.Content))
	}
	return d, el
}

func encode(f func(e *Encoder)) []byte {
	var e Encoder
	f(&e)
	return e.Buf
}

func TestIntegerRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256,
		1<<31 - 1, -(1 << 31), 1<<62 - 1, -(1 << 62), 1<<63 - 1, -1 << 63} {
		_, el := one(t, encode(func(e *Encoder) { e.Int(TagInteger, v) }))
		n, err := ParseInt(el.Content)
		if err != nil {
			t.Fatalf("ParseInt(%d): %v", v, err)
		}
		if n != v || el.Tag != TagInteger || el.Class != ClassUniversal || el.Constructed {
			t.Fatalf("round trip %d -> %d (%+v)", v, n, el)
		}
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	// 127 fits in one byte, 128 needs two (sign bit).
	for _, c := range []struct {
		v    int64
		want int
	}{{127, 1}, {128, 2}, {-128, 1}, {-129, 2}, {0, 1}, {1<<63 - 1, 8}, {-1 << 63, 8}} {
		_, el := one(t, encode(func(e *Encoder) { e.Int(TagInteger, c.v) }))
		if len(el.Content) != c.want {
			t.Fatalf("%d encoded in %d bytes, want %d", c.v, len(el.Content), c.want)
		}
	}
}

func TestBooleanRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		_, el := one(t, encode(func(e *Encoder) { e.Bool(v) }))
		b, err := ParseBool(el.Content)
		if err != nil {
			t.Fatal(err)
		}
		if b != v || el.Tag != TagBoolean {
			t.Fatalf("round trip %v -> %v", v, b)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "hello", "uid=sub-1,ou=subscribers,dc=udr",
		string(make([]byte, 200))} {
		_, el := one(t, encode(func(e *Encoder) { e.OctetString(s) }))
		if string(el.Content) != s || el.Tag != TagOctetString {
			t.Fatalf("round trip %q -> %q", s, el.Content)
		}
	}
}

func TestLongFormLength(t *testing.T) {
	// > 127 bytes of content forces long-form length, primitive or
	// back-patched constructed, at every length-of-length boundary.
	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536, 1 << 20} {
		s := string(bytes.Repeat([]byte("x"), n))
		prim := encode(func(e *Encoder) { e.OctetString(s) })
		_, el := one(t, prim)
		if string(el.Content) != s {
			t.Fatalf("%d-byte primitive round trip failed", n)
		}
		want := append(appendLength([]byte{0x30}, len(prim)), prim...)
		got := encode(func(e *Encoder) {
			m := e.Begin(ClassUniversal, TagSequence)
			e.OctetString(s)
			e.End(m)
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte constructed: header % x, want % x", n, got[:6], want[:6])
		}
	}
}

func TestSequenceNesting(t *testing.T) {
	buf := encode(func(e *Encoder) {
		outer := e.Begin(ClassUniversal, TagSequence)
		e.Int(TagInteger, 7)
		inner := e.Begin(ClassUniversal, TagSequence)
		e.OctetString("inner")
		e.Bool(true)
		e.End(inner)
		e.Int(TagEnumerated, 3)
		e.End(outer)
	})
	d, el := one(t, buf)
	kids := d.Children(el)
	var got []Element
	for kids.More() {
		k, err := kids.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
	}
	if len(got) != 3 || !got[1].Constructed {
		t.Fatalf("children = %+v", got)
	}
	inner := d.Children(got[1])
	s, err := inner.Next()
	if err != nil || string(s.Content) != "inner" {
		t.Fatalf("inner first = %+v %v", s, err)
	}
	if b, err := inner.Next(); err != nil || b.Tag != TagBoolean || inner.More() {
		t.Fatalf("inner second = %+v %v", b, err)
	}
	if n, _ := ParseInt(got[2].Content); n != 3 || got[2].Tag != TagEnumerated {
		t.Fatalf("enumerated = %d", n)
	}
	if Check(el.Content) != nil {
		t.Fatal("Check rejects a well-formed sequence")
	}
}

func TestApplicationAndContextClasses(t *testing.T) {
	buf := encode(func(e *Encoder) {
		m := e.Begin(ClassApplication, 3)
		e.String(ClassContext, 7, "objectClass")
		e.End(m)
	})
	d, el := one(t, buf)
	if el.Class != ClassApplication || el.Tag != 3 || !el.Constructed {
		t.Fatalf("class/tag = %v/%d", el.Class, el.Tag)
	}
	kids := d.Children(el)
	c, err := kids.Next()
	if err != nil || c.Class != ClassContext || c.Tag != 7 || string(c.Content) != "objectClass" || c.Constructed {
		t.Fatalf("context child = %+v %v", c, err)
	}
}

// TestChildOutOfRange: a primitive element has no children, and a
// decoder past its last element has nothing more to give.
func TestChildOutOfRange(t *testing.T) {
	d, el := one(t, encode(func(e *Encoder) { e.OctetString("\x30\x00") }))
	if kids := d.Children(el); kids.More() {
		t.Fatal("primitive element has children")
	}
	d, el = one(t, encode(func(e *Encoder) { e.End(e.Begin(ClassUniversal, TagSequence)) }))
	kids := d.Children(el)
	if kids.More() {
		t.Fatal("empty sequence has children")
	}
	if _, err := kids.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next past the end = %v", err)
	}
}

func TestHighTagNumber(t *testing.T) {
	for _, tag := range []int{31, 100, 0x7FFF, 1 << 20} {
		_, el := one(t, encode(func(e *Encoder) { e.String(ClassContext, tag, "x") }))
		if el.Tag != tag || string(el.Content) != "x" {
			t.Fatalf("tag = %d, want %d", el.Tag, tag)
		}
	}
}

func TestParseTruncated(t *testing.T) {
	full := encode(func(e *Encoder) {
		m := e.Begin(ClassUniversal, TagSequence)
		e.OctetString("hello")
		e.End(m)
	})
	for i := 1; i < len(full); i++ {
		d := NewDecoder(full[:i])
		if _, err := d.Next(); err == nil {
			t.Fatalf("Next of %d/%d bytes should fail", i, len(full))
		}
		if Check(full[:i]) == nil {
			t.Fatalf("Check of %d/%d bytes should fail", i, len(full))
		}
	}
	// A child that overruns its parent is caught by Check.
	if err := Check([]byte{0x30, 0x03, 0x04, 0x05, 'a', 'b', 'c', 'd', 'e'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overrunning child: %v", err)
	}
}

func TestParseEmpty(t *testing.T) {
	d := NewDecoder(nil)
	if _, err := d.Next(); err == nil {
		t.Fatal("Next on empty input should fail")
	}
	if Check(nil) != nil {
		t.Fatal("an empty series is well formed")
	}
}

func TestBadInt(t *testing.T) {
	if _, err := ParseInt(nil); err == nil {
		t.Fatal("zero-length integer should fail")
	}
	if _, err := ParseInt(make([]byte, 9)); err == nil {
		t.Fatal("9-byte integer should fail")
	}
}

func TestBadBool(t *testing.T) {
	if _, err := ParseBool([]byte{1, 2}); err == nil {
		t.Fatal("2-byte boolean should fail")
	}
}

// TestCheckDeepNesting: a million nested sequences neither overflow
// the stack nor take long to check.
func TestCheckDeepNesting(t *testing.T) {
	const depth = 1 << 20
	// Built front to back: size[k] is the encoded size of level k.
	size := make([]int, depth+1)
	size[depth] = 2 // the innermost NULL
	for k := depth - 1; k >= 0; k-- {
		size[k] = 1 + lengthLen(size[k+1]) + size[k+1]
	}
	buf := make([]byte, 0, size[0])
	for k := 0; k < depth; k++ {
		buf = appendLength(append(buf, 0x30), size[k+1])
	}
	buf = append(buf, 0x05, 0x00)
	if err := Check(buf); err != nil {
		t.Fatalf("Check: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] = 0x01 // innermost NULL now overruns every parent
	if Check(bad) == nil {
		t.Fatal("Check accepted an overrunning innermost element")
	}
}

// TestDecoderAllocs: encoding into a buffer with room and decoding
// back allocate nothing.
func TestDecoderAllocs(t *testing.T) {
	dst := make([]byte, 0, 256)
	long := strings.Repeat("abc", 50) // long form: End shifts the content
	got := testing.AllocsPerRun(100, func() {
		e := Encoder{Buf: dst[:0]}
		m := e.Begin(ClassUniversal, TagSequence)
		e.Int(TagInteger, 1)
		e.OctetString(long)
		e.End(m)
		d := NewDecoder(e.Buf)
		el, err := d.Next()
		if err != nil || Check(el.Content) != nil {
			t.Fatal("round trip failed")
		}
		kids := d.Children(el)
		for kids.More() {
			if _, err := kids.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Fatalf("encode + decode = %.0f allocs, want 0", got)
	}
}

func TestReadElement(t *testing.T) {
	buf := encode(func(e *Encoder) {
		m := e.Begin(ClassUniversal, TagSequence)
		e.Int(TagInteger, 1)
		e.OctetString("abc")
		e.End(m)
	})
	// Two elements back to back; ReadElement must frame exactly one.
	double := append(append([]byte(nil), buf...), buf...)
	r := bytes.NewReader(double)
	one, err := ReadElement(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, buf) {
		t.Fatal("ReadElement returned wrong framing")
	}
	two, err := ReadElement(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two, buf) {
		t.Fatal("second ReadElement returned wrong framing")
	}
	if n, err := ElementSize(double); err != nil || n != len(buf) {
		t.Fatalf("ElementSize = %d %v, want %d", n, err, len(buf))
	}
}

func TestReadElementLongForm(t *testing.T) {
	s := string(bytes.Repeat([]byte("y"), 500))
	buf := encode(func(e *Encoder) { e.OctetString(s) })
	got, err := ReadElement(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("long-form ReadElement mismatch")
	}
	// The header alone sizes the element.
	if n, err := ElementSize(buf[:4]); err != nil || n != len(buf) {
		t.Fatalf("ElementSize(header) = %d %v, want %d", n, err, len(buf))
	}
	if _, err := ElementSize(buf[:2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ElementSize(partial header) = %v", err)
	}
}

func TestReadElementTruncated(t *testing.T) {
	buf := encode(func(e *Encoder) { e.OctetString("hello world") })
	if _, err := ReadElement(bytes.NewReader(buf[:3])); err == nil {
		t.Fatal("truncated ReadElement should fail")
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		d := NewDecoder(encode(func(e *Encoder) { e.Int(TagInteger, v) }))
		el, err := d.Next()
		if err != nil || d.More() {
			return false
		}
		n, err := ParseInt(el.Content)
		return err == nil && n == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		d := NewDecoder(encode(func(e *Encoder) { e.OctetString(s) }))
		el, err := d.Next()
		return err == nil && !d.More() && string(el.Content) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseGarbageNeverPanicsProperty(t *testing.T) {
	f := func(b []byte) bool {
		// Must not panic; errors are fine.
		d := NewDecoder(b)
		if el, err := d.Next(); err == nil {
			kids := d.Children(el)
			for kids.More() {
				if _, err := kids.Next(); err != nil {
					break
				}
			}
		}
		_ = Check(b)
		_, _ = ElementSize(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
