package ber

import (
	"bytes"
	"fmt"
	"testing"
	"testing/iotest"
)

// fuzzSeeds is the shared seed corpus: well-formed LDAP-shaped
// messages, every length form, high tag numbers, and the hostile
// shapes the parser must reject without panicking.
func fuzzSeeds() [][]byte {
	msg := encode(func(e *Encoder) {
		env := e.Begin(ClassUniversal, TagSequence)
		e.Int(TagInteger, 1)
		bind := e.Begin(ClassApplication, 0)
		e.Int(TagInteger, 3)
		e.OctetString("cn=admin")
		e.String(ClassContext, 0, "secret")
		e.End(bind)
		e.End(env)
	})
	long := encode(func(e *Encoder) { e.OctetString(string(bytes.Repeat([]byte("x"), 300))) }) // long-form length
	hi := encode(func(e *Encoder) { e.String(ClassPrivate, 0x7FFF, "hi") })                    // high-tag-number form
	deep := encode(func(e *Encoder) {
		var marks [31]int
		for i := range marks {
			marks[i] = e.Begin(ClassUniversal, TagSequence)
		}
		e.Bool(true)
		for i := len(marks) - 1; i >= 0; i-- {
			e.End(marks[i])
		}
	})
	return [][]byte{
		msg,
		long,
		hi,
		deep,
		{TagNull, 0x00},
		{0x30, 0x00},
		{},                             // empty
		{0x30},                         // tag only
		{0x30, 0x84, 0xFF, 0xFF, 0xFF}, // truncated long-form length
		{0x30, 0x84, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF},                         // hostile length header
		{0x30, 0x80, 0x00, 0x00},                                           // indefinite length (unsupported)
		{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01, 0x00}, // runaway tag
		{0x04, 0x03, 0x61},                                                 // length longer than contents
	}
}

// FuzzPacketDecode throws arbitrary bytes at the pull decoder. The
// first element must either be rejected, by Next or by Check, or
// re-encode to the same structure: decoding the re-encoding gives the
// same dump, and re-encoding is a fixpoint (the server round-trips
// every request it answers).
func FuzzPacketDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		el, err := d.Next()
		if err != nil {
			return
		}
		consumed := el.Off + len(el.Content)
		if consumed <= 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if el.Constructed && Check(el.Content) != nil {
			return
		}
		var e Encoder
		reencode(&e, &d, el)
		enc := e.Buf
		d2 := NewDecoder(enc)
		el2, err := d2.Next()
		if err != nil || d2.More() {
			t.Fatalf("re-decode of re-encoding failed: %v (more %v)", err, d2.More())
		}
		if a, b := dump(&d, el), dump(&d2, el2); a != b {
			t.Fatalf("round trip changed element:\n in: %s\nout: %s", a, b)
		}
		// Re-encoding is a fixpoint, and appending behind other output
		// writes the same bytes.
		e2 := Encoder{Buf: []byte{0xEE}}
		reencode(&e2, &d2, el2)
		if !bytes.Equal(e2.Buf[1:], enc) {
			t.Fatalf("re-encoding is not a fixpoint")
		}
	})
}

// reencode writes el, which d returned, through the Encoder.
func reencode(e *Encoder, d *Decoder, el Element) {
	if !el.Constructed {
		e.Bytes(el.Class, el.Tag, el.Content)
		return
	}
	m := e.Begin(el.Class, el.Tag)
	kids := d.Children(el)
	for kids.More() {
		k, err := kids.Next()
		if err != nil {
			panic(err) // Check accepted the content
		}
		reencode(e, &kids, k)
	}
	e.End(m)
}

// dump renders el's structure: identifiers and primitive contents.
func dump(d *Decoder, el Element) string {
	s := fmt.Sprintf("%d/%v/%d", el.Class, el.Constructed, el.Tag)
	if !el.Constructed {
		return s + fmt.Sprintf("%q", el.Content)
	}
	s += "{"
	kids := d.Children(el)
	for kids.More() {
		k, err := kids.Next()
		if err != nil {
			return s + "!" + err.Error()
		}
		s += dump(&kids, k) + ","
	}
	return s + "}"
}

// FuzzReadElement feeds arbitrary byte streams to the length-framed
// reader. It must never panic, never allocate past MaxElementSize, and
// whatever frame it returns must start with the bytes it consumed and
// be parseable-or-rejected exactly like a full in-memory parse.
func FuzzReadElement(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := ReadElement(r)
		if err != nil {
			return
		}
		if len(frame) > len(data) {
			t.Fatalf("frame longer (%d) than input (%d)", len(frame), len(data))
		}
		if !bytes.Equal(frame, data[:len(frame)]) {
			t.Fatalf("frame is not a prefix of the input")
		}
		// The frame claims to hold exactly one element: decoding it must
		// consume it fully or reject it — never read past it.
		d := NewDecoder(frame)
		if _, err := d.Next(); err == nil && d.More() {
			t.Fatalf("ReadElement framed %d bytes but Next left some", len(frame))
		}
		if n, err := ElementSize(frame); err == nil && n != len(frame) {
			t.Fatalf("ReadElement framed %d bytes, ElementSize says %d", len(frame), n)
		}
	})
}

// FuzzReadElementShortReads re-frames every seed through a one-byte-
// at-a-time reader: framing must not depend on read chunking.
func FuzzReadElementShortReads(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, errWhole := ReadElement(bytes.NewReader(data))
		chunked, errChunked := ReadElement(iotest.OneByteReader(bytes.NewReader(data)))
		if (errWhole == nil) != (errChunked == nil) {
			t.Fatalf("chunking changed outcome: %v vs %v", errWhole, errChunked)
		}
		if errWhole == nil && !bytes.Equal(whole, chunked) {
			t.Fatalf("chunking changed frame")
		}
	})
}
