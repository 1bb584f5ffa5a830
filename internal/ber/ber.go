// Package ber implements the subset of ASN.1 Basic Encoding Rules
// needed by the UDR's LDAP northbound interface (§1: the UDR "is
// mandated to support an LDAP-based interface").
//
// Neither direction builds a tree. An Encoder appends tag-length-value
// elements straight into a caller's buffer, back-patching each
// constructed element's length when it closes. A Decoder pulls the
// elements of a message out of its bytes in order, as sub-slices, and
// allocates nothing. Only minimal definite-length encodings are
// produced; both short- and long-form lengths are parsed.
package ber

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Class is the BER tag class.
type Class byte

// Tag classes.
const (
	ClassUniversal   Class = 0x00
	ClassApplication Class = 0x40
	ClassContext     Class = 0x80
	ClassPrivate     Class = 0xC0
)

// Universal tags used by LDAP.
const (
	TagBoolean     = 0x01
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagNull        = 0x05
	TagEnumerated  = 0x0A
	TagSequence    = 0x10
	TagSet         = 0x11
)

// ErrTruncated is returned when input ends mid-element.
var ErrTruncated = errors.New("ber: truncated element")

// MaxElementSize bounds a single element to guard servers against
// hostile length headers.
const MaxElementSize = 16 << 20

// Encoder appends BER elements to Buf. The zero value appends to a
// nil buffer; set Buf to reuse one.
type Encoder struct {
	Buf []byte
}

// Begin opens a constructed element and returns the mark that End
// takes to close it. Elements nest: close the innermost first.
func (e *Encoder) Begin(class Class, tag int) int {
	e.Buf = appendTag(e.Buf, class, true, tag)
	e.Buf = append(e.Buf, 0) // length, patched by End
	return len(e.Buf)
}

// End closes the constructed element Begin opened at mark by writing
// its content length. A short-form length fits the octet Begin
// reserved; a long-form one shifts the content up to make room.
func (e *Encoder) End(mark int) {
	n := len(e.Buf) - mark
	if n < 0x80 {
		e.Buf[mark-1] = byte(n)
		return
	}
	extra := lengthLen(n) - 1
	e.Buf = slices.Grow(e.Buf, extra)[:len(e.Buf)+extra]
	copy(e.Buf[mark+extra:], e.Buf[mark:mark+n])
	appendLength(e.Buf[:mark-1], n)
}

// String appends a primitive element whose contents are s.
func (e *Encoder) String(class Class, tag int, s string) {
	e.Buf = appendTag(e.Buf, class, false, tag)
	e.Buf = appendLength(e.Buf, len(s))
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a primitive element whose contents are v.
func (e *Encoder) Bytes(class Class, tag int, v []byte) {
	e.Buf = appendTag(e.Buf, class, false, tag)
	e.Buf = appendLength(e.Buf, len(v))
	e.Buf = append(e.Buf, v...)
}

// OctetString appends a universal OCTET STRING.
func (e *Encoder) OctetString(s string) { e.String(ClassUniversal, TagOctetString, s) }

// Int appends a primitive element holding v in minimal two's
// complement: an INTEGER or ENUMERATED under its universal tag.
func (e *Encoder) Int(tag int, v int64) {
	n := 1
	for m := v >> 8; m != 0 && m != -1; m >>= 8 {
		n++
	}
	// One more octet when the top bit would read as the wrong sign.
	if top := v >> (8 * uint(n-1)); (v > 0 && top&0x80 != 0) || (v < 0 && top&0x80 == 0) {
		n++
	}
	e.Buf = appendTag(e.Buf, ClassUniversal, false, tag)
	e.Buf = append(e.Buf, byte(n))
	for i := n - 1; i >= 0; i-- {
		e.Buf = append(e.Buf, byte(v>>(8*uint(i))))
	}
}

// Bool appends a universal BOOLEAN.
func (e *Encoder) Bool(v bool) {
	b := byte(0x00)
	if v {
		b = 0xFF
	}
	e.Buf = append(e.Buf, TagBoolean, 1, b)
}

// appendLength appends the definite-length encoding of n.
func appendLength(b []byte, n int) []byte {
	if n < 0x80 {
		return append(b, byte(n))
	}
	k := lengthLen(n) - 1
	b = append(b, byte(0x80|k))
	for i := k - 1; i >= 0; i-- {
		b = append(b, byte(n>>(8*uint(i))))
	}
	return b
}

// lengthLen returns the size of appendLength's output.
func lengthLen(n int) int {
	if n < 0x80 {
		return 1
	}
	sz := 1
	for n > 0 {
		sz++
		n >>= 8
	}
	return sz
}

// appendTag appends the identifier octets.
func appendTag(b []byte, class Class, constructed bool, tag int) []byte {
	id := byte(class)
	if constructed {
		id |= 0x20
	}
	if tag < 0x1F {
		return append(b, id|byte(tag))
	}
	// High-tag-number form (not used by LDAP but supported for
	// completeness): base-128 digits, most significant first.
	b = append(b, id|0x1F)
	k := 0
	for t := tag; t > 0; t >>= 7 {
		k++
	}
	for i := k - 1; i >= 0; i-- {
		c := byte(tag>>(7*uint(i))) & 0x7F
		if i > 0 {
			c |= 0x80
		}
		b = append(b, c)
	}
	return b
}

// Element is one decoded element: its identifier and its content
// octets, a sub-slice of the Decoder's input that starts at offset Off.
type Element struct {
	Class       Class
	Constructed bool
	Tag         int
	Content     []byte
	Off         int
}

// Decoder pulls consecutive elements out of a span of its input. The
// elements inside a constructed one are read with Children; nothing
// is parsed before it is asked for.
type Decoder struct {
	in       []byte
	pos, end int
}

// NewDecoder returns a decoder over the elements laid end to end in
// buf. Element offsets are relative to buf.
func NewDecoder(buf []byte) Decoder { return Decoder{in: buf, end: len(buf)} }

// More reports whether any input is left.
func (d *Decoder) More() bool { return d.pos < d.end }

// Next reads the element at the front of the remaining input. Its
// header must be well formed and its content must fit the span; the
// content of a constructed element is not examined.
func (d *Decoder) Next() (Element, error) {
	buf := d.in[d.pos:d.end]
	el, hdr, n, err := parseHeader(buf)
	if err != nil {
		return Element{}, err
	}
	if hdr+n > len(buf) {
		return Element{}, ErrTruncated
	}
	el.Content = buf[hdr : hdr+n]
	el.Off = d.pos + hdr
	d.pos = el.Off + n
	return el, nil
}

// Children returns a decoder over the elements inside e, which Next
// returned; it is empty when e is primitive.
func (d *Decoder) Children(e Element) Decoder {
	if !e.Constructed {
		return Decoder{in: d.in, pos: e.Off, end: e.Off}
	}
	return Decoder{in: d.in, pos: e.Off, end: e.Off + len(e.Content)}
}

// Skip checks that the remaining input is a series of well-formed
// elements, constructed ones all the way down, and consumes it.
func (d *Decoder) Skip() error {
	if err := Check(d.in[d.pos:d.end]); err != nil {
		return err
	}
	d.pos = d.end
	return nil
}

// Check reports whether buf is a series of well-formed elements,
// looking inside every constructed one. It walks the nesting with an
// explicit stack rather than recursion, so no input can exhaust the
// goroutine stack.
func Check(buf []byte) error {
	var stack [16]int
	ends := stack[:0] // end offsets of the enclosing constructed elements
	pos, end := 0, len(buf)
	for {
		for pos == end {
			if len(ends) == 0 {
				return nil
			}
			end = ends[len(ends)-1]
			ends = ends[:len(ends)-1]
		}
		el, hdr, n, err := parseHeader(buf[pos:end])
		if err != nil {
			return err
		}
		next := pos + hdr + n
		if next > end {
			return ErrTruncated
		}
		if el.Constructed {
			ends = append(ends, end)
			pos, end = pos+hdr, next
		} else {
			pos = next
		}
	}
}

// ElementSize returns the encoded size of the element at the front of
// buf, of which only the header need be present. It fails with
// ErrTruncated when even the header is incomplete.
func ElementSize(buf []byte) (int, error) {
	_, hdr, n, err := parseHeader(buf)
	if err != nil {
		return 0, err
	}
	return hdr + n, nil
}

// parseHeader parses the identifier and length octets at the front of
// buf: it returns the element's identifier (Content and Off unset), the
// header's size and the declared content length.
func parseHeader(buf []byte) (el Element, hdr, length int, err error) {
	if len(buf) < 2 {
		return Element{}, 0, 0, ErrTruncated
	}
	b := buf[0]
	el.Class = Class(b & 0xC0)
	el.Constructed = b&0x20 != 0
	tag := int(b & 0x1F)
	idx := 1
	if tag == 0x1F {
		tag = 0
		for {
			if idx >= len(buf) {
				return Element{}, 0, 0, ErrTruncated
			}
			c := buf[idx]
			idx++
			tag = tag<<7 | int(c&0x7F)
			if c&0x80 == 0 {
				break
			}
			if tag > 1<<24 {
				return Element{}, 0, 0, errors.New("ber: tag too large")
			}
		}
	}
	el.Tag = tag
	if idx >= len(buf) {
		return Element{}, 0, 0, ErrTruncated
	}
	length = int(buf[idx])
	idx++
	if length&0x80 != 0 {
		nbytes := length & 0x7F
		if nbytes == 0 {
			return Element{}, 0, 0, errors.New("ber: indefinite length unsupported")
		}
		if nbytes > 4 {
			return Element{}, 0, 0, errors.New("ber: length too large")
		}
		if idx+nbytes > len(buf) {
			return Element{}, 0, 0, ErrTruncated
		}
		length = 0
		for i := 0; i < nbytes; i++ {
			length = length<<8 | int(buf[idx])
			idx++
		}
	}
	if length > MaxElementSize {
		return Element{}, 0, 0, errors.New("ber: element exceeds size limit")
	}
	return el, idx, length, nil
}

// ParseInt decodes the contents of an INTEGER or ENUMERATED element.
func ParseInt(content []byte) (int64, error) {
	if len(content) == 0 || len(content) > 8 {
		return 0, fmt.Errorf("ber: integer with %d content bytes", len(content))
	}
	v := int64(0)
	if content[0]&0x80 != 0 {
		v = -1 // sign-extend
	}
	for _, b := range content {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// ParseBool decodes the contents of a BOOLEAN element.
func ParseBool(content []byte) (bool, error) {
	if len(content) != 1 {
		return false, fmt.Errorf("ber: boolean with %d content bytes", len(content))
	}
	return content[0] != 0, nil
}

// ReadElement reads exactly one BER element from r, using the length
// header to frame it (the standard LDAP framing technique). The
// header is assembled in a stack array and the element lands in one
// exactly-sized buffer: a single allocation per message, versus the
// seed's three (header, long-form length, body). Wrap r in a
// bufio.Reader to also collapse the header byte reads into one
// kernel read per buffered chunk.
func ReadElement(r io.Reader) ([]byte, error) {
	// hdr holds tag octets + length octets. 16 bytes covers any tag
	// LDAP (or any sane peer) produces plus a 4-byte long-form
	// length; a longer header is rejected as hostile.
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:2]); err != nil {
		return nil, err
	}
	n := 2
	readByte := func() (byte, error) {
		if n >= len(hdr) {
			return 0, errors.New("ber: header too long")
		}
		if _, err := io.ReadFull(r, hdr[n:n+1]); err != nil {
			return 0, err
		}
		n++
		return hdr[n-1], nil
	}
	// Skip high-tag-number bytes: hdr[1] was the first tag byte; keep
	// reading until the continuation bit clears, then read the length
	// byte.
	if hdr[0]&0x1F == 0x1F {
		b := hdr[1]
		var err error
		for b&0x80 != 0 {
			if b, err = readByte(); err != nil {
				return nil, err
			}
		}
		if _, err = readByte(); err != nil {
			return nil, err
		}
	}
	lengthByte := hdr[n-1]
	length := int(lengthByte)
	if lengthByte&0x80 != 0 {
		nbytes := int(lengthByte & 0x7F)
		if nbytes == 0 || nbytes > 4 {
			return nil, errors.New("ber: unsupported length form")
		}
		if n+nbytes > len(hdr) {
			return nil, errors.New("ber: header too long")
		}
		if _, err := io.ReadFull(r, hdr[n:n+nbytes]); err != nil {
			return nil, err
		}
		length = 0
		for _, b := range hdr[n : n+nbytes] {
			length = length<<8 | int(b)
		}
		n += nbytes
	}
	if length > MaxElementSize {
		return nil, errors.New("ber: element exceeds size limit")
	}
	buf := make([]byte, n+length)
	copy(buf, hdr[:n])
	if _, err := io.ReadFull(r, buf[n:]); err != nil {
		return nil, err
	}
	return buf, nil
}
