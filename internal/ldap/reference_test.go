package ldap

// The tree decoder the streaming codec replaced, kept only as the
// reference FuzzDecodeDifferential compares Decode against: every
// element is parsed into a refPacket tree (recursively, with no depth
// bound) and the LDAP message is then read out of the tree.

import (
	"errors"
	"fmt"

	"repro/internal/ber"
)

// refPacket is one BER element.
type refPacket struct {
	Class       ber.Class
	Constructed bool
	Tag         int
	Value       []byte       // primitive contents
	Children    []*refPacket // constructed contents
}

// Bool decodes a BOOLEAN packet.
func (p *refPacket) Bool() (bool, error) {
	if len(p.Value) != 1 {
		return false, fmt.Errorf("ber: boolean with %d content bytes", len(p.Value))
	}
	return p.Value[0] != 0, nil
}

// Int decodes an INTEGER or ENUMERATED packet.
func (p *refPacket) Int() (int64, error) {
	if len(p.Value) == 0 || len(p.Value) > 8 {
		return 0, fmt.Errorf("ber: integer with %d content bytes", len(p.Value))
	}
	v := int64(0)
	if p.Value[0]&0x80 != 0 {
		v = -1 // sign-extend
	}
	for _, b := range p.Value {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// Str returns the contents as a string.
func (p *refPacket) Str() string { return string(p.Value) }

// Child returns the i-th child, or nil when out of range, so callers
// can chain lookups and check once.
func (p *refPacket) Child(i int) *refPacket {
	if i < 0 || i >= len(p.Children) {
		return nil
	}
	return p.Children[i]
}

// Parse decodes one element from buf, returning the element and the
// remaining bytes.
func refParse(buf []byte) (*refPacket, []byte, error) {
	p, n, err := refParseElem(buf)
	if err != nil {
		return nil, buf, err
	}
	return p, buf[n:], nil
}

func refParseElem(buf []byte) (*refPacket, int, error) {
	if len(buf) < 2 {
		return nil, 0, ber.ErrTruncated
	}
	b := buf[0]
	class := ber.Class(b & 0xC0)
	constructed := b&0x20 != 0
	tag := int(b & 0x1F)
	idx := 1
	if tag == 0x1F {
		tag = 0
		for {
			if idx >= len(buf) {
				return nil, 0, ber.ErrTruncated
			}
			c := buf[idx]
			idx++
			tag = tag<<7 | int(c&0x7F)
			if c&0x80 == 0 {
				break
			}
			if tag > 1<<24 {
				return nil, 0, errors.New("ber: tag too large")
			}
		}
	}
	if idx >= len(buf) {
		return nil, 0, ber.ErrTruncated
	}
	length := int(buf[idx])
	idx++
	if length&0x80 != 0 {
		nbytes := length & 0x7F
		if nbytes == 0 {
			return nil, 0, errors.New("ber: indefinite length unsupported")
		}
		if nbytes > 4 {
			return nil, 0, errors.New("ber: length too large")
		}
		if idx+nbytes > len(buf) {
			return nil, 0, ber.ErrTruncated
		}
		length = 0
		for i := 0; i < nbytes; i++ {
			length = length<<8 | int(buf[idx])
			idx++
		}
	}
	if length > ber.MaxElementSize {
		return nil, 0, errors.New("ber: element exceeds size limit")
	}
	if idx+length > len(buf) {
		return nil, 0, ber.ErrTruncated
	}
	content := buf[idx : idx+length]
	p := &refPacket{Class: class, Constructed: constructed, Tag: tag}
	if constructed {
		rest := content
		for len(rest) > 0 {
			child, n, err := refParseElem(rest)
			if err != nil {
				return nil, 0, err
			}
			p.Children = append(p.Children, child)
			rest = rest[n:]
		}
	} else {
		p.Value = append([]byte(nil), content...)
	}
	return p, idx + length, nil
}

// Decode parses one LDAPMessage from buf.
func refDecode(buf []byte) (*Message, error) {
	env, _, err := refParse(buf)
	if err != nil {
		return nil, err
	}
	if env.Tag != ber.TagSequence || len(env.Children) < 2 {
		return nil, decodeErr("envelope is not SEQUENCE{id, op}")
	}
	id, err := env.Child(0).Int()
	if err != nil {
		return nil, decodeErr("message ID: %v", err)
	}
	opp := env.Child(1)
	if opp.Class != ber.ClassApplication {
		return nil, decodeErr("op class %d", opp.Class)
	}
	op, err := refDecodeOp(opp)
	if err != nil {
		return nil, err
	}
	return &Message{ID: id, Op: op}, nil
}

func refDecodeResult(p *refPacket) (Result, error) {
	if len(p.Children) < 3 {
		return Result{}, decodeErr("result with %d children", len(p.Children))
	}
	code, err := p.Child(0).Int()
	if err != nil {
		return Result{}, decodeErr("result code: %v", err)
	}
	return Result{
		Code:      ResultCode(code),
		MatchedDN: p.Child(1).Str(),
		Message:   p.Child(2).Str(),
	}, nil
}

func refDecodeAttrList(p *refPacket) (map[string][]string, error) {
	attrs := make(map[string][]string, len(p.Children))
	for _, ap := range p.Children {
		if len(ap.Children) != 2 {
			return nil, decodeErr("attribute with %d children", len(ap.Children))
		}
		name := ap.Child(0).Str()
		for _, vp := range ap.Child(1).Children {
			attrs[name] = append(attrs[name], vp.Str())
		}
	}
	return attrs, nil
}

func refDecodeFilter(p *refPacket) (Filter, error) {
	if p.Class != ber.ClassContext {
		return Filter{}, decodeErr("filter class %d", p.Class)
	}
	switch p.Tag {
	case 0, 1: // and, or
		kind := FilterAnd
		if p.Tag == 1 {
			kind = FilterOr
		}
		f := Filter{Kind: kind}
		for _, c := range p.Children {
			cf, err := refDecodeFilter(c)
			if err != nil {
				return Filter{}, err
			}
			f.Children = append(f.Children, cf)
		}
		return f, nil
	case 2: // not
		if len(p.Children) != 1 {
			return Filter{}, decodeErr("NOT filter with %d children", len(p.Children))
		}
		cf, err := refDecodeFilter(p.Child(0))
		if err != nil {
			return Filter{}, err
		}
		return Filter{Kind: FilterNot, Children: []Filter{cf}}, nil
	case 3: // equalityMatch
		if len(p.Children) != 2 {
			return Filter{}, decodeErr("equality filter with %d children", len(p.Children))
		}
		return Eq(p.Child(0).Str(), p.Child(1).Str()), nil
	case 7: // present
		return Present(string(p.Value)), nil
	}
	return Filter{}, decodeErr("unsupported filter tag %d", p.Tag)
}

func refDecodeOp(p *refPacket) (any, error) {
	switch p.Tag {
	case appBindRequest:
		if len(p.Children) < 3 {
			return nil, decodeErr("bind request")
		}
		ver, err := p.Child(0).Int()
		if err != nil {
			return nil, decodeErr("bind version: %v", err)
		}
		return &BindRequest{
			Version:  ver,
			DN:       p.Child(1).Str(),
			Password: string(p.Child(2).Value),
		}, nil
	case appBindResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &BindResponse{r}, nil
	case appUnbindRequest:
		return &UnbindRequest{}, nil
	case appSearchRequest:
		if len(p.Children) < 8 {
			return nil, decodeErr("search request with %d children", len(p.Children))
		}
		scope, err1 := p.Child(1).Int()
		deref, err2 := p.Child(2).Int()
		size, err3 := p.Child(3).Int()
		tl, err4 := p.Child(4).Int()
		tOnly, err5 := p.Child(5).Bool()
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				return nil, decodeErr("search request field: %v", err)
			}
		}
		f, err := refDecodeFilter(p.Child(6))
		if err != nil {
			return nil, err
		}
		var attrs []string
		for _, ap := range p.Child(7).Children {
			attrs = append(attrs, ap.Str())
		}
		return &SearchRequest{
			BaseDN: p.Child(0).Str(), Scope: scope, Deref: deref,
			SizeLimit: size, TimeLimit: tl, TypesOnly: tOnly,
			Filter: f, Attributes: attrs,
		}, nil
	case appSearchEntry:
		if len(p.Children) < 2 {
			return nil, decodeErr("search entry")
		}
		attrs, err := refDecodeAttrList(p.Child(1))
		if err != nil {
			return nil, err
		}
		return &SearchEntry{DN: p.Child(0).Str(), Attrs: attrs}, nil
	case appSearchDone:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &SearchDone{r}, nil
	case appModifyRequest:
		if len(p.Children) < 2 {
			return nil, decodeErr("modify request")
		}
		req := &ModifyRequest{DN: p.Child(0).Str()}
		for _, cp := range p.Child(1).Children {
			if len(cp.Children) != 2 || len(cp.Child(1).Children) != 2 {
				return nil, decodeErr("modify change")
			}
			opv, err := cp.Child(0).Int()
			if err != nil {
				return nil, decodeErr("modify change op: %v", err)
			}
			ch := Change{Op: ChangeOp(opv), Attr: cp.Child(1).Child(0).Str()}
			for _, vp := range cp.Child(1).Child(1).Children {
				ch.Vals = append(ch.Vals, vp.Str())
			}
			req.Changes = append(req.Changes, ch)
		}
		return req, nil
	case appModifyResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &ModifyResponse{r}, nil
	case appAddRequest:
		if len(p.Children) < 2 {
			return nil, decodeErr("add request")
		}
		attrs, err := refDecodeAttrList(p.Child(1))
		if err != nil {
			return nil, err
		}
		return &AddRequest{DN: p.Child(0).Str(), Attrs: attrs}, nil
	case appAddResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &AddResponse{r}, nil
	case appDelRequest:
		return &DelRequest{DN: string(p.Value)}, nil
	case appDelResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &DelResponse{r}, nil
	case appCompareRequest:
		if len(p.Children) < 2 || len(p.Child(1).Children) != 2 {
			return nil, decodeErr("compare request")
		}
		return &CompareRequest{
			DN:    p.Child(0).Str(),
			Attr:  p.Child(1).Child(0).Str(),
			Value: p.Child(1).Child(1).Str(),
		}, nil
	case appCompareResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		return &CompareResponse{r}, nil
	case appExtendedRequest:
		req := &ExtendedRequest{}
		for _, c := range p.Children {
			switch c.Tag {
			case 0:
				req.Name = string(c.Value)
			case 1:
				req.Value = append([]byte(nil), c.Value...)
			}
		}
		return req, nil
	case appExtendedResponse:
		r, err := refDecodeResult(p)
		if err != nil {
			return nil, err
		}
		resp := &ExtendedResponse{Result: r}
		for _, c := range p.Children[3:] {
			switch c.Tag {
			case 10:
				resp.Name = string(c.Value)
			case 11:
				resp.Value = append([]byte(nil), c.Value...)
			}
		}
		return resp, nil
	}
	return nil, decodeErr("unsupported op tag %d", p.Tag)
}
