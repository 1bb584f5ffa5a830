package ldap

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/ber"
)

// maxFilterDepth bounds how deeply a search filter nests: the top
// filter is at depth 1, each AND/OR/NOT adds one. Filters are the only
// recursive part of a message, so the bound keeps a hostile request
// from exhausting the goroutine stack; real filters nest a few levels.
const maxFilterDepth = 32

// Encode serializes the message.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendTo(nil)
}

// AppendTo appends the message's wire encoding to dst and returns the
// extended slice. Elements are written straight into dst, so a caller
// that reuses dst (the server's per-connection write buffer, the
// client's request buffer) encodes without allocating. On error dst
// is returned at its original length.
func (m *Message) AppendTo(dst []byte) ([]byte, error) {
	return appendMessage(dst, m.ID, m.Op)
}

func appendMessage(dst []byte, id int64, op any) ([]byte, error) {
	e := ber.Encoder{Buf: dst}
	env := e.Begin(ber.ClassUniversal, ber.TagSequence)
	e.Int(ber.TagInteger, id)
	if err := appendOp(&e, op); err != nil {
		return dst, err
	}
	e.End(env)
	return e.Buf, nil
}

// beginResult opens an LDAPResult-shaped op and writes its three
// result fields; the caller appends any further fields and closes it.
func beginResult(e *ber.Encoder, tag int, r Result) int {
	m := e.Begin(ber.ClassApplication, tag)
	e.Int(ber.TagEnumerated, int64(r.Code))
	e.OctetString(r.MatchedDN)
	e.OctetString(r.Message)
	return m
}

// appendValues writes SET OF values.
func appendValues(e *ber.Encoder, vals []string) {
	set := e.Begin(ber.ClassUniversal, ber.TagSet)
	for _, v := range vals {
		e.OctetString(v)
	}
	e.End(set)
}

// appendAttrList writes an attribute list, names in sorted order so
// the encoding is deterministic.
func appendAttrList(e *ber.Encoder, attrs map[string][]string) {
	// The array keeps the sort off the heap for entries of usual width.
	var stack [32]string
	names := stack[:0]
	for a := range attrs {
		names = append(names, a)
	}
	slices.Sort(names)
	list := e.Begin(ber.ClassUniversal, ber.TagSequence)
	for _, name := range names {
		attr := e.Begin(ber.ClassUniversal, ber.TagSequence)
		e.OctetString(name)
		appendValues(e, attrs[name])
		e.End(attr)
	}
	e.End(list)
}

// filterTags maps the boolean filter kinds to their context tags.
var filterTags = [...]int{FilterAnd: 0, FilterOr: 1, FilterNot: 2}

func appendFilter(e *ber.Encoder, f Filter, depth int) error {
	if depth > maxFilterDepth {
		return fmt.Errorf("ldap: filter nests deeper than %d levels", maxFilterDepth)
	}
	switch f.Kind {
	case FilterAnd, FilterOr, FilterNot:
		if f.Kind == FilterNot && len(f.Children) != 1 {
			return fmt.Errorf("ldap: NOT filter needs exactly one child")
		}
		m := e.Begin(ber.ClassContext, filterTags[f.Kind])
		for _, c := range f.Children {
			if err := appendFilter(e, c, depth+1); err != nil {
				return err
			}
		}
		e.End(m)
	case FilterEquality:
		m := e.Begin(ber.ClassContext, 3)
		e.OctetString(f.Attr)
		e.OctetString(f.Value)
		e.End(m)
	case FilterPresent:
		e.String(ber.ClassContext, 7, f.Attr)
	default:
		return fmt.Errorf("ldap: unsupported filter kind %d", f.Kind)
	}
	return nil
}

func appendOp(e *ber.Encoder, op any) error {
	switch o := op.(type) {
	case *BindRequest:
		m := e.Begin(ber.ClassApplication, appBindRequest)
		e.Int(ber.TagInteger, o.Version)
		e.OctetString(o.DN)
		e.String(ber.ClassContext, 0, o.Password)
		e.End(m)
	case *BindResponse:
		e.End(beginResult(e, appBindResponse, o.Result))
	case *UnbindRequest:
		e.String(ber.ClassApplication, appUnbindRequest, "")
	case *SearchRequest:
		m := e.Begin(ber.ClassApplication, appSearchRequest)
		e.OctetString(o.BaseDN)
		e.Int(ber.TagEnumerated, o.Scope)
		e.Int(ber.TagEnumerated, o.Deref)
		e.Int(ber.TagInteger, o.SizeLimit)
		e.Int(ber.TagInteger, o.TimeLimit)
		e.Bool(o.TypesOnly)
		if err := appendFilter(e, o.Filter, 1); err != nil {
			return err
		}
		attrs := e.Begin(ber.ClassUniversal, ber.TagSequence)
		for _, a := range o.Attributes {
			e.OctetString(a)
		}
		e.End(attrs)
		e.End(m)
	case *SearchEntry:
		m := e.Begin(ber.ClassApplication, appSearchEntry)
		e.OctetString(o.DN)
		appendAttrList(e, o.Attrs)
		e.End(m)
	case *SearchDone:
		e.End(beginResult(e, appSearchDone, o.Result))
	case *ModifyRequest:
		m := e.Begin(ber.ClassApplication, appModifyRequest)
		e.OctetString(o.DN)
		changes := e.Begin(ber.ClassUniversal, ber.TagSequence)
		for _, c := range o.Changes {
			ch := e.Begin(ber.ClassUniversal, ber.TagSequence)
			e.Int(ber.TagEnumerated, int64(c.Op))
			attr := e.Begin(ber.ClassUniversal, ber.TagSequence)
			e.OctetString(c.Attr)
			appendValues(e, c.Vals)
			e.End(attr)
			e.End(ch)
		}
		e.End(changes)
		e.End(m)
	case *ModifyResponse:
		e.End(beginResult(e, appModifyResponse, o.Result))
	case *AddRequest:
		m := e.Begin(ber.ClassApplication, appAddRequest)
		e.OctetString(o.DN)
		appendAttrList(e, o.Attrs)
		e.End(m)
	case *AddResponse:
		e.End(beginResult(e, appAddResponse, o.Result))
	case *DelRequest:
		e.String(ber.ClassApplication, appDelRequest, o.DN)
	case *DelResponse:
		e.End(beginResult(e, appDelResponse, o.Result))
	case *CompareRequest:
		m := e.Begin(ber.ClassApplication, appCompareRequest)
		e.OctetString(o.DN)
		ava := e.Begin(ber.ClassUniversal, ber.TagSequence)
		e.OctetString(o.Attr)
		e.OctetString(o.Value)
		e.End(ava)
		e.End(m)
	case *CompareResponse:
		e.End(beginResult(e, appCompareResponse, o.Result))
	case *ExtendedRequest:
		m := e.Begin(ber.ClassApplication, appExtendedRequest)
		e.String(ber.ClassContext, 0, o.Name)
		if o.Value != nil {
			e.Bytes(ber.ClassContext, 1, o.Value)
		}
		e.End(m)
	case *ExtendedResponse:
		m := beginResult(e, appExtendedResponse, o.Result)
		e.String(ber.ClassContext, 10, o.Name)
		if o.Value != nil {
			e.Bytes(ber.ClassContext, 11, o.Value)
		}
		e.End(m)
	default:
		// reflect.TypeOf, unlike fmt's %T, does not make op escape,
		// so callers' ops can stay on the stack.
		return fmt.Errorf("ldap: cannot encode op %v", reflect.TypeOf(op))
	}
	return nil
}

// Decode parses one LDAPMessage from buf; bytes after it are ignored.
// The message is copied into one string that every string field of
// the result is a substring of, so buf is not retained.
func Decode(buf []byte) (*Message, error) {
	id, op, err := decodeMessage(buf)
	if err != nil {
		return nil, err
	}
	return &Message{ID: id, Op: op}, nil
}

func decodeMessage(buf []byte) (int64, any, error) {
	top := ber.NewDecoder(buf)
	env, err := top.Next()
	if err != nil {
		return 0, nil, err
	}
	if env.Tag != ber.TagSequence || !env.Constructed {
		return 0, nil, decodeErr("envelope is not SEQUENCE{id, op}")
	}
	d := decoder{root: top, in: buf[:env.Off+len(env.Content)]}
	fields := d.kids(env)
	idEl := d.next(&fields, "envelope")
	opEl := d.next(&fields, "envelope")
	id := d.int(idEl, "message ID")
	if d.err == nil && opEl.Class != ber.ClassApplication {
		d.fail(decodeErr("op class %d", opEl.Class))
	}
	op := d.op(opEl)
	d.skip(&fields) // controls: well formed, ignored
	if d.err != nil {
		return 0, nil, d.err
	}
	return id, op, nil
}

// decoder reads the fields of one message out of its bytes. The first
// error sticks: later reads return zero values and the caller checks
// err once. Every element of the message is either read or checked,
// so a message is accepted only if all of it is well formed.
type decoder struct {
	root ber.Decoder
	in   []byte // the message
	s    string // in as a string, converted at the first string read
	err  error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// next returns c's next element, failing when c has none left.
func (d *decoder) next(c *ber.Decoder, what string) ber.Element {
	if d.err != nil {
		return ber.Element{}
	}
	if !c.More() {
		d.fail(decodeErr("%s: missing element", what))
		return ber.Element{}
	}
	el, err := c.Next()
	if err != nil {
		d.fail(err)
	}
	return el
}

// more reports whether c has elements left and nothing has failed.
func (d *decoder) more(c *ber.Decoder) bool { return d.err == nil && c.More() }

// end fails unless c is exhausted.
func (d *decoder) end(c *ber.Decoder, what string) {
	if d.more(c) {
		d.fail(decodeErr("%s: unexpected element", what))
	}
}

// kids returns a decoder over e's children; a primitive has none.
func (d *decoder) kids(e ber.Element) ber.Decoder { return d.root.Children(e) }

// count returns how many elements c holds, without consuming them.
func count(c ber.Decoder) int {
	n := 0
	for c.More() {
		if _, err := c.Next(); err != nil {
			break
		}
		n++
	}
	return n
}

// check fails unless everything inside e is well formed.
func (d *decoder) check(e ber.Element) {
	if e.Constructed && d.err == nil {
		if err := ber.Check(e.Content); err != nil {
			d.fail(err)
		}
	}
}

// skip checks and consumes c's remaining elements.
func (d *decoder) skip(c *ber.Decoder) {
	if d.err == nil {
		if err := c.Skip(); err != nil {
			d.fail(err)
		}
	}
}

// str returns e's contents as a substring of the message. A
// constructed element has no contents and reads as "".
func (d *decoder) str(e ber.Element) string {
	if e.Constructed {
		d.check(e)
		return ""
	}
	if len(e.Content) == 0 || d.err != nil {
		return ""
	}
	if d.s == "" {
		d.s = string(d.in)
	}
	return d.s[e.Off : e.Off+len(e.Content)]
}

// bytes returns a copy of e's contents, nil when there are none.
func (d *decoder) bytes(e ber.Element) []byte {
	if e.Constructed {
		d.check(e)
		return nil
	}
	if len(e.Content) == 0 {
		return nil
	}
	return append([]byte(nil), e.Content...)
}

func (d *decoder) int(e ber.Element, what string) int64 {
	if d.err != nil {
		return 0
	}
	var content []byte
	if !e.Constructed {
		content = e.Content
	}
	v, err := ber.ParseInt(content)
	if err != nil {
		d.fail(decodeErr("%s: %v", what, err))
	}
	return v
}

func (d *decoder) bool(e ber.Element, what string) bool {
	if d.err != nil {
		return false
	}
	var content []byte
	if !e.Constructed {
		content = e.Content
	}
	v, err := ber.ParseBool(content)
	if err != nil {
		d.fail(decodeErr("%s: %v", what, err))
	}
	return v
}

// result reads an LDAPResult's three fields from c.
func (d *decoder) result(c *ber.Decoder) Result {
	var r Result
	r.Code = ResultCode(d.int(d.next(c, "result"), "result code"))
	r.MatchedDN = d.str(d.next(c, "result"))
	r.Message = d.str(d.next(c, "result"))
	return r
}

// onlyResult reads an op that is an LDAPResult and nothing more.
func (d *decoder) onlyResult(c *ber.Decoder) Result {
	r := d.result(c)
	d.skip(c)
	return r
}

// strings reads every element of c as a string; nil when c is empty.
func (d *decoder) strings(c ber.Decoder, what string) []string {
	n := count(c)
	if n == 0 {
		d.skip(&c)
		return nil
	}
	out := make([]string, 0, n)
	for d.more(&c) {
		out = append(out, d.str(d.next(&c, what)))
	}
	return out
}

// attrList reads an attribute list. All its values share one backing
// array, each attribute's slice capped so appending to it copies.
// Attributes without values are left out, and a repeated name
// accumulates its values.
func (d *decoder) attrList(p ber.Element) map[string][]string {
	if d.err != nil {
		return nil
	}
	list := d.kids(p)
	nAttrs, nVals := 0, 0
	for scan := list; scan.More(); nAttrs++ {
		attr, err := scan.Next()
		if err != nil {
			break
		}
		parts := d.kids(attr)
		if _, err := parts.Next(); err != nil {
			continue
		}
		if set, err := parts.Next(); err == nil {
			nVals += count(d.kids(set))
		}
	}
	attrs := make(map[string][]string, nAttrs)
	vals := make([]string, 0, nVals)
	for d.more(&list) {
		parts := d.kids(d.next(&list, "attribute"))
		name := d.str(d.next(&parts, "attribute"))
		set := d.kids(d.next(&parts, "attribute"))
		d.end(&parts, "attribute")
		start := len(vals)
		for d.more(&set) {
			vals = append(vals, d.str(d.next(&set, "attribute value")))
		}
		if len(vals) == start {
			continue
		}
		vs := vals[start:len(vals):len(vals)]
		if prev, ok := attrs[name]; ok {
			vs = append(prev, vs...)
		}
		attrs[name] = vs
	}
	return attrs
}

// filter reads a search filter at the given nesting depth.
func (d *decoder) filter(p ber.Element, depth int) Filter {
	if d.err != nil {
		return Filter{}
	}
	if depth > maxFilterDepth {
		d.fail(decodeErr("filter nests deeper than %d levels", maxFilterDepth))
		return Filter{}
	}
	if p.Class != ber.ClassContext {
		d.fail(decodeErr("filter class %d", p.Class))
		return Filter{}
	}
	c := d.kids(p)
	switch p.Tag {
	case 0, 1: // and, or
		f := Filter{Kind: FilterAnd}
		if p.Tag == 1 {
			f.Kind = FilterOr
		}
		if n := count(c); n > 0 {
			f.Children = make([]Filter, 0, n)
		}
		for d.more(&c) {
			f.Children = append(f.Children, d.filter(d.next(&c, "filter"), depth+1))
		}
		return f
	case 2: // not
		child := d.filter(d.next(&c, "NOT filter"), depth+1)
		d.end(&c, "NOT filter")
		return Filter{Kind: FilterNot, Children: []Filter{child}}
	case 3: // equalityMatch
		attr := d.str(d.next(&c, "equality filter"))
		value := d.str(d.next(&c, "equality filter"))
		d.end(&c, "equality filter")
		return Eq(attr, value)
	case 7: // present
		return Present(d.str(p))
	}
	d.fail(decodeErr("unsupported filter tag %d", p.Tag))
	return Filter{}
}

// op reads a protocol op.
func (d *decoder) op(p ber.Element) any {
	if d.err != nil {
		return nil
	}
	c := d.kids(p)
	switch p.Tag {
	case appBindRequest:
		req := &BindRequest{}
		req.Version = d.int(d.next(&c, "bind request"), "bind version")
		req.DN = d.str(d.next(&c, "bind request"))
		req.Password = d.str(d.next(&c, "bind request"))
		d.skip(&c)
		return req
	case appBindResponse:
		return &BindResponse{d.onlyResult(&c)}
	case appUnbindRequest:
		d.skip(&c)
		return &UnbindRequest{}
	case appSearchRequest:
		const what = "search request"
		req := &SearchRequest{}
		base := d.next(&c, what)
		req.Scope = d.int(d.next(&c, what), "search scope")
		req.Deref = d.int(d.next(&c, what), "search deref")
		req.SizeLimit = d.int(d.next(&c, what), "search size limit")
		req.TimeLimit = d.int(d.next(&c, what), "search time limit")
		req.TypesOnly = d.bool(d.next(&c, what), "search typesOnly")
		// The filter goes before the first string read, which copies
		// the message: a hostile one is rejected before the copy.
		req.Filter = d.filter(d.next(&c, what), 1)
		req.BaseDN = d.str(base)
		req.Attributes = d.strings(d.kids(d.next(&c, what)), what)
		d.skip(&c)
		return req
	case appSearchEntry:
		e := &SearchEntry{}
		e.DN = d.str(d.next(&c, "search entry"))
		e.Attrs = d.attrList(d.next(&c, "search entry"))
		d.skip(&c)
		return e
	case appSearchDone:
		return &SearchDone{d.onlyResult(&c)}
	case appModifyRequest:
		const what = "modify request"
		req := &ModifyRequest{DN: d.str(d.next(&c, what))}
		changes := d.kids(d.next(&c, what))
		if n := count(changes); n > 0 {
			req.Changes = make([]Change, 0, n)
		}
		for d.more(&changes) {
			parts := d.kids(d.next(&changes, what))
			opEl := d.next(&parts, "modify change")
			attr := d.kids(d.next(&parts, "modify change"))
			d.end(&parts, "modify change")
			name := d.next(&attr, "modify change")
			set := d.next(&attr, "modify change")
			d.end(&attr, "modify change")
			ch := Change{Op: ChangeOp(d.int(opEl, "modify change op")), Attr: d.str(name)}
			ch.Vals = d.strings(d.kids(set), what)
			req.Changes = append(req.Changes, ch)
		}
		d.skip(&c)
		return req
	case appModifyResponse:
		return &ModifyResponse{d.onlyResult(&c)}
	case appAddRequest:
		req := &AddRequest{}
		req.DN = d.str(d.next(&c, "add request"))
		req.Attrs = d.attrList(d.next(&c, "add request"))
		d.skip(&c)
		return req
	case appAddResponse:
		return &AddResponse{d.onlyResult(&c)}
	case appDelRequest:
		return &DelRequest{DN: d.str(p)}
	case appDelResponse:
		return &DelResponse{d.onlyResult(&c)}
	case appCompareRequest:
		const what = "compare request"
		req := &CompareRequest{DN: d.str(d.next(&c, what))}
		ava := d.kids(d.next(&c, what))
		req.Attr = d.str(d.next(&ava, what))
		req.Value = d.str(d.next(&ava, what))
		d.end(&ava, what)
		d.skip(&c)
		return req
	case appCompareResponse:
		return &CompareResponse{d.onlyResult(&c)}
	case appExtendedRequest:
		req := &ExtendedRequest{}
		for d.more(&c) {
			el := d.next(&c, "extended request")
			switch el.Tag {
			case 0:
				req.Name = d.str(el)
			case 1:
				req.Value = d.bytes(el)
			default:
				d.check(el)
			}
		}
		return req
	case appExtendedResponse:
		resp := &ExtendedResponse{Result: d.result(&c)}
		for d.more(&c) {
			el := d.next(&c, "extended response")
			switch el.Tag {
			case 10:
				resp.Name = d.str(el)
			case 11:
				resp.Value = d.bytes(el)
			default:
				d.check(el)
			}
		}
		return resp
	}
	d.fail(decodeErr("unsupported op tag %d", p.Tag))
	return nil
}
