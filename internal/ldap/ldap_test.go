package ldap

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func msgRoundTrip(t *testing.T, op any) any {
	t.Helper()
	m := &Message{ID: 7, Op: op}
	buf, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.ID != 7 {
		t.Fatalf("ID = %d", got.ID)
	}
	return got.Op
}

func TestBindRoundTrip(t *testing.T) {
	op := msgRoundTrip(t, &BindRequest{Version: 3, DN: "cn=ps", Password: "secret"})
	req := op.(*BindRequest)
	if req.Version != 3 || req.DN != "cn=ps" || req.Password != "secret" {
		t.Fatalf("bind = %+v", req)
	}
	op = msgRoundTrip(t, &BindResponse{Result{Code: ResultSuccess, Message: "ok"}})
	if resp := op.(*BindResponse); resp.Code != ResultSuccess || resp.Message != "ok" {
		t.Fatalf("bind response = %+v", resp)
	}
}

func TestSearchRequestRoundTrip(t *testing.T) {
	f := And(Eq("objectClass", "udrSubscription"), Or(Eq("msisdn", "34600000001"), Present("imsi")))
	op := msgRoundTrip(t, &SearchRequest{
		BaseDN: "ou=subscribers,dc=udr", Scope: ScopeWholeSubtree,
		SizeLimit: 10, TimeLimit: 5, TypesOnly: false,
		Filter: f, Attributes: []string{"msisdn", "imsi"},
	})
	req := op.(*SearchRequest)
	if req.BaseDN != "ou=subscribers,dc=udr" || req.Scope != ScopeWholeSubtree {
		t.Fatalf("search = %+v", req)
	}
	if req.Filter.String() != f.String() {
		t.Fatalf("filter = %s, want %s", req.Filter, f)
	}
	if len(req.Attributes) != 2 {
		t.Fatalf("attrs = %v", req.Attributes)
	}
}

func TestSearchEntryRoundTrip(t *testing.T) {
	op := msgRoundTrip(t, &SearchEntry{
		DN:    "uid=sub-1,ou=subscribers,dc=udr",
		Attrs: map[string][]string{"msisdn": {"34600000001"}, "impu": {"sip:a", "tel:b"}},
	})
	e := op.(*SearchEntry)
	if e.DN != "uid=sub-1,ou=subscribers,dc=udr" {
		t.Fatalf("DN = %s", e.DN)
	}
	if len(e.Attrs["impu"]) != 2 {
		t.Fatalf("attrs = %v", e.Attrs)
	}
}

func TestModifyRoundTrip(t *testing.T) {
	op := msgRoundTrip(t, &ModifyRequest{
		DN: "uid=sub-1,ou=subscribers,dc=udr",
		Changes: []Change{
			{Op: ChangeReplace, Attr: "barPremium", Vals: []string{"TRUE"}},
			{Op: ChangeDelete, Attr: "cfu"},
		},
	})
	req := op.(*ModifyRequest)
	if len(req.Changes) != 2 || req.Changes[0].Op != ChangeReplace || req.Changes[1].Attr != "cfu" {
		t.Fatalf("modify = %+v", req)
	}
}

func TestAddDeleteCompareRoundTrip(t *testing.T) {
	op := msgRoundTrip(t, &AddRequest{DN: "uid=x", Attrs: map[string][]string{"a": {"1"}}})
	if add := op.(*AddRequest); add.DN != "uid=x" || add.Attrs["a"][0] != "1" {
		t.Fatalf("add = %+v", add)
	}
	op = msgRoundTrip(t, &DelRequest{DN: "uid=x"})
	if del := op.(*DelRequest); del.DN != "uid=x" {
		t.Fatalf("del = %+v", del)
	}
	op = msgRoundTrip(t, &CompareRequest{DN: "uid=x", Attr: "active", Value: "TRUE"})
	if cmp := op.(*CompareRequest); cmp.Attr != "active" || cmp.Value != "TRUE" {
		t.Fatalf("compare = %+v", cmp)
	}
}

func TestExtendedRoundTrip(t *testing.T) {
	op := msgRoundTrip(t, &ExtendedRequest{Name: OIDTxnBegin, Value: []byte{1, 2}})
	if ext := op.(*ExtendedRequest); ext.Name != OIDTxnBegin || len(ext.Value) != 2 {
		t.Fatalf("extended = %+v", ext)
	}
	op = msgRoundTrip(t, &ExtendedResponse{
		Result: Result{Code: ResultSuccess}, Name: OIDTxnCommit, Value: []byte{9},
	})
	ext := op.(*ExtendedResponse)
	if ext.Name != OIDTxnCommit || len(ext.Value) != 1 {
		t.Fatalf("extended response = %+v", ext)
	}
}

func TestFilterMatches(t *testing.T) {
	attrs := map[string][]string{
		"objectClass": {"udrSubscription"},
		"msisdn":      {"34600000001"},
		"active":      {"TRUE"},
	}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Eq("msisdn", "34600000001"), true},
		{Eq("msisdn", "nope"), false},
		{Present("msisdn"), true},
		{Present("missing"), false},
		{And(Eq("active", "TRUE"), Present("msisdn")), true},
		{And(Eq("active", "TRUE"), Eq("msisdn", "nope")), false},
		{Or(Eq("msisdn", "nope"), Present("active")), true},
		{Filter{Kind: FilterNot, Children: []Filter{Eq("active", "TRUE")}}, false},
	}
	for _, c := range cases {
		if got := c.f.Matches(attrs); got != c.want {
			t.Errorf("%s.Matches = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{0x30, 0x01, 0xFF}); err == nil {
		t.Fatal("garbage should not decode")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil should not decode")
	}
}

// mapBackend is a trivial in-memory backend for server tests.
type mapBackend struct {
	mu      sync.Mutex
	entries map[string]map[string][]string
	// lastBatch records the most recent Write batch size (txn test).
	lastBatch int
}

func newMapBackend() *mapBackend {
	return &mapBackend{entries: map[string]map[string][]string{}}
}

func (b *mapBackend) Bind(dn, password string) Result {
	if password == "wrong" {
		return Result{Code: ResultInvalidCredentials}
	}
	return Result{Code: ResultSuccess}
}

func (b *mapBackend) Search(req *SearchRequest) ([]SearchEntry, Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []SearchEntry
	for dn, attrs := range b.entries {
		if req.Filter.Matches(attrs) {
			out = append(out, SearchEntry{DN: dn, Attrs: attrs})
		}
	}
	return out, Result{Code: ResultSuccess}
}

func (b *mapBackend) Compare(dn, attr, value string) Result {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[dn]
	if !ok {
		return Result{Code: ResultNoSuchObject}
	}
	for _, v := range e[attr] {
		if v == value {
			return Result{Code: ResultCompareTrue}
		}
	}
	return Result{Code: ResultCompareFalse}
}

func (b *mapBackend) Write(ops []WriteOp) Result {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastBatch = len(ops)
	for _, op := range ops {
		switch op.Kind {
		case WriteAdd:
			if _, dup := b.entries[op.DN]; dup {
				return Result{Code: ResultEntryAlreadyExists}
			}
			b.entries[op.DN] = op.Attrs
		case WriteModify:
			e, ok := b.entries[op.DN]
			if !ok {
				return Result{Code: ResultNoSuchObject}
			}
			for _, c := range op.Changes {
				switch c.Op {
				case ChangeReplace, ChangeAdd:
					e[c.Attr] = c.Vals
				case ChangeDelete:
					delete(e, c.Attr)
				}
			}
		case WriteDelete:
			if _, ok := b.entries[op.DN]; !ok {
				return Result{Code: ResultNoSuchObject}
			}
			delete(b.entries, op.DN)
		}
	}
	return Result{Code: ResultSuccess}
}

// startPipe wires a client and server over an in-memory connection.
func startPipe(t *testing.T, backend Backend) *Client {
	t.Helper()
	cConn, sConn := net.Pipe()
	srv := NewServer(backend)
	go func() { _ = srv.ServeConn(sConn) }()
	c := NewClient(cConn)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestServerBindSearchAddModifyDelete(t *testing.T) {
	backend := newMapBackend()
	c := startPipe(t, backend)

	if r, err := c.Bind("cn=admin", "pw"); err != nil || r.Code != ResultSuccess {
		t.Fatalf("bind: %v %v", r, err)
	}
	if r, err := c.Bind("cn=admin", "wrong"); err != nil || r.Code != ResultInvalidCredentials {
		t.Fatalf("bad bind: %v %v", r, err)
	}

	dn := "uid=sub-1,ou=subscribers,dc=udr"
	if r, err := c.Add(dn, map[string][]string{"msisdn": {"34600000001"}, "active": {"TRUE"}}); err != nil || r.Code != ResultSuccess {
		t.Fatalf("add: %v %v", r, err)
	}
	if r, _ := c.Add(dn, map[string][]string{}); r.Code != ResultEntryAlreadyExists {
		t.Fatalf("duplicate add = %v", r)
	}

	entries, res, err := c.Search(&SearchRequest{
		BaseDN: "ou=subscribers,dc=udr", Scope: ScopeWholeSubtree,
		Filter: Eq("msisdn", "34600000001"),
	})
	if err != nil || res.Code != ResultSuccess || len(entries) != 1 || entries[0].DN != dn {
		t.Fatalf("search: %v %v %v", entries, res, err)
	}

	if r, err := c.Modify(dn, []Change{{Op: ChangeReplace, Attr: "active", Vals: []string{"FALSE"}}}); err != nil || r.Code != ResultSuccess {
		t.Fatalf("modify: %v %v", r, err)
	}
	if r, err := c.Compare(dn, "active", "FALSE"); err != nil || r.Code != ResultCompareTrue {
		t.Fatalf("compare: %v %v", r, err)
	}
	if r, err := c.Compare(dn, "active", "TRUE"); err != nil || r.Code != ResultCompareFalse {
		t.Fatalf("compare false: %v %v", r, err)
	}

	if r, err := c.Delete(dn); err != nil || r.Code != ResultSuccess {
		t.Fatalf("delete: %v %v", r, err)
	}
	if _, res, _ := c.Search(&SearchRequest{
		BaseDN: "ou=subscribers,dc=udr", Scope: ScopeWholeSubtree,
		Filter: Eq("msisdn", "34600000001"),
	}); res.Code != ResultSuccess {
		t.Fatalf("search after delete = %v", res)
	}
}

func TestServerTransactionGrouping(t *testing.T) {
	backend := newMapBackend()
	c := startPipe(t, backend)

	if r, err := c.TxnBegin(); err != nil || r.Code != ResultSuccess {
		t.Fatalf("txn begin: %v %v", r, err)
	}
	if r, err := c.Add("uid=a,dc=udr", map[string][]string{"x": {"1"}}); err != nil || r.Code != ResultSuccess {
		t.Fatalf("staged add: %v %v", r, err)
	}
	if r, err := c.Add("uid=b,dc=udr", map[string][]string{"x": {"2"}}); err != nil || r.Code != ResultSuccess {
		t.Fatalf("staged add 2: %v %v", r, err)
	}
	// Nothing applied yet.
	backend.mu.Lock()
	n := len(backend.entries)
	backend.mu.Unlock()
	if n != 0 {
		t.Fatalf("writes applied before commit: %d entries", n)
	}
	if r, err := c.TxnCommit(); err != nil || r.Code != ResultSuccess {
		t.Fatalf("txn commit: %v %v", r, err)
	}
	backend.mu.Lock()
	n, batch := len(backend.entries), backend.lastBatch
	backend.mu.Unlock()
	if n != 2 {
		t.Fatalf("entries after commit = %d", n)
	}
	if batch != 2 {
		t.Fatalf("commit batch size = %d, want 2 (atomic grouping)", batch)
	}
}

func TestServerTransactionAbort(t *testing.T) {
	backend := newMapBackend()
	c := startPipe(t, backend)
	if _, err := c.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("uid=a,dc=udr", map[string][]string{"x": {"1"}}); err != nil {
		t.Fatal(err)
	}
	if r, err := c.TxnAbort(); err != nil || r.Code != ResultSuccess {
		t.Fatalf("abort: %v %v", r, err)
	}
	backend.mu.Lock()
	n := len(backend.entries)
	backend.mu.Unlock()
	if n != 0 {
		t.Fatalf("aborted writes applied: %d", n)
	}
}

func TestServerTxnErrors(t *testing.T) {
	c := startPipe(t, newMapBackend())
	if r, _ := c.TxnCommit(); r.Code != ResultOperationsError {
		t.Fatalf("commit without begin = %v", r)
	}
	if _, err := c.TxnBegin(); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.TxnBegin(); r.Code != ResultOperationsError {
		t.Fatalf("nested begin = %v", r)
	}
}

func TestServerUnknownExtended(t *testing.T) {
	c := startPipe(t, newMapBackend())
	r, err := c.extendedCall("1.2.3.4", nil)
	if err != nil || r.Code != ResultProtocolError {
		t.Fatalf("unknown extended = %v %v", r, err)
	}
}

func TestServerOverTCP(t *testing.T) {
	backend := newMapBackend()
	srv := NewServer(backend)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if r, err := c.Bind("", ""); err != nil || r.Code != ResultSuccess {
		t.Fatalf("anonymous bind over TCP: %v %v", r, err)
	}
	if r, err := c.Add("uid=tcp,dc=udr", map[string][]string{"a": {"1"}}); err != nil || r.Code != ResultSuccess {
		t.Fatalf("add over TCP: %v %v", r, err)
	}
	if err := c.Unbind(); err != nil {
		t.Fatalf("unbind: %v", err)
	}
}

// countConn counts the Writes made on a connection.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// readReply reads one reply and checks its message ID.
func readReply(t *testing.T, br *bufio.Reader, id int64) any {
	t.Helper()
	raw, err := ReadMessage(br)
	if err != nil {
		t.Fatalf("reply %d: %v", id, err)
	}
	msg, err := Decode(raw)
	if err != nil {
		t.Fatalf("reply %d: %v", id, err)
	}
	if msg.ID != id {
		t.Fatalf("reply for message %d, want %d", msg.ID, id)
	}
	return msg.Op
}

// TestServerCoalescesPipelinedReplies: eight requests that arrive in
// one segment are answered in order, with one Write.
func TestServerCoalescesPipelinedReplies(t *testing.T) {
	backend := newMapBackend()
	backend.entries["uid=3"] = map[string][]string{"a": {"v"}}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	counted := &countConn{Conn: sConn}
	go func() { _ = NewServer(backend).ServeConn(counted) }()

	var burst []byte
	for id := int64(1); id <= 8; id++ {
		var err error
		burst, err = appendMessage(burst, id, &CompareRequest{DN: fmt.Sprintf("uid=%d", id), Attr: "a", Value: "v"})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cConn.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = cConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(cConn)
	for id := int64(1); id <= 8; id++ {
		resp, ok := readReply(t, br, id).(*CompareResponse)
		want := ResultNoSuchObject
		if id == 3 {
			want = ResultCompareTrue
		}
		if !ok || resp.Code != want {
			t.Fatalf("reply %d = %+v, want %v", id, resp, want)
		}
	}
	if n := counted.writes.Load(); n != 1 {
		t.Errorf("8 pipelined requests answered with %d writes, want 1", n)
	}
}

// TestServerAnswersBeforeBlockingRead: a client that sends one whole
// request and half of the next gets the first reply without sending
// the rest.
func TestServerAnswersBeforeBlockingRead(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go func() { _ = NewServer(newMapBackend()).ServeConn(sConn) }()

	first, _ := appendMessage(nil, 1, &BindRequest{Version: 3})
	second, _ := appendMessage(nil, 2, &BindRequest{Version: 3, DN: "cn=x", Password: "wrong"})
	half := len(second) / 2
	if _, err := cConn.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	_ = cConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(cConn)
	if r, ok := readReply(t, br, 1).(*BindResponse); !ok || r.Code != ResultSuccess {
		t.Fatalf("first reply = %+v", r)
	}
	if _, err := cConn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if r, ok := readReply(t, br, 2).(*BindResponse); !ok || r.Code != ResultInvalidCredentials {
		t.Fatalf("second reply = %+v", r)
	}
}

// TestServerSurvivesDeepFilter: a request with a filter nested 1.5 M
// levels closes its own connection with a decode error; the server
// goes on serving others.
func TestServerSurvivesDeepFilter(t *testing.T) {
	srv := NewServer(newMapBackend())
	cConn, sConn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sConn) }()
	go func() { _, _ = cConn.Write(deepFilterRequest(1_500_000)) }()
	select {
	case err := <-served:
		if !errors.Is(err, ErrDecode) {
			t.Fatalf("ServeConn = %v, want a decode error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not reject the request")
	}
	cConn.Close()
	c := startPipe(t, newMapBackend())
	if r, err := c.Bind("", ""); err != nil || r.Code != ResultSuccess {
		t.Fatalf("bind after the hostile request: %v %v", r, err)
	}
}
