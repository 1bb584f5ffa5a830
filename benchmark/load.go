package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/se"
	"repro/internal/store"
	"repro/internal/subscriber"
)

// epoch anchors every timestamp the benchmark takes; now() is a
// monotonic nanosecond count since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Operation classes. On the LDAP fronts a read is a Search and a write
// a Modify; on the session front Session.Exec{Get} and Session.Modify.
const (
	classRead = iota
	classWrite
	numClasses
)

// phase bounds one run of the clients: a deadline, an operation count
// per client, or both.
type phase struct {
	deadline int64 // now() value; 0 = none
	maxOps   int   // per client; 0 = unbounded
	window   time.Duration
	windows  int
	// spanNames, when set, makes the phase traced: every operation
	// records a span named after its class.
	spanNames *[numClasses]string
	spanCap   int
}

// recorder is one client's measurements of one phase. Only the owning
// client goroutine touches it until the phase ends.
type recorder struct {
	start     int64
	window    int64
	windows   []uint32
	lat       [numClasses]hist
	attempted uint64
	failed    uint64
	spans     *spanBuf // nil unless the phase is traced
	spanNames *[numClasses]string
	client    int64
	clients   int64
}

func newRecorder(ph phase, client, clients int, start int64) *recorder {
	r := &recorder{start: start, window: int64(ph.window), windows: make([]uint32, ph.windows),
		spanNames: ph.spanNames, client: int64(client), clients: int64(clients)}
	if ph.spanNames != nil {
		r.spans = newSpanBuf(ph.spanCap)
	}
	return r
}

// done records one completed operation: send at t0, validated reply at
// t1. A wrong or refused answer counts as attempted and failed and
// contributes no latency sample.
func (r *recorder) done(class int, t0, t1 int64, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	r.lat[class].record(t1 - t0)
	if r.window > 0 {
		if w := (t1 - r.start) / r.window; w >= 0 && w < int64(len(r.windows)) {
			r.windows[w]++
		}
	}
	if r.spans != nil {
		// trace = the operation's sequence number across all clients.
		seq := int64(r.attempted-1)*r.clients + r.client
		r.spans.add(span{name: r.spanNames[class], start: t0, end: t1, trace: seq})
	}
}

// The entry calls by class on each front: the names of the traced
// phase's spans and of the entry-layer latency metrics.
var (
	ldapEntryNames    = [numClasses]string{"ldap.search", "ldap.modify"}
	sessionEntryNames = [numClasses]string{"core.session_read", "core.session_write"}
)

func (wl *workload) entryNames() *[numClasses]string {
	if wl.front == frontSession {
		return &sessionEntryNames
	}
	return &ldapEntryNames
}

// client issues one workload stream against the fixture.
type client interface {
	run(ph phase, rec *recorder)
	// wireBytes is the LDAP bytes sent plus received so far (0 on the
	// session front).
	wireBytes() int64
	// written reports the sequence number of the last successful write
	// to each target (0 = never written).
	written() []uint64
	close()
}

// serialClient is a closed loop with one request in flight: the next
// request is drawn after the previous reply was validated.
type serialClient struct {
	idx     int
	fx      *fixture
	stream  *opStream
	lastSeq []uint64
	do      func(sub *subRef, write bool, val string) bool
	conn    *countConn
	ldapCl  *ldap.Client
}

func (c *serialClient) run(ph phase, rec *recorder) {
	for n := 0; ph.maxOps == 0 || n < ph.maxOps; n++ {
		target, write := c.stream.next()
		var val string
		class := classRead
		if write {
			class = classWrite
			val = areaValue(c.idx, c.stream.seq)
		}
		t0 := now()
		if ph.deadline != 0 && t0 >= ph.deadline {
			return
		}
		ok := c.do(c.fx.target(target), write, val)
		rec.done(class, t0, now(), ok)
		if ok && write {
			c.lastSeq[target] = c.stream.seq
		}
	}
}

func (c *serialClient) wireBytes() int64 {
	if c.conn == nil {
		return 0
	}
	return c.conn.bytes
}

func (c *serialClient) written() []uint64 { return c.lastSeq }

func (c *serialClient) close() {
	if c.ldapCl != nil {
		_ = c.ldapCl.Unbind()
	}
}

// sessionOp runs one operation through the co-located session and
// checks the answer is the requested subscriber.
func sessionOp(sess *core.Session) func(sub *subRef, write bool, val string) bool {
	ctx := context.Background()
	return func(sub *subRef, write bool, val string) bool {
		id := subscriber.Identity{Type: subscriber.MSISDN, Value: sub.msisdn}
		if write {
			resp, err := sess.Modify(ctx, id,
				store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{val}})
			return err == nil && resp.SubscriberID == sub.id && resp.CSN > 0
		}
		resp, err := sess.Exec(ctx, core.ExecReq{Identity: id, Ops: []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil || resp.SubscriberID != sub.id || len(resp.Results) != 1 || !resp.Results[0].Found {
			return false
		}
		e := resp.Results[0].Entry
		return e.First(subscriber.AttrMSISDN) == sub.msisdn && e.First(subscriber.AttrID) == sub.id
	}
}

// searchRequest is the FE's identity lookup: a subtree search by
// MSISDN under the subscriber base.
func searchRequest(msisdn string) *ldap.SearchRequest {
	return &ldap.SearchRequest{
		BaseDN: subscriber.BaseDN,
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Eq(subscriber.AttrMSISDN, msisdn),
	}
}

// modifyRequest is the FE's location write: replace the area by DN.
func modifyRequest(dn, val string) *ldap.ModifyRequest {
	return &ldap.ModifyRequest{DN: dn, Changes: []ldap.Change{
		{Op: ldap.ChangeReplace, Attr: subscriber.AttrArea, Vals: []string{val}}}}
}

// entryMatches checks a search returned exactly the requested
// subscriber.
func entryMatches(e *ldap.SearchEntry, sub *subRef) bool {
	return e.DN == sub.dn &&
		len(e.Attrs[subscriber.AttrMSISDN]) == 1 && e.Attrs[subscriber.AttrMSISDN][0] == sub.msisdn &&
		len(e.Attrs[subscriber.AttrID]) == 1 && e.Attrs[subscriber.AttrID][0] == sub.id
}

// ldapOp runs one operation through ldap.Client.
func ldapOp(cl *ldap.Client) func(sub *subRef, write bool, val string) bool {
	return func(sub *subRef, write bool, val string) bool {
		if write {
			req := modifyRequest(sub.dn, val)
			res, err := cl.Modify(req.DN, req.Changes)
			return err == nil && res.Code == ldap.ResultSuccess
		}
		entries, res, err := cl.Search(searchRequest(sub.msisdn))
		return err == nil && res.Code == ldap.ResultSuccess && len(entries) == 1 &&
			entryMatches(&entries[0], sub)
	}
}

// countConn counts the bytes crossing a client connection. Only the
// owning client goroutine reads and writes through it.
type countConn struct {
	net.Conn
	bytes int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes += int64(n)
	return n, err
}

// newClients opens the workload's clients against the fixture.
func newClients(fx *fixture, seed int64) ([]client, error) {
	wl := fx.wl
	clients := make([]client, 0, wl.clients)
	for i := 0; i < wl.clients; i++ {
		stream := newOpStream(seed, i, wl, len(fx.targets))
		lastSeq := make([]uint64, len(fx.targets))
		if wl.front == frontSession {
			clients = append(clients, &serialClient{idx: i, fx: fx, stream: stream,
				lastSeq: lastSeq, do: sessionOp(fx.sess)})
			continue
		}
		raw, err := net.Dial("tcp", fx.ldapAddr)
		if err != nil {
			closeClients(clients)
			return nil, fmt.Errorf("dialing the in-process LDAP server: %w", err)
		}
		conn := &countConn{Conn: raw}
		if wl.front == frontLDAPPipelined {
			clients = append(clients, newPipelinedClient(i, fx, stream, lastSeq, conn, wl.inflight))
			continue
		}
		cl := ldap.NewClient(conn)
		clients = append(clients, &serialClient{idx: i, fx: fx, stream: stream,
			lastSeq: lastSeq, do: ldapOp(cl), conn: conn, ldapCl: cl})
	}
	return clients, nil
}

func closeClients(clients []client) {
	for _, c := range clients {
		c.close()
	}
}

// phaseResult is what one phase measured across all clients.
type phaseResult struct {
	lat         [numClasses]hist
	all         hist
	windowOps   []float64 // completed ops per window, summed over clients
	attempted   uint64
	failed      uint64
	elapsed     time.Duration
	cpu         time.Duration // user+sys of the whole process
	mallocs     uint64
	allocBytes  uint64
	wireBytes   int64
	streamSpans []*spanBuf
}

func (r *phaseResult) ops() uint64 { return r.all.n }

// opsPerSec is the completed operations over the phase's whole length.
// Not the median of the one-second windows: while the collector marks
// the ~600 MB heap a window completes about half the operations of a
// quiet one, so the windows are bimodal and their median jumps between
// the modes from run to run (10% spread against 3% for the mean on
// session_zipf_mix) — and it would hide collection cost whenever fewer
// than half the windows hold a cycle.
func (r *phaseResult) opsPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ops()) / r.elapsed.Seconds()
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase runs every client for one phase and gathers the process
// costs around it.
func runPhase(clients []client, ph phase) *phaseResult {
	recs := make([]*recorder, len(clients))
	wire0 := int64(0)
	for _, c := range clients {
		wire0 += c.wireBytes()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := now()
	if ph.deadline != 0 {
		ph.deadline += start
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		recs[i] = newRecorder(ph, i, len(clients), start)
		wg.Add(1)
		go func(c client, rec *recorder) {
			defer wg.Done()
			c.run(ph, rec)
		}(c, recs[i])
	}
	wg.Wait()
	end := now()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)

	res := &phaseResult{
		elapsed:    time.Duration(end - start),
		cpu:        cpu1 - cpu0,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		wireBytes:  -wire0,
	}
	if ph.windows > 0 {
		res.windowOps = make([]float64, ph.windows)
	}
	for i, rec := range recs {
		for c := range rec.lat {
			res.lat[c].merge(&rec.lat[c])
			res.all.merge(&rec.lat[c])
		}
		for w, n := range rec.windows {
			res.windowOps[w] += float64(n)
		}
		res.attempted += rec.attempted
		res.failed += rec.failed
		res.wireBytes += clients[i].wireBytes()
		if rec.spans != nil {
			res.streamSpans = append(res.streamSpans, rec.spans)
		}
	}
	return res
}

// timedPhase is a phase of d, cut into full throughput windows; with
// spanNames it is traced.
func timedPhase(p params, d time.Duration, spanNames *[numClasses]string) phase {
	window := p.window
	if window > d {
		window = d
	}
	return phase{deadline: int64(d), window: window, windows: int(d / window),
		spanNames: spanNames, spanCap: p.spanCap}
}
