// Package simnet simulates the IP network a multi-national UDR NF
// runs over: fast local site LANs, a slower and less reliable
// inter-site backbone, and the partitions and glitches of §2.5, §4.1.
//
// Every component in this reproduction (storage elements, location
// stages, points of access, front-ends, the provisioning system)
// communicates exclusively through simnet endpoints, so link latency
// and partitions apply uniformly to client traffic, replication and
// location-map synchronization — the property the paper's CAP
// analysis rests on.
//
// The simulator delivers messages over real goroutines with real
// (scaled-down) sleeps; experiments document their time scale in
// EXPERIMENTS.md.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Errors returned by network operations.
var (
	// ErrUnreachable reports a partitioned or down destination. It
	// models the timeout a real client would hit; the simulator
	// charges the link timeout before returning it.
	ErrUnreachable = errors.New("simnet: destination unreachable")
	// ErrLost reports a message dropped by the lossy backbone.
	ErrLost = errors.New("simnet: message lost")
	// ErrNoEndpoint reports a destination address nobody serves.
	ErrNoEndpoint = errors.New("simnet: no such endpoint")
)

// Addr identifies an endpoint as "site/process".
type Addr string

// MakeAddr builds an Addr from a site and process name.
func MakeAddr(site, process string) Addr {
	return Addr(site + "/" + process)
}

// Site returns the site component of the address.
func (a Addr) Site() string {
	if i := strings.IndexByte(string(a), '/'); i >= 0 {
		return string(a)[:i]
	}
	return string(a)
}

// Process returns the process component of the address ("" when the
// address has no process part).
func (a Addr) Process() string {
	if i := strings.IndexByte(string(a), '/'); i >= 0 {
		return string(a)[i+1:]
	}
	return ""
}

// Link describes one direction of connectivity between two sites.
type Link struct {
	// Latency is the one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability a message is dropped (0..1).
	Loss float64
	// Timeout is charged before reporting ErrUnreachable when the
	// destination is partitioned away or down. Zero means fail fast.
	Timeout time.Duration
}

// Handler processes a request delivered to an endpoint and returns a
// response. One-way messages are delivered through the same handler;
// their response is discarded.
type Handler func(ctx context.Context, from Addr, req any) (any, error)

type endpoint struct {
	addr    Addr
	handler Handler
	down    bool
}

// Config holds the default link parameters of a Network.
type Config struct {
	// Local is the intra-site link (blade-cluster LAN).
	Local Link
	// Backbone is the inter-site link (multi-national IP backbone).
	Backbone Link
	// Seed seeds the loss/jitter random source for reproducibility.
	Seed int64
}

// DefaultConfig mirrors the paper's setting at a 10x compressed time
// scale: sub-millisecond LAN, tens-of-milliseconds backbone scaled to
// low milliseconds.
func DefaultConfig() Config {
	return Config{
		Local:    Link{Latency: 50 * time.Microsecond, Jitter: 20 * time.Microsecond, Timeout: 2 * time.Millisecond},
		Backbone: Link{Latency: 2 * time.Millisecond, Jitter: 500 * time.Microsecond, Timeout: 10 * time.Millisecond},
		Seed:     1,
	}
}

// FastConfig is for unit tests: near-zero latencies so suites stay
// fast while preserving local < backbone ordering.
func FastConfig() Config {
	return Config{
		Local:    Link{Latency: 0, Jitter: 0},
		Backbone: Link{Latency: 200 * time.Microsecond, Jitter: 0},
		Seed:     1,
	}
}

// Network is the simulated IP network. It is safe for concurrent use.
type Network struct {
	cfg Config

	mu        sync.RWMutex
	rng       *rand.Rand
	sites     map[string]bool
	group     map[string]int // partition group per site; same group = reachable
	links     map[string]Link
	endpoints map[Addr]*endpoint

	// Messages counts every delivery attempt; Drops counts losses.
	Messages metrics.Counter
	Drops    metrics.Counter

	// tracer is the optional span recorder. Tracing never touches the
	// network's seeded rng, so enabling it cannot perturb a seeded
	// run's loss/jitter schedule.
	tracer atomic.Pointer[trace.Recorder]
}

// SetTracer installs the span recorder for per-hop net.call spans.
func (n *Network) SetTracer(tr *trace.Recorder) { n.tracer.Store(tr) }

// New returns a network with the given defaults.
func New(cfg Config) *Network {
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sites:     make(map[string]bool),
		group:     make(map[string]int),
		links:     make(map[string]Link),
		endpoints: make(map[Addr]*endpoint),
	}
}

// AddSite registers a site (a geographic location hosting one blade
// cluster in the paper's Figure 2 topology).
func (n *Network) AddSite(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sites[name] = true
	if _, ok := n.group[name]; !ok {
		n.group[name] = 0
	}
}

// Sites returns all registered sites, sorted.
func (n *Network) Sites() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.sites))
	for s := range n.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func linkKey(a, b string) string { return a + "->" + b }

// SetLink overrides the link parameters between two sites, in both
// directions.
func (n *Network) SetLink(a, b string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey(a, b)] = l
	n.links[linkKey(b, a)] = l
}

// linkFor returns the effective link between two sites.
func (n *Network) linkFor(a, b string) Link {
	if a == b {
		return n.cfg.Local
	}
	if l, ok := n.links[linkKey(a, b)]; ok {
		return l
	}
	return n.cfg.Backbone
}

// LinkBetween reports the effective link parameters between two sites.
func (n *Network) LinkBetween(a, b string) Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.linkFor(a, b)
}

// Register installs a handler at addr. The site component is
// registered implicitly.
func (n *Network) Register(addr Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	site := addr.Site()
	n.sites[site] = true
	if _, ok := n.group[site]; !ok {
		n.group[site] = 0
	}
	n.endpoints[addr] = &endpoint{addr: addr, handler: h}
}

// Unregister removes the endpoint at addr.
func (n *Network) Unregister(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// SetDown marks an endpoint crashed (true) or recovered (false),
// modelling storage-element or process failures.
func (n *Network) SetDown(addr Addr, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[addr]; ok {
		ep.down = down
	}
}

// Partition splits the listed sites from every other site: a
// two-sided network partition. Sites within the same side still reach
// each other. Listed sites are registered if unknown.
func (n *Network) Partition(side []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	in := make(map[string]bool, len(side))
	for _, s := range side {
		in[s] = true
		n.sites[s] = true
	}
	for s := range n.sites {
		if in[s] {
			n.group[s] = 1
		} else {
			n.group[s] = 0
		}
	}
}

// PartitionGroups installs an arbitrary partition: sites in different
// groups cannot reach each other. Unlisted sites join group 0.
func (n *Network) PartitionGroups(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for s := range n.sites {
		n.group[s] = 0
	}
	for i, g := range groups {
		for _, s := range g {
			n.sites[s] = true
			n.group[s] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for s := range n.sites {
		n.group[s] = 0
	}
}

// Glitch partitions the listed sites away from the rest for d, then
// heals — the "network glitch as short as 30 seconds" of §4.1. It
// blocks for the duration and heals early when ctx ends.
func (n *Network) Glitch(ctx context.Context, side []string, d time.Duration) {
	n.Partition(side)
	defer n.Heal()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Partitioned reports whether two sites are currently separated.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.group[a] != n.group[b]
}

// Reachable reports whether a call from one address to another would
// currently be delivered (ignoring loss).
func (n *Network) Reachable(from, to Addr) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[to]
	if !ok || ep.down {
		return false
	}
	return n.group[from.Site()] == n.group[to.Site()]
}

// delay computes the randomized one-way delay for a link.
func (n *Network) delay(l Link) time.Duration {
	d := l.Latency
	if l.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(l.Jitter)))
		n.mu.Unlock()
	}
	return d
}

// lose reports whether a message on l should be dropped.
func (n *Network) lose(l Link) bool {
	if l.Loss <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < l.Loss
}

// timerRounding is how late a Go timer may fire: the runtime's
// netpoller waits in whole milliseconds, so a timer wakes up to 1 ms
// after its deadline, which would flatten the sub-millisecond
// local-vs-backbone asymmetry the experiments measure and overshoot
// multi-millisecond WAN latencies (a commit_quorum_wan commit is a
// replica round trip). sleep therefore waits on a Go timer, which
// cancellation can interrupt, for all but the last timerRounding of
// a delay, and hands the remainder (or the whole delay, when shorter)
// to waitUntil, which lands on the deadline.
const timerRounding = time.Millisecond

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	deadline := time.Now().Add(d)
	if d >= timerRounding {
		if err := timerWait(ctx, d-timerRounding); err != nil {
			return err
		}
	}
	return waitUntil(ctx, deadline)
}

// goTimers recycles timerWait's timers, so a hop longer than
// timerRounding allocates nothing either. Go 1.23 timers may be stopped
// and reset without draining their channel, so a pooled timer never
// delivers a stale tick.
var goTimers sync.Pool

// timerWait waits d on a Go timer, returning ctx's error early if ctx
// ends first.
func timerWait(ctx context.Context, d time.Duration) error {
	t, ok := goTimers.Get().(*time.Timer)
	if ok {
		t.Reset(d)
	} else {
		t = time.NewTimer(d)
	}
	defer func() {
		t.Stop()
		goTimers.Put(t)
	}()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepWithin is sleep clipped to deadline (none when zero): a delay
// reaching past the deadline sleeps until it and then reports
// context.DeadlineExceeded, as an expiring context would.
func sleepWithin(ctx context.Context, deadline time.Time, d time.Duration) error {
	if !deadline.IsZero() {
		if rem := time.Until(deadline); d >= rem {
			_ = sleep(ctx, rem)
			return context.DeadlineExceeded
		}
	}
	return sleep(ctx, d)
}

// lookup fetches the endpoint and partition status under one lock.
func (n *Network) lookup(from, to Addr) (h Handler, l Link, err error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l = n.linkFor(from.Site(), to.Site())
	ep, ok := n.endpoints[to]
	if !ok {
		return nil, l, ErrNoEndpoint
	}
	if ep.down || n.group[from.Site()] != n.group[to.Site()] {
		return nil, l, ErrUnreachable
	}
	return ep.handler, l, nil
}

// Call performs a synchronous request/response exchange. It charges
// one-way latency in each direction, may drop the message on lossy
// links, and reports ErrUnreachable (after the link timeout) when the
// destination is partitioned away, down or missing.
//
// When a recorder is installed and the request is a trace.Carrier
// holding a sampled context, the hop records a net.call span and the
// delivered message carries the span's context, so the receiving
// element's spans nest under the hop. Unsampled requests pay one type
// assertion; the message is never copied.
//
// The handler runs on the caller's goroutine and has returned before
// Call returns, whatever the outcome: also when ctx ends or a deadline
// clips the response leg. A caller may therefore pass a pointer to
// memory it reuses once Call returns, such as a pooled request
// envelope the handler fills in place. Send gives no such guarantee.
func (n *Network) Call(ctx context.Context, from, to Addr, req any) (any, error) {
	return n.traced(ctx, time.Time{}, from, to, req)
}

// CallWithin is Call bounded by a timeout instead of a context, for
// callers that would otherwise build a context per call: every hop's
// sleep is clipped to the deadline, and a clipped sleep returns
// context.DeadlineExceeded. The handler sees context.Background(). With
// a pointer request and a nil response, a call whose hops are shorter
// than timerRounding allocates nothing. As with Call, the handler has
// returned before CallWithin does, also when the deadline clipped the
// response leg.
func (n *Network) CallWithin(from, to Addr, req any, timeout time.Duration) (any, error) {
	return n.traced(context.Background(), time.Now().Add(timeout), from, to, req)
}

// traced records the net.call span of a sampled trace.Carrier request
// around call.
func (n *Network) traced(ctx context.Context, deadline time.Time, from, to Addr, req any) (any, error) {
	if tr := n.tracer.Load(); tr != nil {
		if c, ok := req.(trace.Carrier); ok {
			if tc := c.TraceCtx(); tc.Sampled && tc.Valid() {
				span := tr.StartChild(tc, "net.call", string(from))
				span.SetAttr("to", string(to))
				resp, err := n.call(ctx, deadline, from, to, c.WithTraceCtx(span.Ctx()))
				span.End(err)
				return resp, err
			}
		}
	}
	return n.call(ctx, deadline, from, to, req)
}

// call is one exchange; every sleep is clipped to deadline (none when
// zero) as well as bounded by ctx.
func (n *Network) call(ctx context.Context, deadline time.Time, from, to Addr, req any) (any, error) {
	n.Messages.Inc()
	h, l, err := n.lookup(from, to)
	if err != nil {
		if err == ErrNoEndpoint {
			return nil, err
		}
		if serr := sleepWithin(ctx, deadline, l.Timeout); serr != nil {
			return nil, serr
		}
		return nil, ErrUnreachable
	}
	if n.lose(l) {
		n.Drops.Inc()
		if serr := sleepWithin(ctx, deadline, l.Timeout); serr != nil {
			return nil, serr
		}
		return nil, ErrLost
	}
	if err := sleepWithin(ctx, deadline, n.delay(l)); err != nil {
		return nil, err
	}
	// The partition may have started while the request was in
	// flight; in that case the response never arrives.
	if !n.Reachable(from, to) {
		if serr := sleepWithin(ctx, deadline, l.Timeout); serr != nil {
			return nil, serr
		}
		return nil, ErrUnreachable
	}
	resp, err := h(ctx, from, req)
	if err != nil {
		return nil, err
	}
	if n.lose(l) {
		n.Drops.Inc()
		if serr := sleepWithin(ctx, deadline, l.Timeout); serr != nil {
			return nil, serr
		}
		return nil, ErrLost
	}
	if err := sleepWithin(ctx, deadline, n.delay(l)); err != nil {
		return nil, err
	}
	return resp, nil
}

// Send delivers a one-way message asynchronously (used by the
// asynchronous replication of §3.3.1). Delivery failures are silent,
// exactly like a UDP datagram into a partition; senders that need
// acknowledgement use Call. The handler runs on a goroutine of its own
// after Send returns, so msg must not be memory the sender reuses.
func (n *Network) Send(from, to Addr, msg any) {
	n.Messages.Inc()
	go func() {
		h, l, err := n.lookup(from, to)
		if err != nil || n.lose(l) {
			if err == nil {
				n.Drops.Inc()
			}
			return
		}
		if sleep(context.Background(), n.delay(l)) != nil {
			return
		}
		// Re-check reachability on arrival.
		if !n.Reachable(from, to) {
			return
		}
		h, _, err = n.lookup(from, to)
		if err != nil {
			return
		}
		_, _ = h(context.Background(), from, msg)
	}()
}

// String summarises the network state for diagnostics.
func (n *Network) String() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return fmt.Sprintf("simnet{sites=%d endpoints=%d messages=%d drops=%d}",
		len(n.sites), len(n.endpoints), n.Messages.Value(), n.Drops.Value())
}
