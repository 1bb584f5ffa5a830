package simnet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func echoHandler(ctx context.Context, from Addr, req any) (any, error) {
	return req, nil
}

func newTestNet() *Network {
	n := New(FastConfig())
	n.AddSite("eu")
	n.AddSite("us")
	return n
}

func TestAddrParts(t *testing.T) {
	a := MakeAddr("eu", "se-1")
	if a.Site() != "eu" || a.Process() != "se-1" {
		t.Fatalf("addr parts = %q/%q", a.Site(), a.Process())
	}
	bare := Addr("nosite")
	if bare.Site() != "nosite" || bare.Process() != "" {
		t.Fatalf("bare addr = %q/%q", bare.Site(), bare.Process())
	}
}

func TestCallEcho(t *testing.T) {
	n := newTestNet()
	dst := MakeAddr("eu", "echo")
	n.Register(dst, echoHandler)
	got, err := n.Call(context.Background(), MakeAddr("eu", "client"), dst, "ping")
	if err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Fatalf("got %v", got)
	}
	if n.Messages.Value() != 1 {
		t.Fatalf("messages = %d", n.Messages.Value())
	}
}

func TestCallNoEndpoint(t *testing.T) {
	n := newTestNet()
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), MakeAddr("eu", "missing"), 1)
	if !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallDownEndpoint(t *testing.T) {
	n := newTestNet()
	dst := MakeAddr("eu", "echo")
	n.Register(dst, echoHandler)
	n.SetDown(dst, true)
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), dst, 1)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	n.SetDown(dst, false)
	if _, err := n.Call(context.Background(), MakeAddr("eu", "c"), dst, 1); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestPartitionBlocksCrossSiteOnly(t *testing.T) {
	n := newTestNet()
	euSrv := MakeAddr("eu", "srv")
	usSrv := MakeAddr("us", "srv")
	n.Register(euSrv, echoHandler)
	n.Register(usSrv, echoHandler)

	n.Partition([]string{"eu"})
	if !n.Partitioned("eu", "us") {
		t.Fatal("eu/us should be partitioned")
	}
	if n.Partitioned("eu", "eu") {
		t.Fatal("eu/eu should not be partitioned")
	}

	// Cross-partition call fails.
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), usSrv, 1)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition err = %v", err)
	}
	// Same-side call succeeds.
	if _, err := n.Call(context.Background(), MakeAddr("eu", "c"), euSrv, 1); err != nil {
		t.Fatalf("same-side call: %v", err)
	}

	n.Heal()
	if _, err := n.Call(context.Background(), MakeAddr("eu", "c"), usSrv, 1); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestPartitionGroups(t *testing.T) {
	n := New(FastConfig())
	for _, s := range []string{"a", "b", "c"} {
		n.AddSite(s)
	}
	n.PartitionGroups([]string{"a"}, []string{"b"})
	if !n.Partitioned("a", "b") || !n.Partitioned("a", "c") || !n.Partitioned("b", "c") {
		t.Fatal("three-way partition not installed")
	}
	n.Heal()
	if n.Partitioned("a", "b") {
		t.Fatal("heal failed")
	}
}

// Overlapping glitches: a second Partition regroups every site, so it
// supersedes the first, and one Heal clears whatever is in effect.
func TestPartitionSupersedesAndHealClears(t *testing.T) {
	n := New(FastConfig())
	for _, s := range []string{"a", "b", "c"} {
		n.AddSite(s)
	}
	n.Partition([]string{"a"})
	n.Partition([]string{"c"})
	if !n.Partitioned("c", "b") {
		t.Fatal("second partition not in effect")
	}
	if n.Partitioned("a", "b") {
		t.Fatal("second partition should supersede the first")
	}
	n.Heal()
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if n.Partitioned(pair[0], pair[1]) {
			t.Fatalf("sites %v still partitioned after heal", pair)
		}
	}
}

// The partition in effect during a glitch is observed by
// TestGlitchCancelledHealsEarly, which can wait for it without racing
// the heal; this one holds the duration and the heal.
func TestGlitchPartitionsAndHeals(t *testing.T) {
	n := newTestNet()
	const d = 30 * time.Millisecond
	start := time.Now()
	n.Glitch(context.Background(), []string{"eu"}, d)
	if time.Since(start) < d {
		t.Fatal("glitch returned early")
	}
	if n.Partitioned("eu", "us") {
		t.Fatal("glitch did not heal")
	}
}

func TestGlitchCancelledHealsEarly(t *testing.T) {
	n := newTestNet()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Glitch(ctx, []string{"eu"}, 10*time.Second)
	}()
	for deadline := time.Now().Add(2 * time.Second); !n.Partitioned("eu", "us"); {
		if time.Now().After(deadline) {
			t.Fatal("glitch never partitioned")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled glitch did not end")
	}
	if n.Partitioned("eu", "us") {
		t.Fatal("cancelled glitch left the partition")
	}
}

// A call over the backbone never returns before two one-way hops have
// elapsed: neither the Go timer nor the sub-millisecond wait fires
// early.
func TestBackboneSlowerThanLocal(t *testing.T) {
	for _, latency := range []time.Duration{3 * time.Millisecond, 300 * time.Microsecond} {
		cfg := Config{
			Local:    Link{Latency: 0},
			Backbone: Link{Latency: latency},
			Seed:     1,
		}
		n := New(cfg)
		local := MakeAddr("eu", "srv")
		remote := MakeAddr("us", "srv")
		n.Register(local, echoHandler)
		n.Register(remote, echoHandler)
		c := MakeAddr("eu", "client")

		t0 := time.Now()
		if _, err := n.Call(context.Background(), c, local, 1); err != nil {
			t.Fatal(err)
		}
		localD := time.Since(t0)

		t0 = time.Now()
		if _, err := n.Call(context.Background(), c, remote, 1); err != nil {
			t.Fatal(err)
		}
		remoteD := time.Since(t0)

		if remoteD < 2*latency { // two one-way backbone hops
			t.Fatalf("backbone %v: RTT = %v, want >= %v", latency, remoteD, 2*latency)
		}
		if localD > remoteD {
			t.Fatalf("backbone %v: local %v slower than backbone %v", latency, localD, remoteD)
		}
	}
}

func TestLossyLink(t *testing.T) {
	cfg := FastConfig()
	cfg.Backbone.Loss = 1.0 // everything dropped
	n := New(cfg)
	dst := MakeAddr("us", "srv")
	n.Register(dst, echoHandler)
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), dst, 1)
	if !errors.Is(err, ErrLost) {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	if n.Drops.Value() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestSendOneWay(t *testing.T) {
	n := newTestNet()
	var got atomic.Int64
	dst := MakeAddr("eu", "sink")
	n.Register(dst, func(ctx context.Context, from Addr, req any) (any, error) {
		got.Add(int64(req.(int)))
		return nil, nil
	})
	n.Send(MakeAddr("eu", "c"), dst, 42)
	deadline := time.Now().Add(time.Second)
	for got.Load() != 42 {
		if time.Now().After(deadline) {
			t.Fatal("one-way message not delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendIntoPartitionSilentlyDropped(t *testing.T) {
	n := newTestNet()
	var got atomic.Int64
	dst := MakeAddr("us", "sink")
	n.Register(dst, func(ctx context.Context, from Addr, req any) (any, error) {
		got.Add(1)
		return nil, nil
	})
	n.Partition([]string{"eu"})
	n.Send(MakeAddr("eu", "c"), dst, 1)
	time.Sleep(5 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("message crossed a partition")
	}
}

// A context that ends during a link delay ends the call with its error,
// both on the Go timer (1 s link) and within the sub-millisecond wait
// (800 us link), never with success.
func TestContextCancellation(t *testing.T) {
	for _, tc := range []struct{ link, timeout time.Duration }{
		{time.Second, 5 * time.Millisecond},
		{800 * time.Microsecond, 300 * time.Microsecond},
	} {
		cfg := Config{
			Local:    Link{Latency: tc.link},
			Backbone: Link{Latency: tc.link},
			Seed:     1,
		}
		n := New(cfg)
		dst := MakeAddr("eu", "srv")
		n.Register(dst, echoHandler)
		ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
		start := time.Now()
		_, err := n.Call(ctx, MakeAddr("eu", "c"), dst, 1)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("link %v, timeout %v: err = %v", tc.link, tc.timeout, err)
		}
		if time.Since(start) > 200*time.Millisecond {
			t.Fatalf("link %v: cancellation did not interrupt the sleep", tc.link)
		}
	}
}

// A sub-millisecond sleep, the one every near-site hop makes, costs no
// allocation.
func TestSleepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := context.Background()
	if a := testing.AllocsPerRun(100, func() { _ = sleep(ctx, 300*time.Microsecond) }); a != 0 {
		t.Fatalf("sleep(300us) allocs = %v, want 0", a)
	}
}

func TestPartitionChargesTimeout(t *testing.T) {
	cfg := FastConfig()
	cfg.Backbone.Timeout = 10 * time.Millisecond
	n := New(cfg)
	dst := MakeAddr("us", "srv")
	n.Register(dst, echoHandler)
	n.Partition([]string{"eu"})
	start := time.Now()
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), dst, 1)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("partition failure returned in %v, want >= link timeout", d)
	}
}

func TestSetLinkOverride(t *testing.T) {
	n := New(FastConfig())
	n.AddSite("a")
	n.AddSite("b")
	n.SetLink("a", "b", Link{Latency: 42 * time.Millisecond})
	l := n.LinkBetween("a", "b")
	if l.Latency != 42*time.Millisecond {
		t.Fatalf("link latency = %v", l.Latency)
	}
	if n.LinkBetween("b", "a").Latency != 42*time.Millisecond {
		t.Fatal("link override not symmetric")
	}
	if n.LinkBetween("a", "a").Latency != FastConfig().Local.Latency {
		t.Fatal("local link affected by override")
	}
}

func TestReachable(t *testing.T) {
	n := newTestNet()
	dst := MakeAddr("us", "srv")
	n.Register(dst, echoHandler)
	src := MakeAddr("eu", "c")
	if !n.Reachable(src, dst) {
		t.Fatal("should be reachable")
	}
	n.Partition([]string{"eu"})
	if n.Reachable(src, dst) {
		t.Fatal("should be partitioned")
	}
	n.Heal()
	n.SetDown(dst, true)
	if n.Reachable(src, dst) {
		t.Fatal("down endpoint should be unreachable")
	}
}

func TestSitesSorted(t *testing.T) {
	n := New(FastConfig())
	for _, s := range []string{"zz", "aa", "mm"} {
		n.AddSite(s)
	}
	sites := n.Sites()
	if len(sites) != 3 || sites[0] != "aa" || sites[2] != "zz" {
		t.Fatalf("sites = %v", sites)
	}
}

func TestUnregister(t *testing.T) {
	n := newTestNet()
	dst := MakeAddr("eu", "srv")
	n.Register(dst, echoHandler)
	n.Unregister(dst)
	_, err := n.Call(context.Background(), MakeAddr("eu", "c"), dst, 1)
	if !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

// CallWithin's deadline interrupts a hop both on the Go timer (1 s
// link) and within the sub-millisecond wait (800 us link), never with
// success.
func TestCallWithinTimeout(t *testing.T) {
	for _, tc := range []struct{ link, timeout time.Duration }{
		{time.Second, 5 * time.Millisecond},
		{800 * time.Microsecond, 300 * time.Microsecond},
	} {
		n := New(Config{Local: Link{Latency: tc.link}, Seed: 1})
		dst := MakeAddr("eu", "srv")
		n.Register(dst, echoHandler)
		start := time.Now()
		_, err := n.CallWithin(MakeAddr("eu", "c"), dst, 1, tc.timeout)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("link %v, timeout %v: err = %v", tc.link, tc.timeout, err)
		}
		if el := time.Since(start); el > 200*time.Millisecond || el < tc.timeout {
			t.Fatalf("link %v, timeout %v: returned after %v", tc.link, tc.timeout, el)
		}
	}
}

// A call with a pointer request and a nil response allocates nothing:
// neither the 300 us round trip of a near-site hop nor a 3 ms one,
// whose hops also wait on a (pooled) Go timer.
func TestCallWithinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, oneWay := range []time.Duration{150 * time.Microsecond, 1500 * time.Microsecond} {
		n := New(Config{Local: Link{Latency: oneWay}, Seed: 1})
		src, dst := MakeAddr("eu", "c"), MakeAddr("eu", "srv")
		n.Register(dst, func(context.Context, Addr, any) (any, error) { return nil, nil })
		req := new(int)
		call := func() {
			if _, err := n.CallWithin(src, dst, req, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(100, call); a != 0 {
			t.Fatalf("CallWithin(%v round trip) allocs = %v, want 0", 2*oneWay, a)
		}
	}
}

// TestCallOwnershipHandlerDone pins the guarantee pooled request
// envelopes rely on: the handler has returned before Call or
// CallWithin does, including when the deadline or the context ends
// during the handler or clips the response leg. A handler still
// running after the return would read or fill memory the caller has
// already reused.
func TestCallOwnershipHandlerDone(t *testing.T) {
	type envelope struct{ in, out int }
	cases := []struct {
		name    string
		link    time.Duration // one-way latency
		work    time.Duration // handler run time
		timeout time.Duration // CallWithin deadline; 0 uses Call with a context
		cancel  time.Duration // context timeout for Call
	}{
		{name: "deadline clips response leg", link: 4 * time.Millisecond, work: time.Millisecond, timeout: 7 * time.Millisecond},
		{name: "deadline passes inside handler", link: time.Millisecond, work: 10 * time.Millisecond, timeout: 3 * time.Millisecond},
		{name: "context ends on response leg", link: 4 * time.Millisecond, work: time.Millisecond, cancel: 7 * time.Millisecond},
		{name: "context ends inside handler", link: time.Millisecond, work: 10 * time.Millisecond, cancel: 3 * time.Millisecond},
		{name: "completed", work: time.Millisecond, timeout: time.Second},
	}
	for _, tc := range cases {
		n := New(Config{Local: Link{Latency: tc.link}, Seed: 1})
		src, dst := MakeAddr("eu", "c"), MakeAddr("eu", "srv")
		var running, ran atomic.Int32
		n.Register(dst, func(_ context.Context, _ Addr, req any) (any, error) {
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(tc.work)
			e := req.(*envelope)
			e.out = e.in * 2
			ran.Add(1)
			return e, nil
		})
		e := &envelope{in: 21}
		var err error
		if tc.timeout > 0 {
			_, err = n.CallWithin(src, dst, e, tc.timeout)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), tc.cancel)
			_, err = n.Call(ctx, src, dst, e)
			cancel()
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("%s: handler still running after the call returned (err %v)", tc.name, err)
		}
		if ran.Load() != 1 || e.out != 42 {
			t.Fatalf("%s: handler ran %d times, envelope %+v (err %v)", tc.name, ran.Load(), *e, err)
		}
		// The caller owns the envelope again: reusing it races with
		// nothing, which the race detector checks.
		e.in, e.out = 0, 0
	}
}
