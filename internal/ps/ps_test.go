package ps

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/subscriber"
)

func newUDR(t *testing.T) (*simnet.Network, *core.UDR) {
	t.Helper()
	net := simnet.New(simnet.FastConfig())
	u, err := core.New(net, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	return net, u
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestProvisionAndActivate(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	site := u.Sites()[0]
	system := New(net, site, "ps-1")

	prof := subscriber.NewGenerator(u.Sites()...).Profile(1)
	prof.Active = false
	if err := system.Provision(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if system.Provisioned.Value() != 1 {
		t.Fatalf("provisioned = %d", system.Provisioned.Value())
	}

	if err := system.Activate(ctx, prof.ID); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := system.Session().ReadProfile(ctx,
		subscriber.Identity{Type: subscriber.IMSI, Value: prof.IMSIVal})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Active {
		t.Fatal("activation not applied")
	}
}

func TestSetPremiumBarring(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	site := u.Sites()[0]
	system := New(net, site, "ps-1")
	prof := subscriber.NewGenerator(u.Sites()...).Profile(2)
	if err := system.Provision(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if err := system.SetPremiumBarring(ctx, prof.ID, true); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := system.Session().ReadProfile(ctx,
		subscriber.Identity{Type: subscriber.MSISDN, Value: prof.MSISDNVal})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Services.BarPremium {
		t.Fatal("barring not applied")
	}
	if err := system.SetPremiumBarring(ctx, prof.ID, false); err != nil {
		t.Fatal(err)
	}
}

func TestSetCallForwarding(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	system := New(net, u.Sites()[0], "ps-1")
	prof := subscriber.NewGenerator(u.Sites()...).Profile(3)
	if err := system.Provision(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if err := system.SetCallForwarding(ctx, prof.ID, "34612345678"); err != nil {
		t.Fatal(err)
	}
	got, _, _, _ := system.Session().ReadProfile(ctx,
		subscriber.Identity{Type: subscriber.IMSI, Value: prof.IMSIVal})
	if got.Services.ForwardUnconditional != "34612345678" {
		t.Fatalf("cfu = %q", got.Services.ForwardUnconditional)
	}
	// Clearing.
	if err := system.SetCallForwarding(ctx, prof.ID, ""); err != nil {
		t.Fatal(err)
	}
	got, _, _, _ = system.Session().ReadProfile(ctx,
		subscriber.Identity{Type: subscriber.IMSI, Value: prof.IMSIVal})
	if got.Services.ForwardUnconditional != "" {
		t.Fatalf("cfu not cleared: %q", got.Services.ForwardUnconditional)
	}
}

func TestDeprovision(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	system := New(net, u.Sites()[0], "ps-1")
	prof := subscriber.NewGenerator(u.Sites()...).Profile(4)
	if err := system.Provision(ctx, prof); err != nil {
		t.Fatal(err)
	}
	if err := system.Deprovision(ctx, prof.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := system.Session().ReadProfile(ctx,
		subscriber.Identity{Type: subscriber.IMSI, Value: prof.IMSIVal}); err == nil {
		t.Fatal("deprovisioned subscription still readable")
	}
}

func TestProvisionFailsThroughPartition(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	site := u.Sites()[0]
	system := New(net, site, "ps-1")

	prof := subscriber.NewGenerator(u.Sites()...).Profile(5)
	// Home the profile away from the PS, then partition the PS's
	// site: the provisioning write cannot reach the master.
	for _, s := range u.Sites() {
		if s != site {
			prof.HomeRegion = s
			break
		}
	}
	net.Partition([]string{site})
	defer net.Heal()
	err := system.Provision(ctx, prof)
	if err == nil {
		t.Fatal("provisioning through a partition succeeded")
	}
	if system.Failed.Value() != 1 {
		t.Fatalf("failed counter = %d", system.Failed.Value())
	}
}

func TestRunBatchCompletes(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	system := New(net, u.Sites()[0], "ps-1")
	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 10; i < 30; i++ {
		profiles = append(profiles, gen.Profile(i))
	}
	res := system.RunBatch(ctx, profiles, 0, true)
	if res.Succeeded != 20 || res.Failed != 0 || res.Aborted {
		t.Fatalf("batch = %+v", res)
	}
	if res.FailureRate() != 0 {
		t.Fatalf("failure rate = %v", res.FailureRate())
	}
}

func TestRunBatchStopOnErrorAborts(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	site := u.Sites()[0]
	system := New(net, site, "ps-1")
	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 40; i < 60; i++ {
		profiles = append(profiles, gen.Profile(i))
	}

	// Glitch the batch mid-run (§4.1): let a few items complete
	// before the backbone drops.
	done := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() {
		net.Glitch(ctx, []string{site}, 50*time.Millisecond)
		close(done)
	})
	res := system.RunBatch(ctx, profiles, 2*time.Millisecond, true)
	<-done
	if !res.Aborted {
		t.Fatalf("batch not aborted: %+v", res)
	}
	if res.Succeeded == 0 {
		t.Fatal("nothing completed before the glitch")
	}
	if res.FirstErr == nil {
		t.Fatal("no first error recorded")
	}
}

func TestRunBatchContinueOnError(t *testing.T) {
	net, u := newUDR(t)
	ctx := ctxT(t)
	site := u.Sites()[0]
	system := New(net, site, "ps-1")
	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 70; i < 90; i++ {
		profiles = append(profiles, gen.Profile(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		net.Glitch(ctx, []string{site}, 30*time.Millisecond)
	}()
	res := system.RunBatch(ctx, profiles, 2*time.Millisecond, false)
	<-done
	if res.Aborted {
		t.Fatalf("lenient batch aborted: %+v", res)
	}
	if res.Succeeded+res.Failed != res.Total {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.Failed == 0 {
		t.Fatal("glitch caused no failures (local-region only?)")
	}
}

func TestRunBatchContextCancel(t *testing.T) {
	net, u := newUDR(t)
	system := New(net, u.Sites()[0], "ps-1")
	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 0; i < 10; i++ {
		profiles = append(profiles, gen.Profile(100+i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := system.RunBatch(ctx, profiles, time.Millisecond, true)
	if !res.Aborted {
		t.Fatalf("cancelled batch not aborted: %+v", res)
	}
}

func TestPreUDCPartialStates(t *testing.T) {
	gen := subscriber.NewGenerator("r1")
	pre := NewPreUDC()

	// Healthy flow: consistent.
	if err := pre.Provision(gen.Profile(0)); err != nil {
		t.Fatal(err)
	}
	if !pre.Consistent(gen.Profile(0)) {
		t.Fatal("healthy flow inconsistent")
	}

	// Crash after the HSS write: HSS has data, SLFs don't.
	pre.FailAfter = 1
	if err := pre.Provision(gen.Profile(1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if pre.Consistent(gen.Profile(1)) {
		t.Fatal("partial flow reported consistent")
	}
	if pre.PartialStates.Value() != 1 {
		t.Fatalf("partial states = %d", pre.PartialStates.Value())
	}

	// Crash after the first SLF write: two of three nodes updated.
	pre.FailAfter = 2
	if err := pre.Provision(gen.Profile(2)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if pre.Consistent(gen.Profile(2)) {
		t.Fatal("partial flow reported consistent")
	}

	// Crash before everything: nothing written, still consistent.
	pre.FailAfter = 3
	if err := pre.Provision(gen.Profile(3)); err != nil {
		t.Fatal(err)
	}
	if !pre.Consistent(gen.Profile(3)) {
		t.Fatal("complete flow inconsistent")
	}
}
