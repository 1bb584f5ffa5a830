package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/rebalance"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

func TestParseFilterEquality(t *testing.T) {
	f, err := parseFilter("(msisdn=34600000001)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != ldap.FilterEquality || f.Attr != "msisdn" || f.Value != "34600000001" {
		t.Fatalf("filter = %+v", f)
	}
}

func TestParseFilterPresence(t *testing.T) {
	f, err := parseFilter("(objectClass=*)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != ldap.FilterPresent || f.Attr != "objectClass" {
		t.Fatalf("filter = %+v", f)
	}
}

func TestParseFilterTrimsSpace(t *testing.T) {
	if _, err := parseFilter("  (imsi=1)  "); err != nil {
		t.Fatal(err)
	}
}

func TestParseFilterErrors(t *testing.T) {
	for _, bad := range []string{"", "msisdn=1", "(msisdn)", "(=1)", "(novalue"} {
		if _, err := parseFilter(bad); err == nil {
			t.Errorf("parseFilter(%q) accepted", bad)
		}
	}
}

func TestParseFilterValueWithEquals(t *testing.T) {
	f, err := parseFilter("(impu=sip:+34=6@x)")
	if err != nil {
		t.Fatal(err)
	}
	if f.Value != "sip:+34=6@x" {
		t.Fatalf("value = %q", f.Value)
	}
}

// dialBackend serves an LDAP backend over an in-memory pipe and
// returns a bound client (the exact wire path udrctl uses).
func dialBackend(t *testing.T, b *core.LDAPBackend) *ldap.Client {
	t.Helper()
	server := ldap.NewServer(b)
	cliConn, srvConn := net.Pipe()
	go server.ServeConn(srvConn)
	c := ldap.NewClient(cliConn)
	t.Cleanup(func() { c.Unbind() })
	if r, err := c.Bind("cn=test", "x"); err != nil || r.Code != ldap.ResultSuccess {
		t.Fatalf("bind: %v %v", r, err)
	}
	return c
}

// TestRepairRequiresTopology pins the control-plane guard: a backend
// without topology access (a plain data endpoint) must refuse both the
// status and the repair extended operations instead of crashing.
func TestRepairRequiresTopology(t *testing.T) {
	network := simnet.New(simnet.FastConfig())
	u, err := core.New(network, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session)) // no WithTopology

	if _, r, err := c.Repair(); err != nil || r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("repair without topology: %v %v, want unwillingToPerform", r.Code, err)
	}
	if _, r, err := c.Status(); err != nil || r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("status without topology: %v %v, want unwillingToPerform", r.Code, err)
	}
}

// TestRepairDisabledAntiEntropy pins the operator error when the UDR
// runs without the anti-entropy subsystem: udrctl repair must get a
// clean unwilling-to-perform with an explanation, not a success with
// zero rounds.
func TestRepairDisabledAntiEntropy(t *testing.T) {
	network := simnet.New(simnet.FastConfig())
	u, err := core.New(network, core.DefaultConfig()) // AntiEntropy off
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session).WithTopology(u))

	_, r, err := c.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("repair with anti-entropy disabled: %v, want unwillingToPerform", r.Code)
	}
	if !strings.Contains(r.Message, "disabled") {
		t.Fatalf("message %q does not explain the refusal", r.Message)
	}
}

// TestRepairPartitionedPeerReportsError drives repair while a site is
// partitioned away: the extended op must complete, report the rounds
// that did run, and surface the unreachable peer as a non-success
// result — the operator needs to know the round was partial.
func TestRepairPartitionedPeerReportsError(t *testing.T) {
	network := simnet.New(simnet.FastConfig())
	cfg := core.DefaultConfig()
	cfg.AntiEntropy = true
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < 6; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut := u.Sites()[2]
	network.Partition([]string{cut})

	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session).WithTopology(u))
	text, r, err := c.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultOther {
		t.Fatalf("repair across a partition: %v, want other (partial failure)", r.Code)
	}
	if !strings.Contains(text, "repair total:") {
		t.Fatalf("partial repair report missing summary:\n%s", text)
	}
}

// moveTestUDR builds a two-site, two-SE-per-site UDR (so elements
// hosting no replica of a partition exist — eligible migration
// targets) plus a bound LDAP client with topology access: the exact
// wire path udrctl move / rebalance uses.
func moveTestUDR(t *testing.T, subs int) (*simnet.Network, *core.UDR, *ldap.Client) {
	t.Helper()
	network := simnet.New(simnet.FastConfig())
	cfg := core.DefaultConfig()
	cfg.Sites = []core.SiteSpec{
		{Name: "eu-south", SEs: 2, PartitionsPerSE: 1},
		{Name: "eu-north", SEs: 2, PartitionsPerSE: 1},
	}
	cfg.ReplicationFactor = 2
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < subs; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			t.Fatal(err)
		}
	}
	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session).WithTopology(u))
	return network, u, c
}

// TestMoveRequiresTopology mirrors the repair guard: a data-only
// endpoint must refuse the move and rebalance extended ops.
func TestMoveRequiresTopology(t *testing.T) {
	network := simnet.New(simnet.FastConfig())
	u, err := core.New(network, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session)) // no WithTopology

	if _, r, err := c.Move("p-x", "se-x"); err != nil || r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("move without topology: %v %v, want unwillingToPerform", r.Code, err)
	}
	if _, r, err := c.Rebalance(); err != nil || r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("rebalance without topology: %v %v, want unwillingToPerform", r.Code, err)
	}
}

// TestMoveUnknownTargets pins the operator-mistake classes: an
// unknown partition or element must come back as noSuchObject, and a
// malformed request as a protocol error.
func TestMoveUnknownTargets(t *testing.T) {
	_, u, c := moveTestUDR(t, 4)
	if _, r, err := c.Move("p-nope", u.Elements()[0]); err != nil || r.Code != ldap.ResultNoSuchObject {
		t.Fatalf("unknown partition: %v %v, want noSuchObject", r.Code, err)
	}
	if _, r, err := c.Move(u.Partitions()[0], "se-nope"); err != nil || r.Code != ldap.ResultNoSuchObject {
		t.Fatalf("unknown element: %v %v, want noSuchObject", r.Code, err)
	}
	if _, r, err := c.Move("p-only", ""); err != nil || r.Code != ldap.ResultProtocolError {
		t.Fatalf("malformed move: %v %v, want protocolError", r.Code, err)
	}
}

// TestMoveTargetAlreadyHostsReplica pins the conflict class: moving a
// master onto an element already holding a copy is a failover, not a
// migration, and must be refused cleanly.
func TestMoveTargetAlreadyHostsReplica(t *testing.T) {
	_, u, c := moveTestUDR(t, 4)
	partID := u.Partitions()[0]
	part, _ := u.Partition(partID)
	_, r, err := c.Move(partID, part.Replicas[1].Element)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("move onto a replica holder: %v, want unwillingToPerform", r.Code)
	}
	if !strings.Contains(r.Message, "already hosts") {
		t.Fatalf("message %q does not explain the conflict", r.Message)
	}
}

// TestMoveInFlightConflict pins the concurrency guard: while a
// migration of a partition runs, a second move of the same partition
// over LDAP must get busy, not a second migration.
func TestMoveInFlightConflict(t *testing.T) {
	_, u, c := moveTestUDR(t, 4)
	partID := "p-eu-south-0"
	part, _ := u.Partition(partID)
	hosted := map[string]bool{}
	for _, ref := range part.Replicas {
		hosted[ref.Element] = true
	}
	target := ""
	for _, el := range u.Elements() {
		if !hosted[el] {
			target = el
			break
		}
	}

	hold := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		_, err := u.MigratePartition(ctx, partID, target, false,
			core.WithMigrateHooks(rebalance.Hooks{AfterCopy: func() {
				close(entered)
				<-hold
			}}))
		done <- err
	}()
	<-entered
	_, r, err := c.Move(partID, target)
	close(hold)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultBusy {
		t.Fatalf("move during migration: %v, want busy", r.Code)
	}
	if err := <-done; err != nil {
		t.Fatalf("held migration failed: %v", err)
	}
}

// TestMoveEndToEnd drives the full operator path: udrctl move over
// LDAP migrates a live partition and reports the cost line.
func TestMoveEndToEnd(t *testing.T) {
	_, u, c := moveTestUDR(t, 12)
	partID := "p-eu-south-0"
	part, _ := u.Partition(partID)
	hosted := map[string]bool{}
	for _, ref := range part.Replicas {
		hosted[ref.Element] = true
	}
	target := ""
	for _, el := range u.Elements() {
		if !hosted[el] {
			target = el
			break
		}
	}

	text, r, err := c.Move(partID, target)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultSuccess {
		t.Fatalf("move: %v %s", r.Code, r.Message)
	}
	if !strings.Contains(text, "migrate "+partID) || !strings.Contains(text, "rows=") {
		t.Fatalf("move report missing cost line:\n%s", text)
	}
	after, _ := u.Partition(partID)
	if after.Master().Element != target {
		t.Fatalf("master = %s, want %s", after.Master().Element, target)
	}
	// The status extended op reflects the new placement.
	status, r, err := c.Status()
	if err != nil || r.Code != ldap.ResultSuccess {
		t.Fatalf("status after move: %v %v", r.Code, err)
	}
	if !strings.Contains(status, target) {
		t.Fatalf("status does not show the new master:\n%s", status)
	}
}

// TestRebalanceEndToEnd drives udrctl rebalance: a balanced cluster
// reports no moves; the report shape is the operator contract.
func TestRebalanceEndToEnd(t *testing.T) {
	_, _, c := moveTestUDR(t, 8)
	text, r, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultSuccess {
		t.Fatalf("rebalance: %v %s", r.Code, r.Message)
	}
	if !strings.Contains(text, "balanced") && !strings.Contains(text, "rebalance total:") {
		t.Fatalf("rebalance report unrecognized:\n%s", text)
	}
}

// TestRepairEndToEnd drives the operator path udrctl repair uses: an
// LDAP client issues the repair extended op against a backend with
// topology access, and a deliberately divergent slave row converges.
func TestRepairEndToEnd(t *testing.T) {
	network := simnet.New(simnet.FastConfig())
	cfg := core.DefaultConfig()
	cfg.AntiEntropy = true
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < 12; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Diverge one slave copy: a stale out-of-band overwrite of a
	// seeded row plus a stranded replication watermark, the
	// post-failover shape. The master's version is newer and must win
	// back the row through repair.
	partID := u.Partitions()[0]
	part, _ := u.Partition(partID)
	masterStore := u.Element(part.Master().Element).Replica(partID).Store
	slaveStore := u.Element(part.Replicas[1].Element).Replica(partID).Store
	var keys []string
	masterStore.ForEach(func(k string, _ store.Entry, _ store.Meta) bool {
		keys = append(keys, k)
		return true
	})
	slices.Sort(keys)
	key := keys[0]
	wantEntry, _, _ := masterStore.GetCommitted(key)
	slaveStore.SetAppliedCSN(1 << 40)
	slaveStore.PutDirect(key, store.Entry{"v": {"stale"}}, store.Meta{CSN: 1, WallTS: 1})

	session := core.NewSession(network, simnet.MakeAddr(part.HomeSite, "udrctl-test"),
		part.HomeSite, core.PolicyPS)
	server := ldap.NewServer(core.NewLDAPBackend(session).WithTopology(u))
	cliConn, srvConn := net.Pipe()
	go server.ServeConn(srvConn)

	c := ldap.NewClient(cliConn)
	defer c.Unbind()
	if r, err := c.Bind("cn=test", "x"); err != nil || r.Code != ldap.ResultSuccess {
		t.Fatalf("bind: %v %v", r, err)
	}
	text, r, err := c.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if r.Code != ldap.ResultSuccess {
		t.Fatalf("repair result: %v %s", r.Code, r.Message)
	}
	if !strings.Contains(text, "repair total:") {
		t.Fatalf("repair report missing summary:\n%s", text)
	}
	if !strings.Contains(text, "shipped=") {
		t.Fatalf("repair report shows no shipped rows:\n%s", text)
	}
	got, _, ok := slaveStore.GetCommitted(key)
	if !ok || !got.Equal(wantEntry) {
		t.Fatalf("divergent row not repaired: got %v, want %v", got, wantEntry)
	}
}

// TestMoveOutlastsDataTimeout pins the admin deadline on the LDAP
// path: a move whose bulk copy takes longer than the 2 s per-request
// data timeout must still complete over udrctl, as it does over
// POST /admin/move. A 10 ms backbone hop makes each 128-row copy
// batch a ~22 ms round trip, well inside the Migrator's 50 ms
// per-call timeout, so 16 384 rows copy in ~2.8 s.
func TestMoveOutlastsDataTimeout(t *testing.T) {
	const rows = 16384
	network := simnet.New(simnet.Config{
		Backbone: simnet.Link{Latency: 10 * time.Millisecond},
		Seed:     1,
	})
	cfg := core.DefaultConfig()
	cfg.Sites = []core.SiteSpec{
		{Name: "eu-south", SEs: 2, PartitionsPerSE: 1},
		{Name: "eu-north", SEs: 2, PartitionsPerSE: 1},
	}
	cfg.ReplicationFactor = 2
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)

	partID := "p-eu-south-0"
	part, _ := u.Partition(partID)
	master := u.Element(part.Master().Element)
	st := master.Replica(partID).Store
	for i := 0; i < rows; i++ {
		txn := st.Begin(store.ReadCommitted)
		txn.Put(fmt.Sprintf("row-%05d", i), store.Entry{"v": {"x"}})
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A cross-site target: the copy crosses the slow backbone.
	hosted := map[string]bool{}
	for _, ref := range part.Replicas {
		hosted[ref.Element] = true
	}
	target := ""
	for _, el := range u.Elements() {
		if !hosted[el] && u.Element(el).Site() != master.Site() {
			target = el
		}
	}

	session := core.NewSession(network, simnet.MakeAddr("eu-south", "udrctl-test"), "eu-south", core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session).WithTopology(u))
	start := time.Now()
	text, r, err := c.Move(partID, target)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ldap.ResultSuccess {
		t.Fatalf("move after %s: %v %s", took, r.Code, r.Message)
	}
	if took <= 2*time.Second {
		t.Fatalf("move took %s: too fast to outlast the data timeout", took)
	}
	if !strings.Contains(text, fmt.Sprintf("rows=%d", rows)) {
		t.Fatalf("move report does not show the full copy:\n%s", text)
	}
}

// TestTraceExtendedOp drives udrctl trace over the wire: the recent
// and slow listings, one trace's span tree, and the two operator
// mistakes — an id never sampled (noSuchObject) and one that is not
// an id at all (protocolError).
func TestTraceExtendedOp(t *testing.T) {
	rec := trace.New(trace.Config{SampleRate: 1})
	root := rec.StartRoot("fe.MOCall", "eu-south/HLR-FE")
	child := rec.StartChild(root.Ctx(), "session.exec", "eu-south/fe-0")
	child.End(nil)
	root.End(nil)
	slow := rec.StartRoot("fe.IMSRegister", "americas/HSS-FE")
	slow.EndWithDuration(3*time.Second, nil)

	network := simnet.New(simnet.FastConfig())
	cfg := core.DefaultConfig()
	cfg.Trace = rec
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	site := u.Sites()[0]
	session := core.NewSession(network, simnet.MakeAddr(site, "udrctl-test"), site, core.PolicyPS)
	c := dialBackend(t, core.NewLDAPBackend(session).WithTopology(u))

	call := func(arg string, want ldap.ResultCode) string {
		t.Helper()
		text, r, err := c.Trace(arg)
		if err != nil || r.Code != want {
			t.Fatalf("trace %q: %v %v (%s), want %v", arg, r.Code, err, r.Message, want)
		}
		return text
	}
	id := root.Ctx().Trace.String()
	if text := call("recent", ldap.ResultSuccess); !strings.HasPrefix(text, "2 recent traces") ||
		!strings.Contains(text, id+"  fe.MOCall") {
		t.Fatalf("recent listing:\n%s", text)
	}
	// Slowest first: the 3 s root heads the listing.
	if text := call("slow", ldap.ResultSuccess); !strings.HasPrefix(text, "2 slowest traces") ||
		!strings.Contains(text, ")\n"+slow.Ctx().Trace.String()+"  fe.IMSRegister") {
		t.Fatalf("slow listing:\n%s", text)
	}
	if text := call(id, ldap.ResultSuccess); !strings.Contains(text, "fe.MOCall") ||
		!strings.Contains(text, "session.exec") {
		t.Fatalf("span tree:\n%s", text)
	}
	call("00000000deadbeef", ldap.ResultNoSuchObject)
	call("not-hex", ldap.ResultProtocolError)
}
