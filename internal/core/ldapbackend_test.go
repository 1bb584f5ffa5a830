package core

import (
	"bytes"
	"context"
	"testing"
	"unsafe"

	"repro/internal/ldap"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"time"
)

func TestIdentityFromFilter(t *testing.T) {
	cases := []struct {
		filter ldap.Filter
		want   subscriber.Identity
		ok     bool
	}{
		{ldap.Eq("msisdn", "123"), subscriber.Identity{Type: subscriber.MSISDN, Value: "123"}, true},
		{ldap.Eq("imsi", "456"), subscriber.Identity{Type: subscriber.IMSI, Value: "456"}, true},
		{ldap.Eq("impi", "a@b"), subscriber.Identity{Type: subscriber.IMPI, Value: "a@b"}, true},
		{ldap.Eq("impu", "sip:x"), subscriber.Identity{Type: subscriber.IMPU, Value: "sip:x"}, true},
		{ldap.And(ldap.Eq("objectClass", "udrSubscription"), ldap.Eq("msisdn", "789")),
			subscriber.Identity{Type: subscriber.MSISDN, Value: "789"}, true},
		{ldap.Eq("objectClass", "udrSubscription"), subscriber.Identity{}, false},
		{ldap.Present("msisdn"), subscriber.Identity{}, false},
	}
	for _, c := range cases {
		got, ok := identityFromFilter(c.filter)
		if ok != c.ok || got != c.want {
			t.Errorf("identityFromFilter(%s) = %v,%v want %v,%v", c.filter, got, ok, c.want, c.ok)
		}
	}
}

func TestProjectAttrs(t *testing.T) {
	entry := store.Entry{"a": {"1"}, "b": {"2", "3"}, "c": {"4"}}

	all := projectAttrs(entry, nil, false)
	if len(all) != 3 {
		t.Fatalf("all = %v", all)
	}
	sel := projectAttrs(entry, []string{"b"}, false)
	if len(sel) != 1 || len(sel["b"]) != 2 {
		t.Fatalf("selected = %v", sel)
	}
	star := projectAttrs(entry, []string{"*"}, false)
	if len(star) != 3 {
		t.Fatalf("star = %v", star)
	}
	typesOnly := projectAttrs(entry, nil, true)
	if len(typesOnly) != 3 || typesOnly["a"] != nil {
		t.Fatalf("typesOnly = %v", typesOnly)
	}
	// The projection must be a copy.
	sel["b"][0] = "mutated"
	if entry["b"][0] != "2" {
		t.Fatal("projection leaked the entry")
	}
}

func TestResultFromErr(t *testing.T) {
	cases := []struct {
		err  error
		want ldap.ResultCode
	}{
		{ErrUnknownSubscriber, ldap.ResultNoSuchObject},
		{ErrMasterUnreachable, ldap.ResultUnavailable},
		{ErrNoReplica, ldap.ResultUnavailable},
		{simnet.ErrUnreachable, ldap.ResultUnavailable},
		{store.ErrStoreFull, ldap.ResultUnwillingToPerform},
	}
	for _, c := range cases {
		if got := resultFromErr(c.err); got.Code != c.want {
			t.Errorf("resultFromErr(%v) = %v, want %v", c.err, got.Code, c.want)
		}
	}
}

func TestLDAPBackendBind(t *testing.T) {
	b := NewLDAPBackend(nil)
	if r := b.Bind("cn=x", "pw"); r.Code != ldap.ResultSuccess {
		t.Fatalf("bind = %v", r)
	}
	if r := b.Bind("", ""); r.Code != ldap.ResultSuccess {
		t.Fatalf("anonymous bind = %v", r)
	}
	if r := b.Bind("", "pw"); r.Code != ldap.ResultInvalidCredentials {
		t.Fatalf("password without DN = %v", r)
	}
}

func TestLDAPBackendSearchBadFilter(t *testing.T) {
	net, u, _ := testUDR(t, 1)
	_ = net
	site := u.Sites()[0]
	b := NewLDAPBackend(NewSession(u.Net(), simnet.MakeAddr(site, "b"), site, PolicyFE))
	_, res := b.Search(&ldap.SearchRequest{
		BaseDN: subscriber.BaseDN,
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Present("objectClass"), // no identity
	})
	if res.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("res = %v", res)
	}
	_, res = b.Search(&ldap.SearchRequest{
		BaseDN: "cn=not-a-subscriber-dn",
		Scope:  ldap.ScopeBaseObject,
		Filter: ldap.Present("objectClass"),
	})
	if res.Code != ldap.ResultNoSuchObject {
		t.Fatalf("bad DN res = %v", res)
	}
}

func TestLDAPBackendWriteGroupsOneTxn(t *testing.T) {
	// Multiple changes to one subscription inside an LDAP
	// transaction must land as ONE storage-element commit.
	net, u, profiles := testUDR(t, 1)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	p := profiles[0]
	site := u.Sites()[0]
	b := NewLDAPBackend(NewSession(net, simnet.MakeAddr(site, "b"), site, PolicyPS))

	// Find the master store to watch its CSN.
	placement, err := u.Stage(site).Lookup(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal})
	if err != nil {
		t.Fatal(err)
	}
	part, _ := u.Partition(placement.Partition)
	masterStore := u.Element(part.Master().Element).Replica(placement.Partition).Store
	before := masterStore.CSN()

	res := b.Write([]ldap.WriteOp{
		{Kind: ldap.WriteModify, DN: subscriber.DN(p.ID), Changes: []ldap.Change{
			{Op: ldap.ChangeReplace, Attr: subscriber.AttrBarPremium, Vals: []string{"TRUE"}},
		}},
		{Kind: ldap.WriteModify, DN: subscriber.DN(p.ID), Changes: []ldap.Change{
			{Op: ldap.ChangeReplace, Attr: subscriber.AttrSMSEnabled, Vals: []string{"FALSE"}},
		}},
	})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("write = %v", res)
	}
	if got := masterStore.CSN(); got != before+1 {
		t.Fatalf("CSN advanced by %d, want 1 (atomic grouping)", got-before)
	}
	e, _, _ := masterStore.GetCommitted(p.ID)
	if e.First(subscriber.AttrBarPremium) != "TRUE" || e.First(subscriber.AttrSMSEnabled) != "FALSE" {
		t.Fatalf("entry = %v", e)
	}
}

// TestLDAPBackendWriteClonesRequestStrings: rows written from decoded
// requests share no memory with them. A decoded request's strings are
// cut from one copy of the whole message, which a row must not pin.
func TestLDAPBackendWriteClonesRequestStrings(t *testing.T) {
	net, u, profiles := testUDR(t, 1)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	site := u.Sites()[0]
	b := NewLDAPBackend(NewSession(net, simnet.MakeAddr(site, "b"), site, PolicyPS))
	// decode round-trips op through the wire and returns it with the
	// address range of the message copy its strings are cut from.
	decode := func(op any, dn string) (any, uintptr, uintptr) {
		buf, err := (&ldap.Message{ID: 1, Op: op}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := ldap.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		switch o := msg.Op.(type) {
		case *ldap.ModifyRequest:
			got = o.DN
		case *ldap.AddRequest:
			got = o.DN
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(got))) - uintptr(bytes.Index(buf, []byte(dn)))
		return msg.Op, lo, lo + uintptr(len(buf))
	}
	checkRow := func(id string, lo, hi uintptr) {
		t.Helper()
		inMsg := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= lo && p < hi
		}
		placement, err := u.Stage(site).Lookup(ctx, subscriber.Identity{Type: subscriber.UID, Value: id})
		if err != nil {
			t.Fatal(err)
		}
		part, _ := u.Partition(placement.Partition)
		st := u.Element(part.Master().Element).Replica(placement.Partition).Store
		found := false
		st.ForEach(func(key string, e store.Entry, _ store.Meta) bool {
			if key != id {
				return true
			}
			found = true
			if inMsg(key) {
				t.Errorf("row key %q shares the request's memory", key)
			}
			for a, vs := range e {
				if inMsg(a) {
					t.Errorf("attribute name %q shares the request's memory", a)
				}
				for _, v := range vs {
					if inMsg(v) {
						t.Errorf("%s value %q shares the request's memory", a, v)
					}
				}
			}
			return false
		})
		if !found {
			t.Fatalf("row %s not found", id)
		}
	}

	p := profiles[0]
	dn := subscriber.DN(p.ID)
	op, lo, hi := decode(&ldap.ModifyRequest{DN: dn, Changes: []ldap.Change{
		{Op: ldap.ChangeReplace, Attr: "ldapNote", Vals: []string{"written over LDAP"}},
	}}, dn)
	mod := op.(*ldap.ModifyRequest)
	if res := b.Write([]ldap.WriteOp{{Kind: ldap.WriteModify, DN: mod.DN, Changes: mod.Changes}}); res.Code != ldap.ResultSuccess {
		t.Fatalf("modify = %v", res)
	}
	checkRow(p.ID, lo, hi)

	fresh := subscriber.NewGenerator(u.Sites()...).Profile(9)
	dn = subscriber.DN(fresh.ID)
	op, lo, hi = decode(&ldap.AddRequest{DN: dn, Attrs: fresh.ToEntry()}, dn)
	add := op.(*ldap.AddRequest)
	if res := b.Write([]ldap.WriteOp{{Kind: ldap.WriteAdd, DN: add.DN, Attrs: add.Attrs}}); res.Code != ldap.ResultSuccess {
		t.Fatalf("add = %v", res)
	}
	checkRow(fresh.ID, lo, hi)
}

func TestLDAPBackendCompareMissing(t *testing.T) {
	net, u, _ := testUDR(t, 1)
	site := u.Sites()[0]
	b := NewLDAPBackend(NewSession(net, simnet.MakeAddr(site, "b"), site, PolicyFE))
	r := b.Compare(subscriber.DN("sub-missing"), "active", "TRUE")
	if r.Code != ldap.ResultNoSuchObject {
		t.Fatalf("compare missing = %v", r)
	}
}

func TestOrderTargetsPolicies(t *testing.T) {
	_, u, _ := testUDR(t, 0)
	site := u.Sites()[0]
	ap := u.PoA(site)
	partID := ""
	for _, id := range u.Partitions() {
		p, _ := u.Partition(id)
		if p.HomeSite != site {
			partID = id // mastered remotely
			break
		}
	}
	part, _ := u.Partition(partID)

	// FE read-only: nearest (local) replica first.
	targets := ap.orderTargets(nil, part, &ExecReq{ReadOnly: true, Policy: PolicyFE}, false)
	if len(targets) != 3 || targets[0].Site != site {
		t.Fatalf("FE read targets = %+v", targets)
	}
	// FE write: master only.
	targets = ap.orderTargets(nil, part, &ExecReq{ReadOnly: false, Policy: PolicyFE}, false)
	if len(targets) != 1 || targets[0] != part.Master() {
		t.Fatalf("FE write targets = %+v", targets)
	}
	// PS read: master only.
	targets = ap.orderTargets(nil, part, &ExecReq{ReadOnly: true, Policy: PolicyPS}, false)
	if len(targets) != 1 || targets[0] != part.Master() {
		t.Fatalf("PS read targets = %+v", targets)
	}
}

func TestPoALDAPCapacityTokens(t *testing.T) {
	// With one modelled LDAP server and a long service time, two
	// concurrent ops serialize.
	net := simnet.New(simnet.FastConfig())
	cfg := Config{
		Sites:             []SiteSpec{{Name: "solo", SEs: 1, PartitionsPerSE: 1, LDAPServers: 1}},
		ReplicationFactor: 1,
		LDAPServiceTime:   20 * 1000 * 1000, // 20ms
	}
	u, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	p := subscriber.NewGenerator("solo").Profile(0)
	if err := u.SeedDirect(p); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	sess := NewSession(net, simnet.MakeAddr("solo", "fe"), "solo", PolicyFE)

	read := func() error {
		_, err := sess.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}},
		})
		return err
	}
	// First op holds the single token for ~20ms; the second must
	// wait for it.
	errs := make(chan error, 2)
	start := time.Now()
	go func() { errs <- read() }()
	go func() { errs <- read() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("two ops with one server finished in %v; token model not limiting", elapsed)
	}
}

// TestLDAPBackendSearchAllocs bounds what the LDAP backend adds to the
// session read it wraps: a subtree search by MSISDN costs at most six
// allocations more than the same read made on the session directly.
func TestLDAPBackendSearchAllocs(t *testing.T) {
	const site = "eu-south"
	_, sess, profiles := cachedUDR(t, 64, 0, site)
	backend := NewLDAPBackend(sess)
	ctx := context.Background()
	i := 0
	read := func() {
		p := profiles[i%len(profiles)]
		i++
		resp, err := sess.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil || !resp.Results[0].Found {
			t.Fatalf("read %s: %v", p.ID, err)
		}
	}
	reqs := make([]*ldap.SearchRequest, len(profiles))
	for j, p := range profiles {
		reqs[j] = &ldap.SearchRequest{BaseDN: subscriber.BaseDN, Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.Eq(subscriber.AttrMSISDN, p.MSISDNVal)}
	}
	search := func() {
		j := i % len(profiles)
		i++
		entries, res := backend.Search(reqs[j])
		if res.Code != ldap.ResultSuccess || len(entries) != 1 || entries[0].Attrs[subscriber.AttrID][0] != profiles[j].ID {
			t.Fatalf("search %s: %v %v", profiles[j].ID, res, entries)
		}
	}
	for range profiles {
		read() // fill the cache and the lazily built indexes
	}
	sessAllocs := testing.AllocsPerRun(4*len(profiles), read)
	backendAllocs := testing.AllocsPerRun(4*len(profiles), search)
	t.Logf("session read %.0f allocs, LDAP backend search %.0f", sessAllocs, backendAllocs)
	if backendAllocs > sessAllocs+6 {
		t.Errorf("LDAP backend search = %.0f allocs, want ≤ session read %.0f + 6", backendAllocs, sessAllocs)
	}
}
