package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fecache"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

// Messages between client sessions and a PoA.

// ExecReq executes a one-shot transaction against the subscription's
// partition. The target is either an identity (resolved through the
// PoA's local location stage, §3.3.1 decision 1) or a known
// subscriber ID + partition from a previous call.
type ExecReq struct {
	Identity     subscriber.Identity
	SubscriberID string
	Partition    string
	Ops          []se.TxnOp
	Policy       Policy
	ReadOnly     bool
	// Tag is an opaque operation label copied onto the storage-element
	// transaction, where the element's TxnObserver can see it (the
	// consistency harness's server-side attribution hook).
	Tag string
	// Trace is the caller's trace context; the PoA's poa.exec span and
	// everything below it (cache probe, locator lookup, the SE hop)
	// nest under it.
	Trace trace.Ctx
	// cacheChecked marks that a session-side probe of the PoA's FE
	// cache already missed for this request, so the PoA must not
	// probe (and double-count a miss) again.
	cacheChecked bool
}

// ExecResp reports the outcome.
type ExecResp struct {
	Results      []se.OpResult
	CSN          uint64
	ServedBy     simnet.Addr
	Role         store.Role
	Partition    string
	SubscriberID string
	// one backs Results for a single-op transaction, so a response
	// carries its result without an allocation of its own.
	one [1]se.OpResult
}

// setResults points r.Results at rs, copying a single result into r's
// own inline slot: a single result usually lives in the envelope of
// the hop that produced it, which its caller reuses. Longer lists are
// heap arrays the storage element allocated for this call alone.
func (r *ExecResp) setResults(rs []se.OpResult) {
	switch len(rs) {
	case 0:
		r.Results = nil
	case 1:
		r.one[0] = rs[0]
		r.Results = r.one[:1]
	default:
		r.Results = rs
	}
}

// setCached shapes a cache hit as a normal response carrying the
// Cached role, so clients and the consistency checkers can account
// for cache-served reads.
func (r *ExecResp) setCached(servedBy simnet.Addr, key string, v fecache.Value) {
	*r = ExecResp{
		CSN:          v.Meta.CSN,
		ServedBy:     servedBy,
		Role:         store.Cached,
		Partition:    v.Part,
		SubscriberID: key,
	}
	r.one[0] = se.OpResult{Entry: v.Entry, Meta: v.Meta, Found: v.Found}
	r.Results = r.one[:1]
}

// ExecCall is the envelope an ExecReq crosses the network to a PoA
// in: the caller fills Req and passes the pointer to simnet.Call, and
// the PoA fills Resp in place and returns the same pointer, so neither
// direction boxes a struct into an interface. The caller owns the
// envelope for the duration of the call — simnet runs the handler on
// the caller's goroutine, and it has returned when Call does — and
// may reuse it afterwards, so it must never travel through the
// asynchronous simnet.Send. A single result lives inside the
// envelope; a caller that hands the response on copies it out first
// (Session.Exec does). Ops, Mods, entries and multi-op Results arrays
// belong to the caller and the store, never to the envelope.
type ExecCall struct {
	Req  ExecReq
	Resp ExecResp
	// txn is the PoA's own hop to a storage element, borrowed for the
	// duration of the handler.
	txn se.TxnCall
}

// TraceCtx implements trace.Carrier.
func (c *ExecCall) TraceCtx() trace.Ctx { return c.Req.Trace }

// WithTraceCtx implements trace.Carrier in place: the network uses it
// to nest the PoA's spans under the per-hop net.call span.
func (c *ExecCall) WithTraceCtx(tc trace.Ctx) any { c.Req.Trace = tc; return c }

// execCalls recycles sessions' ExecCall envelopes.
var execCalls = sync.Pool{New: func() any { return new(ExecCall) }}

// releaseExecCall zeroes c, dropping every reference it holds to the
// caller's request and the store's rows, and returns it to the pool.
func releaseExecCall(c *ExecCall) {
	*c = ExecCall{}
	execCalls.Put(c)
}

// ProvisionReq creates a subscription (PS traffic). The placement
// follows the profile's home region unless PartitionHint pins it
// (selective placement, §3.5).
type ProvisionReq struct {
	Profile       *subscriber.Profile
	PartitionHint string
}

// ProvisionResp reports where the subscription landed.
type ProvisionResp struct {
	Partition string
	// LocatorUpdateFailures counts remote location stages that could
	// not be updated (partitioned away); they will miss lookups for
	// this subscription until repaired.
	LocatorUpdateFailures int
}

// DeprovisionReq removes a subscription.
type DeprovisionReq struct {
	SubscriberID string
}

// DeprovisionResp reports the outcome.
type DeprovisionResp struct {
	LocatorUpdateFailures int
}

// LocateReq resolves an identity without touching subscriber data.
type LocateReq struct {
	Identity subscriber.Identity
}

// LocateResp carries the placement.
type LocateResp struct {
	Placement locator.Placement
}

// AccessPoint is one site's PoA: the L4-balanced LDAP server farm of
// §3.4.1 reduced to its observable behaviour — an endpoint that
// resolves data location locally and forwards operations to storage
// elements, applying the per-policy routing rules.
type AccessPoint struct {
	u    *UDR
	site string
	addr simnet.Addr

	// tokens models finite LDAP processing capacity: one token per
	// LDAP server process; each op holds a token for serviceTime. Nil
	// when no capacity model is configured.
	tokens      atomic.Pointer[chan struct{}]
	serviceTime time.Duration

	// cache is the site's FE subscriber read cache (nil unless
	// Config.FECache); set before the PoA is registered, never after.
	cache *fecache.Cache
	// lbSeq rotates cacheable read-through misses across warm
	// co-located replicas when Config.FECacheSlaveLB is set.
	lbSeq atomic.Uint64

	// Served and Failed count operations by outcome; Stale is
	// incremented by sessions that detected a stale slave read
	// (E5's accounting hook).
	Served  metrics.Counter
	Failed  metrics.Counter
	Latency metrics.Histogram
}

func newAccessPoint(u *UDR, site string, ldapServers int) *AccessPoint {
	ap := &AccessPoint{
		u:           u,
		site:        site,
		addr:        simnet.MakeAddr(site, "poa"),
		serviceTime: u.cfg.LDAPServiceTime,
	}
	ap.SetLDAPServers(ldapServers)
	return ap
}

// Site returns the PoA's site.
func (ap *AccessPoint) Site() string { return ap.site }

// Cache returns the PoA's FE read cache (nil when disabled).
func (ap *AccessPoint) Cache() *fecache.Cache { return ap.cache }

// SetLDAPServers resizes the modelled LDAP server pool (scale-up,
// §3.4.1: the balancer detects new servers automatically).
func (ap *AccessPoint) SetLDAPServers(n int) {
	if n <= 0 || ap.serviceTime == 0 {
		ap.tokens.Store(nil)
		return
	}
	t := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		t <- struct{}{}
	}
	ap.tokens.Store(&t)
}

// noRelease is acquire's release when no capacity model is configured.
var noRelease = func() {}

// acquire blocks until an LDAP server slot is free, then simulates
// the per-op service time.
func (ap *AccessPoint) acquire(ctx context.Context) (release func(), err error) {
	p := ap.tokens.Load()
	if p == nil {
		return noRelease, nil
	}
	tokens := *p
	select {
	case <-tokens:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return func() {
		time.AfterFunc(ap.serviceTime, func() { tokens <- struct{}{} })
	}, nil
}

// handle is the PoA's simnet handler.
func (ap *AccessPoint) handle(ctx context.Context, from simnet.Addr, msg any) (any, error) {
	release, err := ap.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	start := time.Now()
	var resp any
	var traceID string
	switch m := msg.(type) {
	case *ExecCall:
		if m.Req.Trace.Sampled {
			traceID = m.Req.Trace.Trace.String()
		}
		if err = ap.exec(ctx, m); err == nil {
			resp = m
		}
	case ExecReq:
		// Value form, boxed both ways: kept only for benchmark/ladder.go's
		// per-layer rungs until they move to the envelope.
		c := &ExecCall{Req: m}
		if err = ap.exec(ctx, c); err == nil {
			resp = c.Resp
		}
	case ProvisionReq:
		resp, err = ap.provision(ctx, m)
	case DeprovisionReq:
		resp, err = ap.deprovision(ctx, m)
	case LocateReq:
		var p locator.Placement
		p, err = ap.locate(ctx, m.Identity)
		resp = LocateResp{Placement: p}
	default:
		err = fmt.Errorf("core: PoA got unexpected %T", msg)
	}
	if err != nil {
		ap.Failed.Inc()
		return nil, err
	}
	ap.Served.Inc()
	d := time.Since(start)
	ap.Latency.Record(d)
	if traceID != "" {
		// Exemplar: link this latency bucket to the concrete trace
		// that paid it, so a p99 spike on the scrape resolves to a
		// span tree.
		ap.Latency.SetExemplar(d, traceID)
	}
	return resp, nil
}

// locate resolves an identity through the site-local stage.
func (ap *AccessPoint) locate(ctx context.Context, id subscriber.Identity) (locator.Placement, error) {
	stage := ap.u.Stage(ap.site)
	if stage == nil {
		return locator.Placement{}, errors.New("core: no location stage at " + ap.site)
	}
	return stage.Lookup(ctx, id)
}

// exec routes a transaction per the paper's policy table:
//
//	read-only + FE  → nearest replica (slave reads allowed, §3.3.2),
//	                  fall back across replicas on failure (reads
//	                  survive partitions that strand the master);
//	read-only + PS  → master only (§3.3.3);
//	writes          → master only (§3.2); in multi-master mode (§5)
//	                  nearest replica.
//
// The outcome lands in c.Resp.
func (ap *AccessPoint) exec(ctx context.Context, c *ExecCall) error {
	if tr := ap.u.Tracer(); tr != nil && c.Req.Trace.Valid() {
		span := tr.StartChild(c.Req.Trace, "poa.exec", string(ap.addr))
		c.Req.Trace = span.Ctx()
		// In-process propagation: the locator stage reads the context
		// to hang its lookup span under poa.exec. Sampled only — the
		// locator records nothing otherwise, and context injection is
		// the one allocation on this path.
		if c.Req.Trace.Sampled {
			ctx = trace.NewContext(ctx, span.Ctx())
		}
		err := ap.execInner(ctx, c)
		span.End(err)
		return err
	}
	return ap.execInner(ctx, c)
}

func (ap *AccessPoint) execInner(ctx context.Context, c *ExecCall) error {
	req, resp := &c.Req, &c.Resp
	cacheable := ap.cacheableRead(req)
	if cacheable && !req.cacheChecked {
		if key, ok := cacheLookupKey(ap.cache, req); ok {
			v, st := ap.cacheProbe(req.Trace, key)
			if st == fecache.Hit {
				resp.setCached(ap.addr, key, v)
				return nil
			}
			req.cacheChecked = true
		}
	}
	partID := req.Partition
	subID := req.SubscriberID
	switch {
	case subID != "" && partID == "":
		// DN-addressed access: the subscription ID is itself an
		// index in the location maps.
		p, err := ap.locate(ctx, subscriber.Identity{Type: subscriber.UID, Value: subID})
		if err != nil {
			return err
		}
		partID = p.Partition
	case subID == "":
		p, err := ap.locate(ctx, req.Identity)
		if err != nil {
			return err
		}
		subID, partID = p.SubscriberID, p.Partition
	}
	// Rewrite op keys: clients address ops by subscriber; the keys
	// are already subscriber IDs, so nothing to translate — but we
	// validate emptiness here once.
	for i := range req.Ops {
		if req.Ops[i].Key == "" {
			req.Ops[i].Key = subID
		}
	}

	// An epoch-guarded key (resident entry whose floor predates the
	// current placement epoch) must read master-direct: CSNs are not
	// comparable across a master change, so neither a slave response
	// nor a re-fill can be validated against the old floor.
	guarded := false
	if cacheable && req.cacheChecked {
		guarded = ap.cache.Peek(subID) == fecache.Guarded
	} else if cacheable {
		// The identity had no cache alias before locate resolved it;
		// probe once more by primary key before going remote. A hit
		// teaches the cache the alias, so the next session-side probe
		// resolves it without reaching the PoA.
		v, st := ap.cacheProbe(req.Trace, subID)
		if st == fecache.Hit {
			ap.cache.Learn(subID, req.Identity)
			resp.setCached(ap.addr, subID, v)
			return nil
		}
		guarded = st == fecache.Guarded
	}

	// Placement-refresh loop: a request that races a migration
	// cutover or failover gets a stale-placement referral from the
	// demoted master (or a read-only refusal from a commit that
	// parked on the cutover freeze). Both mean "your placement is
	// stale, not unavailable": re-read the partition table — the
	// cutover flipped it atomically with the epoch — and retry.
	const maxPlacementRefresh = 4
	var lastErr error
	for attempt := 0; attempt < maxPlacementRefresh; attempt++ {
		part, ok := ap.u.Partition(partID)
		if !ok {
			// A placement pointing at a partition the table no longer
			// knows is stale forever: evict it so the next lookup
			// re-resolves instead of replaying the dead mapping.
			if stage := ap.u.Stage(ap.site); stage != nil {
				stage.InvalidatePartition(partID)
			}
			return fmt.Errorf("core: unknown partition %q", partID)
		}
		var buf [maxInlineTargets]ReplicaRef
		targets := ap.orderTargets(buf[:0], part, req, guarded)

		referred := false
		for _, ref := range targets {
			// Refilled per target: the network and the element rewrite
			// the trace context in place.
			txn := &c.txn
			txn.Req = se.TxnReq{Partition: partID, Iso: store.ReadCommitted,
				Ops: req.Ops, Tag: req.Tag, Epoch: part.Epoch,
				ReturnPostImage: ap.cache != nil && !req.ReadOnly,
				Trace:           req.Trace}
			raw, err := ap.u.net.Call(ctx, ap.addr, ref.Addr, txn)
			if err != nil {
				lastErr = err
				if errors.Is(err, se.ErrStalePlacement) || errors.Is(err, store.ErrReadOnly) {
					referred = true
					break
				}
				continue
			}
			if raw != any(txn) {
				return fmt.Errorf("core: unexpected SE response %T", raw)
			}
			tresp := &txn.Resp
			fromMaster := tresp.Role == store.Master
			if cacheable && !guarded && len(tresp.Results) == 1 {
				r0 := tresp.Results[0]
				if !fromMaster {
					if fl := ap.cache.Floor(subID); fl > 0 && (!r0.Found || r0.Meta.CSN < fl) {
						// The slave is behind what this PoA already
						// served or committed for the key; try the
						// next replica rather than regress.
						ap.cache.RecordStaleReject()
						lastErr = errStaleRead
						continue
					}
				}
				ap.cache.Fill(partID, part.Epoch, ref.Element, fromMaster,
					subID, req.Identity, r0.Entry, r0.Meta, r0.Found)
			}
			if ap.cache != nil && !req.ReadOnly {
				ap.writeThrough(partID, part.Epoch, subID, req.Identity, req.Ops, tresp)
			}
			*resp = ExecResp{
				CSN:          tresp.CSN,
				ServedBy:     ref.Addr,
				Role:         tresp.Role,
				Partition:    partID,
				SubscriberID: subID,
			}
			resp.setResults(tresp.Results)
			return nil
		}
		if referred {
			// Let the in-flight cutover settle before re-reading the
			// table; the freeze window is bounded.
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if len(targets) == 1 {
			return fmt.Errorf("%w: %v", ErrMasterUnreachable, lastErr)
		}
		return fmt.Errorf("%w: %v", ErrNoReplica, lastErr)
	}
	return fmt.Errorf("%w: %v", ErrMasterUnreachable, lastErr)
}

// maxInlineTargets sizes the stack buffer exec orders a request's
// targets into; a partition with more replicas spills to the heap.
const maxInlineTargets = 8

// orderTargets appends to buf the replicas to try, in order.
func (ap *AccessPoint) orderTargets(buf []ReplicaRef, part Partition, req *ExecReq, guarded bool) []ReplicaRef {
	master := part.Replicas[0]
	switch {
	case ap.u.cfg.MultiMaster && !req.ReadOnly:
		// Multi-master: prefer the co-located replica for writes,
		// then the rest (availability over consistency, §5).
		return ap.nearestFirst(buf, part.Replicas)
	case guarded:
		// Cross-epoch guard: master only, no fallbacks — a stale
		// slave could silently regress below the old-lineage floor.
		return append(buf, master)
	case req.ReadOnly && req.Policy == PolicyFE:
		if ap.cacheableRead(req) {
			return ap.cacheTargets(buf, part)
		}
		// Nearest replica first (a co-located slave turns a
		// backbone round trip into a LAN one, §3.3.2), then the
		// remaining replicas as fallbacks.
		return ap.nearestFirst(buf, part.Replicas)
	}
	// Master only: writes (§3.2) and every PS operation (§3.3.3).
	return append(buf, master)
}

// cacheTargets orders replicas for a cacheable read miss: co-located
// replicas that are safe fill sources — the master, or slaves the
// cache has observed applying the current lineage ("warm") — rotated
// when FECacheSlaveLB spreads hot-key misses; master-first when no
// local replica is safe (cold cache after an epoch bump); then the
// remaining replicas as reachability fallbacks, whose responses the
// caller still validates against the key's staleness floor.
func (ap *AccessPoint) cacheTargets(out []ReplicaRef, part Partition) []ReplicaRef {
	master := part.Replicas[0]
	for _, r := range part.Replicas {
		if r.Site == ap.site &&
			(r.Element == master.Element || ap.cache.Warm(part.ID, r.Element)) {
			out = append(out, r)
		}
	}
	if n := len(out); n == 0 {
		out = append(out, master)
	} else if n > 1 && ap.u.cfg.FECacheSlaveLB {
		for off := int(ap.lbSeq.Add(1) % uint64(n)); off > 0; off-- {
			first := out[0]
			copy(out, out[1:])
			out[n-1] = first
		}
	}
	return ap.nearestFirst(out, part.Replicas)
}

// cacheProbe is Lookup plus an optional cache.probe span when the
// request carries a sampled trace context.
func (ap *AccessPoint) cacheProbe(tc trace.Ctx, key string) (fecache.Value, fecache.LookupState) {
	if tc.Sampled {
		if tr := ap.u.Tracer(); tr != nil {
			span := tr.StartChild(tc, "cache.probe", string(ap.addr))
			v, st := ap.cache.Lookup(key)
			span.SetAttr("status", st.String())
			span.End(nil)
			return v, st
		}
	}
	return ap.cache.Lookup(key)
}

// errStaleRead marks a slave response rejected for being below the
// PoA's staleness floor for the key.
var errStaleRead = errors.New("core: slave response below the PoA staleness floor")

// cacheableRead reports whether the FE cache can serve or fill this
// request: a single-Get front-end read. PS reads stay master-only by
// policy, and multi-op transactions are not worth caching.
func (ap *AccessPoint) cacheableRead(req *ExecReq) bool {
	return ap.cache != nil && req.ReadOnly && req.Policy == PolicyFE &&
		len(req.Ops) == 1 && req.Ops[0].Kind == se.TxnGet
}

// writeThrough pushes this PoA's committed post-images into the cache
// so the next read of the written subscriber — any local client's —
// is served fresh without a round trip.
func (ap *AccessPoint) writeThrough(part string, epoch uint64, subID string,
	via subscriber.Identity, ops []se.TxnOp, resp *se.TxnResp) {
	for i, op := range ops {
		if i >= len(resp.Results) {
			return
		}
		switch op.Kind {
		case se.TxnPut, se.TxnModify, se.TxnDelete:
			res := resp.Results[i]
			if res.Meta.CSN == 0 {
				continue // element did not return the post-image
			}
			// Only the row the request's identity resolved to can have
			// been addressed through it.
			opVia := via
			if op.Key != subID {
				opVia = subscriber.Identity{}
			}
			ap.cache.WriteThrough(part, epoch, op.Key, opVia, res.Entry, res.Meta, res.Meta.Tombstone)
		}
	}
}

// cacheLookupKey resolves the primary key a cacheable read addresses:
// directly via SubscriberID or the op key, or through the cache's
// secondary-identity aliases.
func cacheLookupKey(c *fecache.Cache, req *ExecReq) (string, bool) {
	if req.SubscriberID != "" {
		return req.SubscriberID, true
	}
	if len(req.Ops) == 1 && req.Ops[0].Key != "" {
		return req.Ops[0].Key, true
	}
	id := req.Identity
	if id.Value == "" {
		return "", false
	}
	if id.Type == subscriber.UID {
		return id.Value, true
	}
	return c.ResolveIdentity(id.Type.Attr(), id.Value)
}

// nearestFirst appends the replicas not already in out: co-located
// with this PoA first, then the rest in table order (master first).
func (ap *AccessPoint) nearestFirst(out, replicas []ReplicaRef) []ReplicaRef {
	for _, local := range [2]bool{true, false} {
	next:
		for _, r := range replicas {
			if (r.Site == ap.site) != local {
				continue
			}
			for _, have := range out {
				if have.Element == r.Element {
					continue next
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// provision creates the subscription row on the chosen partition's
// master and updates the identity-location maps (§2.4: in a UDC
// network the PS writes one single place, transactionally).
func (ap *AccessPoint) provision(ctx context.Context, req ProvisionReq) (ProvisionResp, error) {
	p := req.Profile
	partID := req.PartitionHint
	if partID == "" {
		var err error
		partID, err = ap.u.choosePartition(p.HomeRegion)
		if err != nil {
			return ProvisionResp{}, err
		}
	}
	part, ok := ap.u.Partition(partID)
	if !ok {
		return ProvisionResp{}, fmt.Errorf("core: unknown partition %q", partID)
	}

	txn := &se.TxnCall{Req: se.TxnReq{
		Partition: partID,
		Iso:       store.ReadCommitted,
		Ops:       []se.TxnOp{{Kind: se.TxnPut, Key: p.ID, Entry: p.ToEntry()}},
	}}
	target := part.Master()
	if ap.u.cfg.MultiMaster {
		target = ap.nearestFirst(nil, part.Replicas)[0]
	}
	if _, err := ap.u.net.Call(ctx, ap.addr, target.Addr, txn); err != nil {
		return ProvisionResp{}, fmt.Errorf("%w: %v", ErrMasterUnreachable, err)
	}

	failures := ap.updateLocators(ctx, p.Identities(),
		locator.Placement{SubscriberID: p.ID, Partition: partID}, false)
	return ProvisionResp{Partition: partID, LocatorUpdateFailures: failures}, nil
}

// deprovision deletes the subscription row and its map entries.
func (ap *AccessPoint) deprovision(ctx context.Context, req DeprovisionReq) (DeprovisionResp, error) {
	// Read the profile first (master copy: this is PS traffic) so we
	// know every identity to unmap.
	read := &ExecCall{Req: ExecReq{
		SubscriberID: req.SubscriberID,
		Ops:          []se.TxnOp{{Kind: se.TxnGet, Key: req.SubscriberID}},
		Policy:       PolicyPS,
		ReadOnly:     true,
	}}
	if err := ap.exec(ctx, read); err != nil {
		return DeprovisionResp{}, err
	}
	if !read.Resp.Results[0].Found {
		return DeprovisionResp{}, fmt.Errorf("%w: %s", ErrUnknownSubscriber, req.SubscriberID)
	}
	prof, err := subscriber.FromEntry(read.Resp.Results[0].Entry)
	if err != nil {
		return DeprovisionResp{}, err
	}
	if err := ap.exec(ctx, &ExecCall{Req: ExecReq{
		SubscriberID: req.SubscriberID,
		Partition:    read.Resp.Partition,
		Ops:          []se.TxnOp{{Kind: se.TxnDelete, Key: req.SubscriberID}},
		Policy:       PolicyPS,
	}}); err != nil {
		return DeprovisionResp{}, err
	}
	failures := ap.updateLocators(ctx, prof.Identities(), locator.Placement{}, true)
	return DeprovisionResp{LocatorUpdateFailures: failures}, nil
}

// updateLocators updates every site's identity-location maps. The
// local stage updates in-process; remote stages are updated over the
// backbone and may fail during partitions (counted, not fatal:
// §3.4.2's availability consequence of state-full maps).
func (ap *AccessPoint) updateLocators(ctx context.Context, ids []subscriber.Identity, placement locator.Placement, remove bool) (failures int) {
	if ap.u.cfg.LocatorMode != locator.Provisioned {
		// Cached stages learn on the fly; prime only the local one.
		if stage := ap.u.Stage(ap.site); stage != nil {
			if remove {
				stage.RemoveProfile(ids)
			} else {
				stage.PutProfile(ids, placement)
			}
		}
		return 0
	}
	for _, site := range ap.u.Sites() {
		stage := ap.u.Stage(site)
		if stage == nil {
			continue
		}
		if site == ap.site {
			if remove {
				stage.RemoveProfile(ids)
			} else {
				stage.PutProfile(ids, placement)
			}
			continue
		}
		// Remote map update rides the backbone: model it as one
		// network call to the remote locator endpoint. A dedicated
		// message type keeps the stage handler small.
		msg := locatorUpdate{IDs: ids, Placement: placement, Remove: remove}
		if _, err := ap.u.net.Call(ctx, ap.addr, simnet.MakeAddr(site, "locator"), msg); err != nil {
			failures++
		}
	}
	return failures
}

// locatorUpdate is the provisioning-driven map update message.
type locatorUpdate struct {
	IDs       []subscriber.Identity
	Placement locator.Placement
	Remove    bool
}

// locatorUpdateAck acknowledges a locatorUpdate.
type locatorUpdateAck struct{}
