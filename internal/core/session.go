package core

import (
	"context"
	"fmt"

	"repro/internal/fecache"
	"repro/internal/locator"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

// Session is a client-side handle to the UDR through one point of
// access, carrying the client's policy class. Application front-ends
// hold PolicyFE sessions against the PoA closest to them (§3.3.2
// decision 1); the provisioning system holds a PolicyPS session
// co-located with a PoA (§3.3.3 decision 1).
//
// A Session is safe for concurrent use.
type Session struct {
	net    *simnet.Network
	from   simnet.Addr
	poa    simnet.Addr
	policy Policy
	// cache, when attached, serves cacheable single-Get FE reads
	// in-process — the co-located FE skips even the client→PoA hop on
	// a hit, which is where the hot-key read multiplier comes from.
	cache *fecache.Cache
	// tracer, when attached, records a session.exec span per Exec —
	// as a child when the caller's context already carries a trace
	// (an FE procedure root), else as a new root.
	tracer *trace.Recorder
}

// NewSession creates a session from a client address to the PoA of
// the given site.
func NewSession(net *simnet.Network, from simnet.Addr, poaSite string, policy Policy) *Session {
	return &Session{
		net:    net,
		from:   from,
		poa:    simnet.MakeAddr(poaSite, "poa"),
		policy: policy,
	}
}

// AttachCache wires the PoA's FE read cache into the session for the
// in-process fast path. Only meaningful for front-ends co-located
// with their PoA (the paper's deployment); attach before issuing
// traffic — the field is not synchronized against in-flight calls.
func (s *Session) AttachCache(c *fecache.Cache) { s.cache = c }

// AttachTracer wires the span recorder. Attach before issuing
// traffic, like AttachCache.
func (s *Session) AttachTracer(tr *trace.Recorder) { s.tracer = tr }

// Policy returns the session's client class.
func (s *Session) Policy() Policy { return s.policy }

// PoASite returns the site of the PoA this session uses.
func (s *Session) PoASite() string { return s.poa.Site() }

// Exec runs a one-shot transaction. Target the subscription either
// with id (identity resolution at the PoA) or subID+partition from a
// previous response.
func (s *Session) Exec(ctx context.Context, req ExecReq) (*ExecResp, error) {
	if s.tracer == nil {
		return s.exec(ctx, req)
	}
	var span trace.SpanHandle
	if parent := trace.FromContext(ctx); parent.Valid() {
		span = s.tracer.StartChild(parent, "session.exec", string(s.from))
	} else {
		span = s.tracer.StartRoot("session.exec", string(s.from))
	}
	req.Trace = span.Ctx()
	resp, err := s.exec(ctx, req)
	span.End(err)
	return resp, err
}

func (s *Session) exec(ctx context.Context, req ExecReq) (*ExecResp, error) {
	req.Policy = s.policy
	req.ReadOnly = true
	for _, op := range req.Ops {
		if op.Kind != se.TxnGet && op.Kind != se.TxnCompare {
			req.ReadOnly = false
			break
		}
	}
	if s.cache != nil && s.policy == PolicyFE && req.ReadOnly &&
		len(req.Ops) == 1 && req.Ops[0].Kind == se.TxnGet {
		if key, ok := cacheLookupKey(s.cache, &req); ok {
			v, st := s.cacheProbe(req.Trace, key)
			if st == fecache.Hit {
				resp := new(ExecResp)
				resp.setCached(s.poa, key, v)
				return resp, nil
			}
			// Missed (or guarded) here; tell the PoA not to probe and
			// double-count — it still re-checks the guard state.
			req.cacheChecked = true
		}
	}
	c := execCalls.Get().(*ExecCall)
	defer releaseExecCall(c)
	c.Req = req
	raw, err := s.net.Call(ctx, s.from, s.poa, c)
	if err != nil {
		return nil, err
	}
	if raw != any(c) {
		return nil, fmt.Errorf("core: unexpected PoA response %T", raw)
	}
	// The caller keeps the response; the envelope goes back to the pool.
	resp := new(ExecResp)
	*resp = c.Resp
	resp.setResults(c.Resp.Results)
	return resp, nil
}

// cacheProbe is the session-side fast-path probe plus an optional
// cache.probe span for sampled traces.
func (s *Session) cacheProbe(tc trace.Ctx, key string) (fecache.Value, fecache.LookupState) {
	if s.tracer != nil && tc.Sampled {
		span := s.tracer.StartChild(tc, "cache.probe", string(s.from))
		v, st := s.cache.Lookup(key)
		span.SetAttr("status", st.String())
		span.End(nil)
		return v, st
	}
	return s.cache.Lookup(key)
}

// ReadProfile fetches and decodes a subscriber profile by identity.
// It also returns the row metadata (CSN) so callers can measure
// staleness, and the role of the serving replica.
func (s *Session) ReadProfile(ctx context.Context, id subscriber.Identity) (*subscriber.Profile, store.Meta, store.Role, error) {
	resp, err := s.Exec(ctx, ExecReq{
		Identity: id,
		Ops:      []se.TxnOp{{Kind: se.TxnGet}},
	})
	if err != nil {
		return nil, store.Meta{}, 0, err
	}
	if !resp.Results[0].Found {
		return nil, store.Meta{}, resp.Role, fmt.Errorf("%w: %s", ErrUnknownSubscriber, id)
	}
	p, err := subscriber.FromEntry(resp.Results[0].Entry)
	if err != nil {
		return nil, store.Meta{}, resp.Role, err
	}
	return p, resp.Results[0].Meta, resp.Role, nil
}

// Modify applies attribute modifications to a subscription located by
// identity, as one transaction.
func (s *Session) Modify(ctx context.Context, id subscriber.Identity, mods ...store.Mod) (*ExecResp, error) {
	return s.Exec(ctx, ExecReq{
		Identity: id,
		Ops:      []se.TxnOp{{Kind: se.TxnModify, Mods: mods}},
	})
}

// Provision creates a subscription (PS sessions).
func (s *Session) Provision(ctx context.Context, p *subscriber.Profile) (*ProvisionResp, error) {
	raw, err := s.net.Call(ctx, s.from, s.poa, ProvisionReq{Profile: p})
	if err != nil {
		return nil, err
	}
	resp, ok := raw.(ProvisionResp)
	if !ok {
		return nil, fmt.Errorf("core: unexpected PoA response %T", raw)
	}
	return &resp, nil
}

// ProvisionAt creates a subscription on a pinned partition
// (selective placement, §3.5).
func (s *Session) ProvisionAt(ctx context.Context, p *subscriber.Profile, partition string) (*ProvisionResp, error) {
	raw, err := s.net.Call(ctx, s.from, s.poa, ProvisionReq{Profile: p, PartitionHint: partition})
	if err != nil {
		return nil, err
	}
	resp, ok := raw.(ProvisionResp)
	if !ok {
		return nil, fmt.Errorf("core: unexpected PoA response %T", raw)
	}
	return &resp, nil
}

// Deprovision removes a subscription.
func (s *Session) Deprovision(ctx context.Context, subscriberID string) (*DeprovisionResp, error) {
	raw, err := s.net.Call(ctx, s.from, s.poa, DeprovisionReq{SubscriberID: subscriberID})
	if err != nil {
		return nil, err
	}
	resp, ok := raw.(DeprovisionResp)
	if !ok {
		return nil, fmt.Errorf("core: unexpected PoA response %T", raw)
	}
	return &resp, nil
}

// Locate resolves an identity to its placement without reading data.
func (s *Session) Locate(ctx context.Context, id subscriber.Identity) (locator.Placement, error) {
	raw, err := s.net.Call(ctx, s.from, s.poa, LocateReq{Identity: id})
	if err != nil {
		return locator.Placement{}, err
	}
	resp, ok := raw.(LocateResp)
	if !ok {
		return locator.Placement{}, fmt.Errorf("core: unexpected PoA response %T", raw)
	}
	return resp.Placement, nil
}
