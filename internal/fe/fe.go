// Package fe implements the stateless application front-ends of the
// UDC architecture (§1, §2.2): the HLR-FE and HSS-FE processes that
// execute network procedures by reading and writing subscriber data
// in the UDR. Each front-end holds a PolicyFE session to its nearest
// PoA, so slave reads are allowed (§3.3.2) and the procedures below
// observe the PA/EL behaviour of Figure 6's blue trade-off points.
//
// Per §3.5 footnote 8, typical mobile procedures cause 1–3 LDAP
// operations and IMS procedures 5–6; each session Exec below is one
// LDAP operation, and experiment E15 verifies the counts.
package fe

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

// Business outcomes (distinct from availability failures: the UDR
// answered, the answer was "no").
var (
	// ErrBarred reports a call blocked by a barring flag.
	ErrBarred = errors.New("fe: call barred")
	// ErrInactive reports a procedure against an inactive
	// subscription.
	ErrInactive = errors.New("fe: subscription not active")
	// ErrNotIMS reports IMS registration by a non-IMS subscription.
	ErrNotIMS = errors.New("fe: subscription has no IMS service")
	// ErrShConflict reports that an ShUpdate's base version no longer
	// matched when the write executed: a concurrent update won the
	// race and the application should re-read and retry (the Sh
	// interface's ETag model).
	ErrShConflict = errors.New("fe: sh repository data version conflict")
)

// Kind distinguishes HLR and HSS front-ends.
type Kind int

const (
	// HLR serves circuit/packet-switched mobile procedures.
	HLR Kind = iota
	// HSS additionally serves IMS procedures.
	HSS
)

// String returns the front-end kind name.
func (k Kind) String() string {
	if k == HSS {
		return "HSS-FE"
	}
	return "HLR-FE"
}

// ProcStats aggregates per-procedure measurements for E15.
type ProcStats struct {
	Invocations metrics.Counter
	Ops         metrics.Counter // LDAP operations issued
	Failures    metrics.Counter // availability failures (not business denials)
	Latency     metrics.Histogram
}

// OpsPerInvocation returns the measured LDAP-operation cost of the
// procedure (E15's reproduced figure).
func (ps *ProcStats) OpsPerInvocation() float64 {
	n := ps.Invocations.Value()
	if n == 0 {
		return 0
	}
	return float64(ps.Ops.Value()) / float64(n)
}

// ProcObserver observes every front-end procedure invocation: the
// procedure name, its wall-clock window and its outcome (nil,
// a business denial, or an availability failure). It is called
// synchronously after the procedure body returns, so a recorder sees
// invocation/response windows without racing the front-end.
type ProcObserver func(proc string, start time.Time, elapsed time.Duration, err error)

// FE is one application front-end instance.
type FE struct {
	kind    Kind
	site    string
	session *core.Session
	obs     atomic.Pointer[ProcObserver]
	tracer  *trace.Recorder

	// Stats per procedure name.
	LocationUpdateStats ProcStats
	AuthenticateStats   ProcStats
	MOCallStats         ProcStats
	MTCallStats         ProcStats
	SMSStats            ProcStats
	IMSRegisterStats    ProcStats
	ShUpdateStats       ProcStats

	// StaleReads counts reads that were detectably stale (served by
	// a slave with a lower CSN than the caller's known write).
	StaleReads metrics.Counter
}

// New creates a front-end at site, talking to that site's PoA (there
// is always a PoA close to any front-end, §3.3.2 decision 1).
func New(net *simnet.Network, kind Kind, site, name string) *FE {
	return &FE{
		kind:    kind,
		site:    site,
		session: core.NewSession(net, simnet.MakeAddr(site, name), site, core.PolicyFE),
	}
}

// NewWithSession creates a front-end over an existing session (tests
// point it at remote PoAs).
func NewWithSession(kind Kind, site string, session *core.Session) *FE {
	return &FE{kind: kind, site: site, session: session}
}

// Kind returns the front-end kind.
func (f *FE) Kind() Kind { return f.kind }

// Site returns the front-end's site.
func (f *FE) Site() string { return f.site }

// Session exposes the underlying session.
func (f *FE) Session() *core.Session { return f.session }

// AttachTracer wires the span recorder: every procedure invocation
// becomes a trace root ("fe.<proc>") and the session, PoA and SE hops
// underneath stitch into it. Also attaches the recorder to the
// underlying session. Attach before issuing traffic, like
// Session.AttachCache — the field is not synchronized against
// in-flight calls.
func (f *FE) AttachTracer(tr *trace.Recorder) {
	f.tracer = tr
	f.session.AttachTracer(tr)
}

// SetProcObserver installs (or, with nil, removes) the front-end's
// procedure observer.
func (f *FE) SetProcObserver(fn ProcObserver) {
	if fn == nil {
		f.obs.Store(nil)
		return
	}
	f.obs.Store(&fn)
}

// observe wraps a procedure body with stats accounting and, when a
// tracer is attached, a "fe.<proc>" root span whose context the body
// receives via ctx — every session Exec underneath then nests into
// one stitched trace.
func (f *FE) observe(ctx context.Context, proc string, ps *ProcStats, ops int64, fn func(context.Context) error) error {
	start := time.Now()
	ps.Invocations.Inc()
	var span trace.SpanHandle
	if f.tracer != nil {
		span = f.tracer.StartRoot("fe."+proc, f.site+"/"+f.kind.String())
		ctx = trace.NewContext(ctx, span.Ctx())
	}
	err := fn(ctx)
	elapsed := time.Since(start)
	ps.Ops.Add(ops)
	ps.Latency.Record(elapsed)
	if tc := span.Ctx(); tc.Sampled {
		ps.Latency.SetExemplar(elapsed, tc.Trace.String())
	}
	span.EndWithDuration(elapsed, err)
	if err != nil && !isBusinessOutcome(err) {
		ps.Failures.Inc()
	}
	if p := f.obs.Load(); p != nil {
		(*p)(proc, start, elapsed, err)
	}
	return err
}

func isBusinessOutcome(err error) bool {
	return errors.Is(err, ErrBarred) || errors.Is(err, ErrInactive) ||
		errors.Is(err, ErrNotIMS) || errors.Is(err, ErrShConflict)
}

// LocationUpdate runs the location-management procedure: validate the
// subscription, then record the new serving node and area.
// Cost: 2 LDAP operations (read + write).
func (f *FE) LocationUpdate(ctx context.Context, imsi, servingNode, area string, roaming bool) error {
	return f.observe(ctx, "LocationUpdate", &f.LocationUpdateStats, 2, func(ctx context.Context) error {
		id := subscriber.Identity{Type: subscriber.IMSI, Value: imsi}
		prof, _, _, err := f.session.ReadProfile(ctx, id)
		if err != nil {
			return err
		}
		if !prof.Active {
			return ErrInactive
		}
		if roaming && prof.Services.BarRoaming {
			return ErrBarred
		}
		_, err = f.session.Modify(ctx, id,
			store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrServingNode, Vals: []string{servingNode}},
			store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{area}},
			store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrRoaming, Vals: []string{boolStr(roaming)}},
			store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrLocUpdated,
				Vals: []string{strconv.FormatInt(time.Now().UnixMicro(), 10)}},
		)
		return err
	})
}

// Authenticate runs the authentication procedure: fetch the permanent
// key and sequence number, derive an authentication vector for the
// serving node, then advance the sequence number — an authentication
// is a write! Cost: 2 LDAP operations. The returned vector is what
// the front-end would hand to the MME/VLR.
func (f *FE) Authenticate(ctx context.Context, imsi string) (*auth.Vector, error) {
	var vec *auth.Vector
	err := f.observe(ctx, "Authenticate", &f.AuthenticateStats, 2, func(ctx context.Context) error {
		id := subscriber.Identity{Type: subscriber.IMSI, Value: imsi}
		prof, _, _, err := f.session.ReadProfile(ctx, id)
		if err != nil {
			return err
		}
		if !prof.Active {
			return ErrInactive
		}
		key, err := auth.ParseKey(prof.AuthKeyHex)
		if err != nil {
			return err
		}
		newSQN := prof.SQN + 1
		v := auth.GenerateVector(key, auth.Challenge(newSQN), newSQN, [auth.AmfLen]byte{})
		// SQN advance must hit the master (it is a write); the
		// read above may have been served by a slave.
		if _, err := f.session.Exec(ctx, core.ExecReq{
			Identity: id,
			Ops: []se.TxnOp{{
				Kind: se.TxnModify,
				Mods: []store.Mod{{
					Kind: store.ModReplace,
					Attr: subscriber.AttrSQN,
					Vals: []string{strconv.FormatUint(newSQN, 10)},
				}},
			}},
		}); err != nil {
			return err
		}
		vec = &v
		return nil
	})
	return vec, err
}

// MOCall runs mobile-originated call setup: read the caller's profile
// and apply barring. Cost: 1 LDAP operation.
// premium marks a call to a premium-rate number (§3.2's pay-call
// barring example).
func (f *FE) MOCall(ctx context.Context, msisdn string, premium bool) error {
	return f.observe(ctx, "MOCall", &f.MOCallStats, 1, func(ctx context.Context) error {
		prof, _, _, err := f.session.ReadProfile(ctx,
			subscriber.Identity{Type: subscriber.MSISDN, Value: msisdn})
		if err != nil {
			return err
		}
		switch {
		case !prof.Active:
			return ErrInactive
		case prof.Services.BarOutgoing:
			return ErrBarred
		case premium && prof.Services.BarPremium:
			return ErrBarred
		}
		return nil
	})
}

// MTCall runs mobile-terminated call routing: read the callee's
// location and forwarding state; returns the routing target (serving
// node or forward-to number). Cost: 1 LDAP operation.
func (f *FE) MTCall(ctx context.Context, msisdn string) (routeTo string, err error) {
	err = f.observe(ctx, "MTCall", &f.MTCallStats, 1, func(ctx context.Context) error {
		prof, _, _, rerr := f.session.ReadProfile(ctx,
			subscriber.Identity{Type: subscriber.MSISDN, Value: msisdn})
		if rerr != nil {
			return rerr
		}
		if !prof.Active {
			return ErrInactive
		}
		if fw := prof.Services.ForwardUnconditional; fw != "" {
			routeTo = "forward:" + fw
			return nil
		}
		routeTo = "node:" + prof.Location.ServingNode
		return nil
	})
	return routeTo, err
}

// SMSDeliver runs short-message delivery routing: read the
// destination's serving node. Cost: 1 LDAP operation.
func (f *FE) SMSDeliver(ctx context.Context, msisdn string) (servingNode string, err error) {
	err = f.observe(ctx, "SMSDeliver", &f.SMSStats, 1, func(ctx context.Context) error {
		prof, _, _, rerr := f.session.ReadProfile(ctx,
			subscriber.Identity{Type: subscriber.MSISDN, Value: msisdn})
		if rerr != nil {
			return rerr
		}
		if !prof.Active {
			return ErrInactive
		}
		if !prof.Services.SMSEnabled {
			return ErrBarred
		}
		servingNode = prof.Location.ServingNode
		return nil
	})
	return servingNode, err
}

// IMSRegister runs the IMS registration procedure, the heavier
// network procedure of §3.5 footnote 8. Cost: 5 LDAP operations:
//
//  1. resolve the IMPU and read the service profile,
//  2. read the IMPI authentication data,
//  3. advance the authentication sequence number (write),
//  4. record the S-CSCF assignment (write),
//  5. confirm the registration state (read-back).
func (f *FE) IMSRegister(ctx context.Context, impu, scscf string) error {
	if f.kind != HSS {
		return fmt.Errorf("fe: %s cannot run IMS registration", f.kind)
	}
	return f.observe(ctx, "IMSRegister", &f.IMSRegisterStats, 5, func(ctx context.Context) error {
		pubID := subscriber.Identity{Type: subscriber.IMPU, Value: impu}
		// Op 1: service profile by public identity.
		prof, _, _, err := f.session.ReadProfile(ctx, pubID)
		if err != nil {
			return err
		}
		if !prof.Active {
			return ErrInactive
		}
		if !prof.Services.IMSEnabled {
			return ErrNotIMS
		}
		// Op 2: authentication data by private identity.
		privID := subscriber.Identity{Type: subscriber.IMPI, Value: prof.IMPIVal}
		prof2, _, _, err := f.session.ReadProfile(ctx, privID)
		if err != nil {
			return err
		}
		// Op 3: SQN advance (write).
		if _, err := f.session.Exec(ctx, core.ExecReq{
			Identity: privID,
			Ops: []se.TxnOp{{
				Kind: se.TxnModify,
				Mods: []store.Mod{{
					Kind: store.ModReplace,
					Attr: subscriber.AttrSQN,
					Vals: []string{strconv.FormatUint(prof2.SQN+1, 10)},
				}},
			}},
		}); err != nil {
			return err
		}
		// Op 4: S-CSCF assignment (write).
		if _, err := f.session.Modify(ctx, pubID,
			store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrServingNode, Vals: []string{scscf}},
		); err != nil {
			return err
		}
		// Op 5: registration read-back.
		_, _, _, err = f.session.ReadProfile(ctx, pubID)
		return err
	})
}

// ShUpdate runs the Sh-interface repository-data ("transparent
// data") update of TS 29.328: read the subscriber's current blob and
// version, then write the new blob under a compare-and-set on the
// version attribute, all against the master. Cost: 2 LDAP operations
// (read + CAS write). The CAS is one [compare, modify] transaction,
// so the write always travels the full durability chain (WAL fsync,
// synchronous replication ack wait) — this is the canonical traced
// write for end-to-end latency attribution. The UDR's one-shot
// transactions are READ_COMMITTED (§3.2) and do not abort on a failed
// compare; a version mismatch therefore still applies the write and
// reports ErrShConflict so the application re-reads and retries.
// Returns the version the data was written at.
func (f *FE) ShUpdate(ctx context.Context, msisdn, data string) (version uint64, err error) {
	err = f.observe(ctx, "ShUpdate", &f.ShUpdateStats, 2, func(ctx context.Context) error {
		id := subscriber.Identity{Type: subscriber.MSISDN, Value: msisdn}
		// Op 1: current blob + version (may be served by a slave).
		read, rerr := f.session.Exec(ctx, core.ExecReq{
			Identity: id,
			Ops:      []se.TxnOp{{Kind: se.TxnGet}},
		})
		if rerr != nil {
			return rerr
		}
		if !read.Results[0].Found {
			return fmt.Errorf("%w: %s", core.ErrUnknownSubscriber, id)
		}
		baseStr := read.Results[0].Entry.First(subscriber.AttrShDataVer)
		var base uint64
		if baseStr != "" {
			base, rerr = strconv.ParseUint(baseStr, 10, 64)
			if rerr != nil {
				return fmt.Errorf("fe: bad %s %q: %v", subscriber.AttrShDataVer, baseStr, rerr)
			}
		}
		version = base + 1
		// Op 2: the CAS write, one transaction on the master.
		resp, werr := f.session.Exec(ctx, core.ExecReq{
			Identity: id,
			Ops: []se.TxnOp{
				{Kind: se.TxnCompare, Attr: subscriber.AttrShDataVer,
					Value: strconv.FormatUint(base, 10)},
				{Kind: se.TxnModify, Mods: []store.Mod{
					{Kind: store.ModReplace, Attr: subscriber.AttrShData, Vals: []string{data}},
					{Kind: store.ModReplace, Attr: subscriber.AttrShDataVer,
						Vals: []string{strconv.FormatUint(version, 10)}},
				}},
			},
		})
		if werr != nil {
			return werr
		}
		// A first-ever write has no stored version to compare against;
		// only flag a conflict when the read saw one.
		if baseStr != "" && !resp.Results[0].CompareOK {
			return ErrShConflict
		}
		return nil
	})
	return version, err
}

func boolStr(b bool) string {
	if b {
		return "TRUE"
	}
	return "FALSE"
}
