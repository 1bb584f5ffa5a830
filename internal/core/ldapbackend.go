package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/antientropy"
	"repro/internal/ldap"
	"repro/internal/locator"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

// LDAPBackend adapts a UDR session to the ldap.Backend interface,
// realizing the UDC-mandated LDAP northbound interface (§1). cmd/udrd
// serves it over TCP; tests serve it over in-memory pipes.
type LDAPBackend struct {
	session *Session
	timeout time.Duration
	// topology, when set via WithTopology, backs the control
	// extended operations (Extended).
	topology *UDR
}

// NewLDAPBackend returns a backend executing operations through the
// given session (whose policy class determines routing).
func NewLDAPBackend(session *Session) *LDAPBackend {
	return &LDAPBackend{session: session, timeout: 2 * time.Second}
}

// WithTopology attaches the UDR so the backend can serve the control
// extended operations: status (the OSS consolidated view of §2.4),
// repair, move, rebalance and trace.
func (b *LDAPBackend) WithTopology(u *UDR) *LDAPBackend {
	b.topology = u
	return b
}

// Extended implements ldap.ExtendedBackend: the udrctl control
// operations, as a codec over the UDR's control entry points. The
// reply value is the operator's text report, rendered from the typed
// report; the result code is the error class's (adminCodes).
func (b *LDAPBackend) Extended(name string, value []byte) (ldap.Result, []byte) {
	u, ctx, arg := b.topology, context.TODO(), strings.TrimSpace(string(value))
	switch name {
	case ldap.OIDStatus:
		st, err := u.Status()
		if err != nil {
			return adminReply("", err)
		}
		return adminReply(statusText(st), nil)
	case ldap.OIDRepair:
		stats, err := u.AdminRepair(ctx, "")
		if stats == nil && err != nil {
			return adminReply("", err)
		}
		return adminReply(repairText(stats), err)
	case ldap.OIDMove:
		part, target, _ := strings.Cut(arg, " ")
		rep, err := u.AdminMove(ctx, part, strings.TrimSpace(target), false)
		if rep == nil {
			return adminReply("", err)
		}
		return adminReply(rep.String()+"\n", err)
	case ldap.OIDRebalance:
		res, err := u.AdminRebalance(ctx)
		if res == nil {
			return adminReply("", err)
		}
		return adminReply(res.String(), err)
	case ldap.OIDTrace:
		if arg == "" || arg == "recent" || arg == "slow" {
			rate, sums := u.Traces(arg == "slow", 0)
			return adminReply(traceListText(arg == "slow", rate, sums), nil)
		}
		spans, err := u.TraceSpans(arg)
		if err != nil {
			return adminReply("", err)
		}
		return adminReply(trace.RenderTree(spans), nil)
	default:
		return adminReply("", fmt.Errorf("%w: unknown extended op %s", ErrBadRequest, name))
	}
}

// adminCodes is the LDAP result code of each control-operation error
// class (DESIGN.md, "Control operations").
var adminCodes = [...]ldap.ResultCode{
	ClassOther:           ldap.ResultOther,
	ClassNotFound:        ldap.ResultNoSuchObject,
	ClassBusy:            ldap.ResultBusy,
	ClassConflict:        ldap.ResultUnwillingToPerform,
	ClassDisabled:        ldap.ResultUnwillingToPerform,
	ClassUnavailableHere: ldap.ResultUnwillingToPerform,
	ClassBadRequest:      ldap.ResultProtocolError,
	ClassTimeout:         ldap.ResultTimeLimitExceeded,
}

// AdminResult is the LDAP result of a control operation: success for a
// nil error, else the error class's code with the error as message.
func AdminResult(err error) ldap.Result {
	if err == nil {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	return ldap.Result{Code: adminCodes[AdminClass(err)], Message: err.Error()}
}

// adminReply is an extended-op reply: the result plus the report text,
// if any.
func adminReply(text string, err error) (ldap.Result, []byte) {
	if text == "" {
		return AdminResult(err), nil
	}
	return AdminResult(err), []byte(text)
}

// traceListText renders a recent or slowest trace listing.
func traceListText(slow bool, rate float64, sums []trace.TraceSummary) string {
	header := "recent traces"
	if slow {
		header = "slowest traces"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %s (sample rate %g)\n", len(sums), header, rate)
	for _, s := range sums {
		fmt.Fprintf(&sb, "%s  %-24s %12s  %d spans\n", s.Trace, s.Root.Name, s.Root.Duration, s.Spans)
	}
	return sb.String()
}

// repairText renders a repair round as the operator-facing report.
func repairText(stats []antientropy.Stats) string {
	var sb strings.Builder
	shipped, pulled := 0, 0
	for _, s := range stats {
		state := fmt.Sprintf("leaves=%d shipped=%d pulled=%d repaired(local/peer)=%d/%d",
			s.LeavesDiffed, s.RowsShipped, s.RowsPulled, s.RowsRepairedLocal, s.RowsRepairedPeer)
		if s.InSync {
			state = "in sync"
		}
		extra := ""
		if s.Truncated {
			extra = " (truncated: bandwidth cap)"
		}
		if s.WatermarkAdvanced {
			extra += " (stream re-attached)"
		}
		fmt.Fprintf(&sb, "repair %-16s peer=%-24s %s%s\n", s.Partition, s.Peer, state, extra)
		shipped += s.RowsShipped
		pulled += s.RowsPulled
	}
	fmt.Fprintf(&sb, "repair total: %d peer rounds, %d rows shipped, %d rows pulled\n",
		len(stats), shipped, pulled)
	return sb.String()
}

// statusText renders the status view as the operator-facing dump.
func statusText(st *Status) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sites: %s\n", strings.Join(st.Sites, ", "))
	for _, p := range st.Partitions {
		fmt.Fprintf(&sb, "partition %s home=%s", p.ID, p.HomeSite)
		if p.Durability != "" && p.Replicas[0].Up {
			fmt.Fprintf(&sb, " durability=%s", p.Durability)
			if p.QuorumPolicy != "" {
				fmt.Fprintf(&sb, " quorum=%s ack-watermark=%d/%d", p.QuorumPolicy, p.QuorumWatermark, p.MasterCSN)
			}
		}
		sb.WriteByte('\n')
		for _, r := range p.Replicas {
			role, rows, state := "slave ", "?", "DOWN"
			if r.Role == "master" {
				role = "master"
			}
			if r.Up {
				rows, state = fmt.Sprint(r.Rows), "up"
			}
			fmt.Fprintf(&sb, "  %s %-24s site=%-12s rows=%-8s %s\n",
				role, r.Element, r.Site, rows, state)
		}
	}
	for _, cs := range st.Caches {
		fmt.Fprintf(&sb, "fe-cache %-12s entries=%d/%d hits=%d misses=%d evictions=%d invalidations(csn/epoch)=%d/%d",
			cs.Site, cs.Entries, cs.Capacity, cs.Hits, cs.Misses,
			cs.Evictions, cs.InvalidationsCSN, cs.InvalidationsEpoch)
		if cs.LastInvalidatedPartition != "" {
			fmt.Fprintf(&sb, " last-inv=%s@%d", cs.LastInvalidatedPartition, cs.LastInvalidationEpoch)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Bind implements ldap.Backend. The reproduction accepts any
// credentials (directory ACLs are out of the paper's scope) but
// rejects empty DNs on non-anonymous binds for shape.
func (b *LDAPBackend) Bind(dn, password string) ldap.Result {
	if password != "" && dn == "" {
		return ldap.Result{Code: ldap.ResultInvalidCredentials}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// identityFromFilter extracts the subscriber identity an equality
// filter selects, walking AND nodes (e.g. "(&(objectClass=...)
// (msisdn=123))").
func identityFromFilter(f ldap.Filter) (subscriber.Identity, bool) {
	switch f.Kind {
	case ldap.FilterEquality:
		return subscriber.IdentityForAttr(f.Attr, f.Value)
	case ldap.FilterAnd:
		for _, c := range f.Children {
			if id, ok := identityFromFilter(c); ok {
				return id, true
			}
		}
	}
	return subscriber.Identity{}, false
}

// Search implements ldap.Backend. Base-object searches address an
// entry by DN; subtree searches need an identity-bearing equality
// filter (the UDR is an indexed subscriber store, not a general
// directory). Equality filters over identity attributes route through
// the location stage and, on a cached-locator miss, the storage
// elements' secondary identity indexes, not a partition scan.
func (b *LDAPBackend) Search(req *ldap.SearchRequest) ([]ldap.SearchEntry, ldap.Result) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()

	var exec *ExecResp
	var err error
	if req.Scope == ldap.ScopeBaseObject {
		id, perr := subscriber.ParseDN(req.BaseDN)
		if perr != nil {
			return nil, ldap.Result{Code: ldap.ResultNoSuchObject, Message: perr.Error()}
		}
		// A decoded request's strings share the whole message's
		// memory, and the FE cache may keep the key it is filled
		// under. (An identity it keeps is the row image's copy.)
		id = strings.Clone(id)
		exec, err = b.session.Exec(ctx, ExecReq{
			SubscriberID: id,
			Partition:    "", // resolved by probing; avoid when possible
			Identity:     subscriber.Identity{},
			Ops:          []se.TxnOp{{Kind: se.TxnGet, Key: id}},
		})
	} else {
		id, ok := identityFromFilter(req.Filter)
		if !ok {
			return nil, ldap.Result{
				Code:    ldap.ResultUnwillingToPerform,
				Message: "search filter must select a subscriber identity",
			}
		}
		exec, err = b.session.Exec(ctx, ExecReq{
			Identity: id,
			Ops:      []se.TxnOp{{Kind: se.TxnGet}},
		})
	}
	if err != nil {
		return nil, resultFromErr(err)
	}
	if !exec.Results[0].Found {
		return nil, ldap.Result{Code: ldap.ResultNoSuchObject}
	}
	entry := exec.Results[0].Entry
	if !req.Filter.Matches(entry) {
		return nil, ldap.Result{Code: ldap.ResultSuccess} // zero matches
	}
	// The committed row image is immutable (store.Entry is
	// copy-on-write) and the server only encodes it, so it goes out
	// as is unless a selection asks for a projection.
	attrs := map[string][]string(entry)
	if len(req.Attributes) > 0 || req.TypesOnly {
		attrs = projectAttrs(entry, req.Attributes, req.TypesOnly)
	}
	return []ldap.SearchEntry{{
		DN:    subscriber.DN(exec.SubscriberID),
		Attrs: attrs,
	}}, ldap.Result{Code: ldap.ResultSuccess}
}

// projectAttrs applies the requested attribute selection.
func projectAttrs(entry store.Entry, want []string, typesOnly bool) map[string][]string {
	out := make(map[string][]string)
	include := func(a string) bool {
		if len(want) == 0 {
			return true
		}
		for _, w := range want {
			if w == a || w == "*" {
				return true
			}
		}
		return false
	}
	for a, vs := range entry {
		if !include(a) {
			continue
		}
		if typesOnly {
			out[a] = nil
		} else {
			out[a] = append([]string(nil), vs...)
		}
	}
	return out
}

// Compare implements ldap.Backend.
func (b *LDAPBackend) Compare(dn, attr, value string) ldap.Result {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()
	id, err := subscriber.ParseDN(dn)
	if err != nil {
		return ldap.Result{Code: ldap.ResultNoSuchObject, Message: err.Error()}
	}
	exec, err := b.session.Exec(ctx, ExecReq{
		SubscriberID: id,
		Ops:          []se.TxnOp{{Kind: se.TxnCompare, Key: id, Attr: attr, Value: value}},
	})
	if err != nil {
		return resultFromErr(err)
	}
	if !exec.Results[0].Found {
		return ldap.Result{Code: ldap.ResultNoSuchObject}
	}
	if exec.Results[0].CompareOK {
		return ldap.Result{Code: ldap.ResultCompareTrue}
	}
	return ldap.Result{Code: ldap.ResultCompareFalse}
}

// Write implements ldap.Backend: the batch executes as one
// storage-element transaction when all DNs target the same
// subscription's partition; otherwise it degrades to per-partition
// transactions with no cross-SE atomicity — the honest §3.2
// behaviour.
func (b *LDAPBackend) Write(ops []ldap.WriteOp) ldap.Result {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()

	// Group ops by subscriber ID (the partition follows from it).
	type group struct {
		subID string
		ops   []se.TxnOp
	}
	var groups []group
	index := map[string]int{}
	// Every string that may be stored is cloned: a decoded request's
	// strings share the whole message's memory, which a row must not
	// keep alive.
	for _, w := range ops {
		subID, err := subscriber.ParseDN(w.DN)
		if err != nil {
			return ldap.Result{Code: ldap.ResultNoSuchObject, Message: err.Error()}
		}
		subID = strings.Clone(subID)
		var op se.TxnOp
		switch w.Kind {
		case ldap.WriteAdd:
			entry := store.Entry{}
			for a, vs := range w.Attrs {
				entry[strings.Clone(a)] = cloneStrings(vs)
			}
			op = se.TxnOp{Kind: se.TxnPut, Key: subID, Entry: entry}
		case ldap.WriteModify:
			var mods []store.Mod
			for _, c := range w.Changes {
				kind := store.ModAdd
				switch c.Op {
				case ldap.ChangeReplace:
					kind = store.ModReplace
				case ldap.ChangeDelete:
					kind = store.ModDelete
				}
				mods = append(mods, store.Mod{Kind: kind, Attr: strings.Clone(c.Attr), Vals: cloneStrings(c.Vals)})
			}
			op = se.TxnOp{Kind: se.TxnModify, Key: subID, Mods: mods}
		case ldap.WriteDelete:
			op = se.TxnOp{Kind: se.TxnDelete, Key: subID}
		}
		if gi, ok := index[subID]; ok {
			groups[gi].ops = append(groups[gi].ops, op)
		} else {
			index[subID] = len(groups)
			groups = append(groups, group{subID: subID, ops: []se.TxnOp{op}})
		}
	}

	for _, g := range groups {
		// Adds carry no prior location mapping: route via provision
		// when the op set is a pure add of a subscriber entry.
		if len(g.ops) == 1 && g.ops[0].Kind == se.TxnPut {
			if prof, err := subscriber.FromEntry(g.ops[0].Entry); err == nil {
				if _, err := b.session.Provision(ctx, prof); err != nil {
					return resultFromErr(err)
				}
				continue
			}
		}
		if _, err := b.session.Exec(ctx, ExecReq{
			SubscriberID: g.subID,
			Ops:          g.ops,
		}); err != nil {
			return resultFromErr(err)
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// cloneStrings deep-copies vs (nil stays nil).
func cloneStrings(vs []string) []string {
	if vs == nil {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strings.Clone(v)
	}
	return out
}

// resultFromErr maps core/network errors onto LDAP result codes.
func resultFromErr(err error) ldap.Result {
	switch {
	case errors.Is(err, ErrUnknownSubscriber), errors.Is(err, locator.ErrNotFound):
		return ldap.Result{Code: ldap.ResultNoSuchObject, Message: err.Error()}
	case errors.Is(err, locator.ErrNotReady), errors.Is(err, se.ErrStalePlacement),
		errors.Is(err, ErrMigrationInFlight):
		return ldap.Result{Code: ldap.ResultBusy, Message: err.Error()}
	case errors.Is(err, ErrMasterUnreachable), errors.Is(err, ErrNoReplica),
		errors.Is(err, simnet.ErrUnreachable), errors.Is(err, simnet.ErrLost):
		return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
	case errors.Is(err, store.ErrStoreFull):
		return ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return ldap.Result{Code: ldap.ResultTimeLimitExceeded, Message: err.Error()}
	default:
		return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
	}
}
