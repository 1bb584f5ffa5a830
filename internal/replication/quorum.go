package replication

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/simnet"
	"repro/internal/store"
)

// QuorumMode selects how the Quorum durability level derives its
// required acknowledgement set from the current peer topology.
type QuorumMode int

const (
	// QuorumMajority requires a majority of all copies (master plus
	// peers). The master's own commit counts as one vote, so with two
	// slaves a single slave ack completes the quorum — the classic
	// "durable at median-replica RTT" configuration.
	QuorumMajority QuorumMode = iota
	// QuorumCount requires a fixed number of peer acknowledgements
	// (clamped to the number of eligible peers, mirroring SyncAll's
	// "all configured peers" semantics when oversized).
	QuorumCount
	// QuorumSiteAware requires acknowledgements split by geography:
	// Local copies at the master's site (the master itself counts as
	// one) and Remote copies at other sites. "One local + one remote"
	// survives a full-site loss while paying only the nearest remote
	// peer's RTT.
	QuorumSiteAware
)

// QuorumPolicy configures the Quorum durability level. The zero value
// is a majority quorum.
type QuorumPolicy struct {
	Mode QuorumMode
	// K is the required peer-ack count for QuorumCount.
	K int
	// Local and Remote are the required copy counts per geography for
	// QuorumSiteAware. The master's own copy counts toward Local.
	Local, Remote int
}

// Majority returns the default majority policy.
func Majority() QuorumPolicy { return QuorumPolicy{Mode: QuorumMajority} }

// String renders the policy in the same syntax ParseQuorumPolicy
// accepts.
func (p QuorumPolicy) String() string {
	switch p.Mode {
	case QuorumCount:
		return fmt.Sprintf("k=%d", p.K)
	case QuorumSiteAware:
		return fmt.Sprintf("site:%d+%d", p.Local, p.Remote)
	}
	return "majority"
}

// ParseQuorumPolicy parses an operator-facing policy string:
//
//	majority          majority of all copies (default)
//	k=N               N peer acknowledgements
//	site              one local + one remote copy (site:1+1)
//	site:L+R          L local copies (master included) + R remote
func ParseQuorumPolicy(s string) (QuorumPolicy, error) {
	switch t := strings.TrimSpace(strings.ToLower(s)); {
	case t == "" || t == "majority":
		return QuorumPolicy{Mode: QuorumMajority}, nil
	case t == "site":
		return QuorumPolicy{Mode: QuorumSiteAware, Local: 1, Remote: 1}, nil
	case strings.HasPrefix(t, "site:"):
		parts := strings.SplitN(strings.TrimPrefix(t, "site:"), "+", 2)
		if len(parts) != 2 {
			return QuorumPolicy{}, fmt.Errorf("replication: bad site policy %q (want site:L+R)", s)
		}
		l, err1 := strconv.Atoi(parts[0])
		r, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || l < 0 || r < 0 || l+r == 0 {
			return QuorumPolicy{}, fmt.Errorf("replication: bad site policy %q (want site:L+R)", s)
		}
		return QuorumPolicy{Mode: QuorumSiteAware, Local: l, Remote: r}, nil
	case strings.HasPrefix(t, "k=") || strings.HasPrefix(t, "count="):
		k, err := strconv.Atoi(t[strings.IndexByte(t, '=')+1:])
		if err != nil || k < 1 {
			return QuorumPolicy{}, fmt.Errorf("replication: bad count policy %q (want k=N)", s)
		}
		return QuorumPolicy{Mode: QuorumCount, K: k}, nil
	default:
		return QuorumPolicy{}, fmt.Errorf("replication: unknown quorum policy %q", s)
	}
}

// SetQuorumPolicy installs the policy the Quorum durability level
// evaluates. Waiters blocked on the old policy re-evaluate against the
// new one immediately.
func (r *Replica) SetQuorumPolicy(p QuorumPolicy) {
	r.mu.Lock()
	r.policy = p
	r.refreshQuorumLocked()
	r.mu.Unlock()
}

// QuorumPolicy returns the configured policy.
func (r *Replica) QuorumPolicy() QuorumPolicy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy
}

// QuorumWatermark returns the highest CSN known to satisfy the quorum
// policy: every commit at or below it is applied on enough replicas
// that the configured quorum holds. Maintained on every peer
// acknowledgement while the replica masters its partition; monotonic
// across policy and peer changes.
func (r *Replica) QuorumWatermark() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quorumWM
}

// QuorumSize returns the number of copies (master included) the
// current policy requires against the current peer set.
func (r *Replica) QuorumSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	needLocal, needRemote := r.requiredAcksLocked()
	return needLocal + needRemote + 1
}

// requiredAcksLocked derives the peer-ack requirement from the policy
// and the current eligible (non-standby) peer set. For QuorumCount
// and QuorumMajority the requirement is geography-blind and returned
// entirely in needLocal's place via needRemote=0 semantics — callers
// that need the split read eligLocal and eligRemote.
func (r *Replica) requiredAcksLocked() (needLocal, needRemote int) {
	local, remote := len(r.eligLocal), len(r.eligRemote)
	switch r.policy.Mode {
	case QuorumCount:
		return min(r.policy.K, local+remote), 0
	case QuorumSiteAware:
		// The master is one local copy.
		return min(max(r.policy.Local-1, 0), local), min(r.policy.Remote, remote)
	default: // QuorumMajority
		n := local + remote + 1 // all copies, master included
		return n/2 + 1 - 1, 0   // majority minus the master's own vote
	}
}

// rebuildEligibleLocked recomputes the cached eligible (non-standby)
// senders, split by geography relative to the master's site and
// combined, each in peer order. It runs wherever the peer set changes,
// so the quorum refresh on every ack reads the split without
// allocating. The slices are always fresh: a synchronous commit keeps
// the combined list it captured, unchanged by a later peer change.
func (r *Replica) rebuildEligibleLocked() {
	site := r.node.addr.Site()
	var local, remote, all []*sender
	for _, p := range r.peers {
		s, ok := r.senders[p]
		if !ok || s.standby {
			continue
		}
		all = append(all, s)
		if p.Site() == site {
			local = append(local, s)
		} else {
			remote = append(remote, s)
		}
	}
	r.eligLocal, r.eligRemote, r.eligible = local, remote, all
}

// kthAcked returns the k-th highest acknowledged CSN among the
// senders — the highest CSN at least k of them have confirmed. k=0
// imposes no constraint (reported as ^uint64(0), for min-combining).
// The CSNs are collected on the stack; only more than 16 senders
// spill to the heap.
func kthAcked(senders []*sender, k int) uint64 {
	if k <= 0 {
		return ^uint64(0)
	}
	if k > len(senders) {
		return 0
	}
	var buf [16]uint64
	acked := buf[:0]
	for _, s := range senders {
		acked = append(acked, s.ackedCSN())
	}
	slices.Sort(acked)
	return acked[len(acked)-k]
}

// refreshQuorumLocked recomputes the quorum watermark from the current
// acknowledgement state and wakes every commit waiting on an ack.
// Called under r.mu whenever an ack arrives or the peer set / policy
// changes; it allocates nothing.
func (r *Replica) refreshQuorumLocked() {
	// Wake waiters first, whatever the role: the synchronous levels wait
	// on this signal for their own sender list, not the watermark.
	if r.ackCh != nil {
		close(r.ackCh)
		r.ackCh = nil
	}
	if r.store.MultiMaster() || r.store.Role() != store.Master {
		return
	}
	needLocal, needRemote := r.requiredAcksLocked()
	var wm uint64
	if r.policy.Mode == QuorumSiteAware {
		wm = min(kthAcked(r.eligLocal, needLocal), kthAcked(r.eligRemote, needRemote))
	} else {
		wm = kthAcked(r.eligible, needLocal)
	}
	if head := r.headCSN.Load(); wm > head {
		// No peer requirement (or acks racing ahead of the stage):
		// the quorum frontier never passes the staged head.
		wm = head
	}
	if wm > r.quorumWM {
		r.quorumWM = wm
	}
}

// noteAck is called by a sender (outside its own lock) after its
// acknowledged CSN advanced.
func (r *Replica) noteAck() {
	r.mu.Lock()
	r.refreshQuorumLocked()
	r.mu.Unlock()
}

// ackSignal returns a channel closed on the next acknowledgement (or
// peer-set / policy change), created lazily so idle replicas pay
// nothing.
func (r *Replica) ackSignal() <-chan struct{} {
	r.mu.Lock()
	if r.ackCh == nil {
		r.ackCh = make(chan struct{})
	}
	ch := r.ackCh
	r.mu.Unlock()
	return ch
}

// WatermarkLag returns, per peer, how many quorum-durable commits the
// peer has not yet acknowledged: distance behind the quorum watermark
// rather than the master's head. A straggler behind a slow WAN link
// shows up here even while commits keep completing at quorum
// latency; the rebalance cutover drain and anti-entropy re-attach use
// it to pick catch-up targets that are actually durable.
func (r *Replica) WatermarkLag() map[simnet.Addr]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	wm := r.quorumWM
	out := make(map[simnet.Addr]uint64, len(r.senders))
	for a, s := range r.senders {
		if acked := s.ackedCSN(); wm > acked {
			out[a] = wm - acked
		} else {
			out[a] = 0
		}
	}
	return out
}
