package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/fe"
	"repro/internal/ldap"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/wal"
)

// The ladder calls each layer's public entry point from one goroutine
// and times every call. Every rung draws its own keys from the
// workload's distribution, so all rungs see the same mix of hot and
// cold keys and none finds its keys warmed — in the FE cache or in the
// CPU's — by the rung measured before it. (Passing one key set through
// every rung in turn made each rung look faster than the one below it
// by whatever that one had just pulled into cache: about 2 µs on the
// uniform workloads, more than the self times being derived.) The
// rungs take turns in chunks of ladderChunk calls, so a garbage
// collection cycle or a noisy neighbour slows a slice of every rung
// rather than the whole of one, and in an order shuffled per chunk, so
// no rung always runs on the code its predecessor left in the
// instruction cache (in a fixed order core.session_read, always behind
// core.poa_read, read 250 ns faster than the PoA call it contains).

const ladderChunk = 250

// rung is one step of the ladder.
type rung struct {
	name string
	// parent is the rung above: the span of sample i at this rung names
	// that rung's span of sample i as its parent.
	parent string
	// prep builds per-sample inputs before the pass, outside both the
	// timing and the allocation count.
	prep func(samples []ladderSample) error
	// call times one sample; i is its index within the chunk prep saw.
	// It is nil when the layer is not on the workload's path; the rung
	// then reports 0.
	call func(i int, s *ladderSample) error
}

// route is what the rungs below the PoA need to address a partition
// from the client site.
type route struct {
	part       string
	epoch      uint64
	localStore *store.Store // the client site's replica
	localAddr  simnet.Addr
	masterAddr simnet.Addr
}

// ladderSample is one key drawn from the workload's distribution.
type ladderSample struct {
	sub   *subRef
	route *route
}

var errWrongAnswer = errors.New("wrong answer")

// homeRoutes returns the route to each site's home partition, indexed
// like u.Sites(). Subscriber n is homed at site n mod sites and
// DefaultConfig gives every site one partition, so a sample's route
// follows from its index without asking the locator (which would warm
// the very entries the locator rung is about to time).
func homeRoutes(fx *fixture) ([]route, error) {
	sites := fx.u.Sites()
	routes := make([]route, len(sites))
	for i, site := range sites {
		part, ok := fx.u.Partition("p-" + site + "-0")
		if !ok {
			return nil, fmt.Errorf("ladder: site %s has no home partition", site)
		}
		r := route{part: part.ID, epoch: part.Epoch, masterAddr: part.Master().Addr}
		for _, ref := range part.Replicas {
			if ref.Site == clientSite {
				r.localAddr = ref.Addr
				r.localStore = fx.u.Element(ref.Element).Replica(part.ID).Store
			}
		}
		if r.localStore == nil {
			return nil, fmt.Errorf("ladder: no replica of %s at %s", part.ID, clientSite)
		}
		routes[i] = r
	}
	return routes, nil
}

// runLadder measures every rung and adds <rung>_ns (median) and
// <rung>_allocs (mean heap allocations per call, whole process) to m,
// then the derived self times. It returns the ladder's spans and the
// calls attempted and failed.
func runLadder(fx *fixture, seed int64, m metricSet) (spans *spanBuf, attempted, failed uint64, err error) {
	n := fx.wl.ladder
	routes, err := homeRoutes(fx)
	if err != nil {
		return nil, 0, 0, err
	}
	rungs, cleanup, err := buildRungs(fx)
	if err != nil {
		return nil, 0, 0, err
	}
	defer cleanup()

	index := make(map[string]int, len(rungs))
	streams := make([]*opStream, len(rungs))
	durs := make([][]int64, len(rungs))
	mallocs := make([]uint64, len(rungs))
	// The rungs draw keys only: their streams follow the workload's key
	// distribution with no writes, whose ownership rule is the clients'.
	keysOnly := *fx.wl
	keysOnly.writePct = 0
	for i, r := range rungs {
		index[r.name] = i
		// The rung's own stream: client indexes past the real clients'.
		streams[i] = newOpStream(seed, fx.wl.clients+i, &keysOnly, len(fx.targets))
		durs[i] = make([]int64, n)
	}
	spans = newSpanBuf(len(rungs) * n)
	samples := make([]ladderSample, ladderChunk)
	order := rand.New(rand.NewSource(seed))
	for lo := 0; lo < n; lo += ladderChunk {
		chunk := samples[:min(ladderChunk, n-lo)]
		for _, ri := range order.Perm(len(rungs)) {
			r := rungs[ri]
			if r.call == nil {
				continue
			}
			for i := range chunk {
				target, _ := streams[ri].next()
				chunk[i] = ladderSample{sub: fx.target(target), route: &routes[int(fx.targets[target])%len(routes)]}
			}
			if r.prep != nil {
				if err := r.prep(chunk); err != nil {
					return nil, 0, 0, fmt.Errorf("ladder rung %s: %w", r.name, err)
				}
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := range chunk {
				t0 := now()
				cerr := r.call(i, &chunk[i])
				t1 := now()
				durs[ri][lo+i] = t1 - t0
				attempted++
				if cerr != nil {
					failed++
				}
				s := span{id: int64(ri*n+lo+i) + 1, trace: int64(lo + i), name: r.name, start: t0, end: t1}
				if r.parent != "" {
					s.parent = int64(index[r.parent]*n+lo+i) + 1
				}
				spans.add(s)
			}
			runtime.ReadMemStats(&ms1)
			mallocs[ri] += ms1.Mallocs - ms0.Mallocs
		}
	}
	for ri, r := range rungs {
		if r.call == nil {
			m.set(r.name+"_ns", "ns", 0)
			m.set(r.name+"_allocs", "1", 0)
			continue
		}
		d := durs[ri]
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		m.set(r.name+"_ns", "ns", float64(d[n/2]+d[(n-1)/2])/2)
		m.set(r.name+"_allocs", "1", float64(mallocs[ri])/float64(n))
	}

	ns := func(name string) float64 { return m[name+"_ns"].Value }
	m.set("core.session_self_ns", "ns", ns("core.session_read")-ns("core.poa_read"))
	m.set("core.poa_self_ns", "ns", ns("core.poa_read")-ns("se.txn_read")-ns("locator.lookup"))
	m.set("se.txn_self_ns", "ns", ns("se.txn_read")-ns("store.get"))
	m.set("core.ldapbackend_self_ns", "ns", ns("core.ldapbackend_search")-ns("core.session_read"))
	m.set("ldap.tcp_self_ns", "ns", ns("ldap.tcp_search")-ns("ldap.codec_search")-ns("core.ldapbackend_search"))
	return spans, attempted, failed, nil
}

// buildRungs assembles the ladder over the fixture, bottom rung first.
func buildRungs(fx *fixture) ([]rung, func(), error) {
	ctx := context.Background()
	poa := fx.u.PoAAddr(clientSite)
	from := simnet.MakeAddr(clientSite, "bench-ladder")
	cache := fx.u.PoA(clientSite).Cache()
	stage := fx.u.Stage(clientSite)
	hlr := fe.NewWithSession(fe.HLR, clientSite, fx.sess)

	addr, err := fx.ldap()
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	cl := ldap.NewClient(conn)
	cleanup := func() { _ = cl.Unbind() }

	msisdn := func(s *ladderSample) subscriber.Identity {
		return subscriber.Identity{Type: subscriber.MSISDN, Value: s.sub.msisdn}
	}
	checkEntry := func(e store.Entry, found bool, s *ladderSample) error {
		if !found || e.First(subscriber.AttrID) != s.sub.id {
			return errWrongAnswer
		}
		return nil
	}
	checkSearch := func(entries []ldap.SearchEntry, res ldap.Result, s *ladderSample) error {
		if res.Code != ldap.ResultSuccess || len(entries) != 1 || !entryMatches(&entries[0], s.sub) {
			return errWrongAnswer
		}
		return nil
	}
	// The PoA fills in its request's operation keys in place, so every
	// call gets its own operations, as a real client's would.
	getOps := func() []se.TxnOp { return []se.TxnOp{{Kind: se.TxnGet}} }

	// Write rungs replace the area with the rung's own name. The
	// modification is built once per rung and shared by its samples, so
	// a rung's allocation count is the layers', not the generator's.
	mods := func(name string) []store.Mod {
		return []store.Mod{{Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{name}}}
	}
	changes := func(name string) []ldap.Change {
		return []ldap.Change{{Op: ldap.ChangeReplace, Attr: subscriber.AttrArea, Vals: []string{name}}}
	}
	seMods, poaMods, sessMods := mods("se.txn_write"), mods("core.poa_write"), mods("core.session_write")
	backendChanges, tcpChanges := changes("core.ldapbackend_write"), changes("ldap.tcp_modify")

	// Inputs of ldap.codec_search: each sample's request and the real
	// response messages the backend produces for it.
	var codecReqs []*ldap.Message
	var codecResps [][2]*ldap.Message
	var codecBuf []byte

	rungs := []rung{
		{name: "store.get", parent: "se.txn_read", call: func(_ int, s *ladderSample) error {
			e, _, ok := s.route.localStore.GetCommitted(s.sub.id)
			return checkEntry(e, ok, s)
		}},
		{name: "locator.lookup", parent: "core.poa_read", call: func(_ int, s *ladderSample) error {
			pl, err := stage.Lookup(ctx, msisdn(s))
			if err == nil && pl.SubscriberID != s.sub.id {
				err = errWrongAnswer
			}
			return err
		}},
		{name: "fecache.lookup", parent: "core.session_read", call: func(_ int, s *ladderSample) error {
			// The session's probe: resolve the identity alias, then look
			// the entry up. A miss is a correct answer.
			if key, ok := cache.ResolveIdentity(subscriber.AttrMSISDN, s.sub.msisdn); ok {
				cache.Lookup(key)
			}
			return nil
		}},
		{name: "se.txn_read", parent: "core.poa_read", call: func(_ int, s *ladderSample) error {
			raw, err := fx.net.Call(ctx, poa, s.route.localAddr, se.TxnReq{Partition: s.route.part,
				Iso: store.ReadCommitted, Epoch: s.route.epoch,
				Ops: []se.TxnOp{{Kind: se.TxnGet, Key: s.sub.id}}})
			if err != nil {
				return err
			}
			resp, ok := raw.(se.TxnResp)
			if !ok || len(resp.Results) != 1 {
				return errWrongAnswer
			}
			return checkEntry(resp.Results[0].Entry, resp.Results[0].Found, s)
		}},
		{name: "core.poa_read", parent: "core.session_read", call: func(_ int, s *ladderSample) error {
			raw, err := fx.net.Call(ctx, from, poa, core.ExecReq{Identity: msisdn(s),
				Ops: getOps(), Policy: core.PolicyFE, ReadOnly: true})
			if err != nil {
				return err
			}
			resp, ok := raw.(core.ExecResp)
			if !ok || len(resp.Results) != 1 {
				return errWrongAnswer
			}
			return checkEntry(resp.Results[0].Entry, resp.Results[0].Found, s)
		}},
		{name: "core.session_read", parent: "core.ldapbackend_search", call: func(_ int, s *ladderSample) error {
			resp, err := fx.sess.Exec(ctx, core.ExecReq{Identity: msisdn(s), Ops: getOps()})
			if err != nil {
				return err
			}
			return checkEntry(resp.Results[0].Entry, resp.Results[0].Found, s)
		}},
		{name: "fe.mtcall", call: func(_ int, s *ladderSample) error {
			_, err := hlr.MTCall(ctx, s.sub.msisdn)
			return err
		}},
		{name: "core.ldapbackend_search", parent: "ldap.tcp_search", call: func(_ int, s *ladderSample) error {
			entries, res := fx.backend.Search(searchRequest(s.sub.msisdn))
			return checkSearch(entries, res, s)
		}},
		{name: "ldap.codec_search", parent: "ldap.tcp_search",
			prep: func(samples []ladderSample) error {
				codecReqs = make([]*ldap.Message, len(samples))
				codecResps = make([][2]*ldap.Message, len(samples))
				for i := range samples {
					id := int64(i + 1)
					req := searchRequest(samples[i].sub.msisdn)
					entries, res := fx.backend.Search(req)
					if err := checkSearch(entries, res, &samples[i]); err != nil {
						return err
					}
					codecReqs[i] = &ldap.Message{ID: id, Op: req}
					codecResps[i] = [2]*ldap.Message{
						{ID: id, Op: &entries[0]},
						{ID: id, Op: &ldap.SearchDone{Result: res}},
					}
				}
				return nil
			},
			call: func(i int, _ *ladderSample) error {
				// What both ends do for one search: the client encodes the
				// request and the server decodes it, the server encodes
				// the response messages and the client decodes them.
				buf, err := codecReqs[i].AppendTo(codecBuf[:0])
				if err != nil {
					return err
				}
				if _, err := ldap.Decode(buf); err != nil {
					return err
				}
				for _, msg := range codecResps[i] {
					if buf, err = msg.AppendTo(buf[:0]); err != nil {
						return err
					}
					if _, err := ldap.Decode(buf); err != nil {
						return err
					}
				}
				codecBuf = buf
				return nil
			}},
		{name: "ldap.tcp_search", call: func(_ int, s *ladderSample) error {
			entries, res, err := cl.Search(searchRequest(s.sub.msisdn))
			if err != nil {
				return err
			}
			return checkSearch(entries, res, s)
		}},

		{name: "se.txn_write", parent: "core.poa_write", call: func(_ int, s *ladderSample) error {
			_, err := fx.net.Call(ctx, poa, s.route.masterAddr, se.TxnReq{Partition: s.route.part,
				Iso: store.ReadCommitted, Epoch: s.route.epoch,
				Ops: []se.TxnOp{{Kind: se.TxnModify, Key: s.sub.id, Mods: seMods}}})
			return err
		}},
		{name: "core.poa_write", parent: "core.session_write", call: func(_ int, s *ladderSample) error {
			_, err := fx.net.Call(ctx, from, poa, core.ExecReq{Identity: msisdn(s),
				Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: poaMods}}, Policy: core.PolicyFE})
			return err
		}},
		{name: "core.session_write", parent: "core.ldapbackend_write", call: func(_ int, s *ladderSample) error {
			_, err := fx.sess.Modify(ctx, msisdn(s), sessMods...)
			return err
		}},
		{name: "core.ldapbackend_write", parent: "ldap.tcp_modify", call: func(_ int, s *ladderSample) error {
			res := fx.backend.Write([]ldap.WriteOp{{Kind: ldap.WriteModify, DN: s.sub.dn, Changes: backendChanges}})
			if res.Code != ldap.ResultSuccess {
				return errWrongAnswer
			}
			return nil
		}},
		{name: "ldap.tcp_modify", call: func(_ int, s *ladderSample) error {
			res, err := cl.Modify(s.sub.dn, tcpChanges)
			if err == nil && res.Code != ldap.ResultSuccess {
				err = errWrongAnswer
			}
			return err
		}},
	}

	durable, stop, err := durabilityRungs(fx)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return append(rungs, durable...), func() { stop(); cleanup() }, nil
}

// durabilityRungs are the two halves of a durable commit taken alone:
// a WAL append with its fsync, and a quorum commit over three
// replication nodes under the workload's WAN delays. Fixtures without
// a WAL have neither on their path.
func durabilityRungs(fx *fixture) ([]rung, func(), error) {
	if fx.walDir == "" {
		return []rung{{name: "wal.append_sync"}, {name: "replication.quorum_commit"}}, func() {}, nil
	}
	log, err := wal.Open(fx.walDir+"/ladder-wal", wal.SyncEveryCommit)
	if err != nil {
		return nil, nil, err
	}
	entry := store.Entry{subscriber.AttrMSISDN: {"34600000001"}, subscriber.AttrActive: {"TRUE"}}
	rec := &store.CommitRecord{Origin: "ladder", Ops: []store.Op{{Kind: store.OpPut, Key: "sub-ladder", Entry: entry}}}

	wan := simnet.New(simnet.FastConfig())
	sites := fx.u.Sites()
	for _, s := range sites {
		wan.AddSite(s)
	}
	if err := wan.ApplyWAN(wanSpec()); err != nil {
		log.Close()
		return nil, nil, err
	}
	var nodes []*replication.Node
	newNode := func(site string) *replication.Node {
		addr := simnet.MakeAddr(site, "ladder-repl")
		node := replication.NewNode(wan, addr)
		wan.Register(addr, func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			resp, handled, err := node.HandleMessage(ctx, from, msg)
			if !handled {
				return nil, fmt.Errorf("unhandled %T", msg)
			}
			return resp, err
		})
		nodes = append(nodes, node)
		return node
	}
	master := newNode(clientSite).AddReplica("p-ladder", store.New("ladder-master"))
	var peers []simnet.Addr
	for _, site := range sites {
		if site == clientSite {
			continue
		}
		slave := store.New("ladder-" + site)
		slave.SetRole(store.Slave)
		node := newNode(site)
		node.AddReplica("p-ladder", slave)
		peers = append(peers, node.Addr())
	}
	master.SetPeers(peers...)
	master.SetDurability(replication.Quorum)

	stop := func() {
		for _, node := range nodes {
			node.Stop()
		}
		log.Close()
	}
	return []rung{
		{name: "wal.append_sync", call: func(int, *ladderSample) error {
			rec.CSN++
			ticket, wait, err := log.AppendStage(rec)
			if err == nil && wait {
				err = log.WaitDurable(ticket)
			}
			return err
		}},
		{name: "replication.quorum_commit", call: func(int, *ladderSample) error {
			txn := master.Store().Begin(store.ReadCommitted)
			txn.Put("sub-ladder", entry)
			_, err := txn.Commit()
			return err
		}},
	}, stop, nil
}
