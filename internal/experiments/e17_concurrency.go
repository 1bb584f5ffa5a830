package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

func init() {
	register("E17", "Engine concurrency: lock-striped read/write scaling; identity index vs full scan",
		"§2.3, §3.4 (perf extension)", runE17)
}

// runE17 measures the storage-engine properties the lock-striped MVCC
// refactor is for. Part A drives one partition store with increasing
// client-goroutine counts and reports read, commit and mixed
// throughput: reads take only a shard read-lock and return shared
// copy-on-write versions, so they scale with cores, while commits
// stay totally ordered behind the CSN lock by design. Part B compares
// the §3.4 identity-search fallback on two storage elements — one
// resolving FindReq through the secondary identity index, one forced
// onto the legacy full partition scan — at the same population.
func runE17(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E17", "Engine concurrency: lock-striped read/write scaling; identity index vs full scan")

	rows, perG := 5000, 50000
	gorCounts := []int{1, 2, 4, 8}
	findRows, findOps := 4000, 300
	if opts.Quick {
		rows, perG = 800, 8000
		gorCounts = []int{1, 4}
		findRows, findOps = 600, 120
	}

	// --- Part A: throughput vs goroutines on one store ---------------
	st := store.New("e17")
	st.SetIndexedAttrs(subscriber.IdentityAttrs...)
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("sub-%06d", i)
		txn := st.Begin(store.ReadCommitted)
		txn.Put(keys[i], store.Entry{
			subscriber.AttrIMSI: {fmt.Sprintf("21401%09d", i)},
			subscriber.AttrArea: {"a0"},
		})
		if _, err := txn.Commit(); err != nil {
			return nil, err
		}
	}

	rep.AddRow("— part A: one partition store, ops split across goroutines —")
	rep.AddRow("goroutines", "reads/s", "commits/s", "mixed 90/10 ops/s")
	var readTput []float64
	commitsBefore := st.CSN()
	totalCommits := uint64(0)
	for _, g := range gorCounts {
		rt := e17Run(g, perG, func(worker, i int) {
			st.GetCommitted(keys[(worker*7919+i)%rows])
		})
		wt := e17Run(g, perG/10, func(worker, i int) {
			txn := st.Begin(store.ReadCommitted)
			k := (worker*104729 + i) % rows
			txn.Put(keys[k], store.Entry{
				subscriber.AttrIMSI: {fmt.Sprintf("21401%09d", k)},
				subscriber.AttrArea: {fmt.Sprintf("a%d", i&7)},
			})
			txn.Commit()
		})
		totalCommits += uint64(g * (perG / 10))
		mt := e17Run(g, perG, func(worker, i int) {
			k := (worker*31 + i) % rows
			if i%10 == 9 {
				txn := st.Begin(store.ReadCommitted)
				txn.Modify(keys[k], store.Mod{Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{"m"}})
				txn.Commit()
			} else {
				st.GetCommitted(keys[k])
			}
		})
		totalCommits += uint64(g * perG / 10)
		readTput = append(readTput, rt)
		rep.AddRow(fmt.Sprint(g), e17Ops(rt), e17Ops(wt), e17Ops(mt))
	}
	// CSN total order survives arbitrary interleaving: every commit
	// got exactly one sequence slot.
	rep.Check("CSN total order preserved under concurrent commits",
		st.CSN() == commitsBefore+totalCommits)
	// Quick mode runs on arbitrary CI hardware, often 2 vCPUs under
	// the race detector, where the 1-vs-N wall-clock ratio is noisy;
	// the bar only rejects a true global-lock collapse there. Full
	// size keeps the tighter bar.
	collapseBar := 0.45
	if opts.Quick {
		collapseBar = 0.2
	}
	rep.Check("parallel reads do not collapse under fan-in",
		readTput[len(readTput)-1] >= collapseBar*readTput[0])
	rep.Check("identity index consistent after concurrent writes", e17IndexConsistent(st))

	// --- Part B: identity find — secondary index vs legacy scan ------
	net := simnet.New(simnet.FastConfig())
	elIdx := se.New(net, se.Config{ID: "se-idx", Site: "eu"})
	elScan := se.New(net, se.Config{ID: "se-scan", Site: "eu"})
	defer elIdx.Stop()
	defer elScan.Stop()
	prIdx, err := elIdx.AddReplica("p", store.Master)
	if err != nil {
		return nil, err
	}
	prScan, err := elScan.AddReplica("p", store.Master)
	if err != nil {
		return nil, err
	}
	// Elements index nothing unless asked: the indexed one opts in, the
	// other answers FindReq with the full scan.
	prIdx.Store.SetIndexedAttrs(subscriber.IdentityAttrs...)
	gen := subscriber.NewGenerator("eu")
	profiles := make([]*subscriber.Profile, findRows)
	for i := range profiles {
		profiles[i] = gen.Profile(i)
		entry := profiles[i].ToEntry()
		for _, s := range []*store.Store{prIdx.Store, prScan.Store} {
			txn := s.Begin(store.ReadCommitted)
			txn.Put(profiles[i].ID, entry)
			if _, err := txn.Commit(); err != nil {
				return nil, err
			}
		}
	}

	client := simnet.MakeAddr("eu", "e17-client")
	find := func(el *se.Element, id subscriber.Identity) (se.FindResp, error) {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		raw, err := net.Call(cctx, client, el.Addr(), se.FindReq{Identity: id})
		if err != nil {
			return se.FindResp{}, err
		}
		return raw.(se.FindResp), nil
	}

	// Same answers on hits, multi-valued identities and misses.
	agree := true
	for _, id := range append(profiles[findRows/2].Identities(),
		subscriber.Identity{Type: subscriber.MSISDN, Value: "nope"}) {
		a, err := find(elIdx, id)
		if err != nil {
			return nil, err
		}
		b, err := find(elScan, id)
		if err != nil {
			return nil, err
		}
		if a != b {
			agree = false
		}
	}
	rep.Check("indexed and scan resolution agree", agree)

	measure := func(el *se.Element) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < findOps; i++ {
			p := profiles[(i*37)%findRows]
			if _, err := find(el, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal}); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(findOps), nil
	}
	scanLat, err := measure(elScan)
	if err != nil {
		return nil, err
	}
	idxLat, err := measure(elIdx)
	if err != nil {
		return nil, err
	}
	rep.AddRow("— part B: FindReq resolution at one storage element —")
	rep.AddRow("rows", "full scan /find", "identity index /find", "speedup")
	rep.AddRow(fmt.Sprint(findRows), scanLat.String(), idxLat.String(),
		fmt.Sprintf("%.1fx", float64(scanLat)/float64(idxLat)))
	rep.Check("identity index beats full scan", idxLat < scanLat)
	rep.Note("scan cost grows O(rows) per element; the index is O(log n) — E9's cached-locator miss fan-out pays one of these per queried SE")
	return rep, nil
}

// e17Run spreads gors goroutines over perG calls of fn each and
// returns the aggregate throughput in ops/s.
func e17Run(gors, perG int, fn func(worker, i int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < gors; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
	return float64(gors*perG) / time.Since(start).Seconds()
}

// e17Ops formats a throughput.
func e17Ops(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// e17IndexConsistent verifies every live row's indexed identity values
// resolve back to exactly that row. Rows are collected first: index
// lookups must not run inside the iteration callback (store
// no-reentrancy rule).
func e17IndexConsistent(st *store.Store) bool {
	type pair struct{ key, attr, val string }
	var pairs []pair
	attrs := st.IndexedAttrs()
	st.ForEach(func(key string, e store.Entry, _ store.Meta) bool {
		for _, attr := range attrs {
			for _, v := range e[attr] {
				pairs = append(pairs, pair{key, attr, v})
			}
		}
		return true
	})
	for _, p := range pairs {
		if got, found := st.LookupByAttr(p.attr, p.val); !found || got != p.key {
			return false
		}
	}
	return true
}
