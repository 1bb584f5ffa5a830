package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/store"
	"repro/internal/subscriber"
)

func init() {
	register("E4", "Async vs sync replication: commit latency and durability gap",
		"§3.3.1, §4.2", runE4)
}

// runE4 reproduces §3.3.1 decision 2 and its §4.2 critique:
// asynchronous replication keeps commit latency at local cost because
// "execution of a transaction does not have to wait until the
// corresponding write(s) have been propagated to the slave replica(s)"
// — but "a transaction committed on the master with ACID guarantees
// might not be durable if a severe failure prevents the transaction
// from being replicated to at least one slave".
func runE4(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E4", "Async vs sync replication: commit latency and durability gap")
	subs, ops := sizes(opts)
	if ops > 200 {
		ops = 200 // sync modes pay a backbone RTT per commit
	}

	rep.AddRow("durability", "commit p50", "commit p95", "commits acked by ≥1 / every peer at return", "txns lost on master failure")

	for _, dur := range []replication.Durability{replication.Async, replication.DualSeq, replication.SyncAll} {
		net, u, profiles, err := buildUDR(opts, subs, func(c *core.Config) { c.Durability = dur })
		if err != nil {
			return nil, err
		}

		// Writes from the home site so master access is local and
		// the replication cost dominates the comparison.
		home := profiles[0].HomeRegion
		var partID string
		for _, pid := range u.Partitions() {
			if p, _ := u.Partition(pid); p.HomeSite == home {
				partID = pid
			}
		}
		part, _ := u.Partition(partID)
		masterEl := u.Element(part.Master().Element)
		master := masterEl.Replica(partID)

		psSess := psSession(net, home)
		var hist metrics.Histogram
		target := profiles[0]
		// anyAcked and allAcked count the commits that at least one peer
		// and every peer had confirmed by the time Exec returned: each
		// durability level waits for exactly its required acks.
		anyAcked, allAcked := 0, 0
		for i := 0; i < ops; i++ {
			start := time.Now()
			resp, err := psSess.Exec(ctx, core.ExecReq{
				Identity: subscriber.Identity{Type: subscriber.IMSI, Value: target.IMSIVal},
				Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
					Kind: store.ModReplace, Attr: subscriber.AttrSQN, Vals: []string{fmt.Sprint(i)},
				}}}},
			})
			if err != nil {
				u.Stop()
				return nil, fmt.Errorf("durability %s write %d: %w", dur, i, err)
			}
			hist.Record(time.Since(start))
			stats := master.Repl.SenderStats()
			acked := 0
			for _, st := range stats {
				if st.AckedCSN >= resp.CSN {
					acked++
				}
			}
			if acked > 0 {
				anyAcked++
			}
			if acked > 0 && acked == len(stats) {
				allAcked++
			}
		}

		// Durability gap: partition the master away so nothing ships,
		// commit a burst, "lose" the master, fail over, count what
		// survived at the promoted slave.
		net.Partition([]string{home})
		const burst = 10
		committed := 0
		for i := 0; i < burst; i++ {
			txn := master.Store.Begin(store.ReadCommitted)
			txn.Put(fmt.Sprintf("burst-%d", i), store.Entry{"v": {fmt.Sprint(i)}})
			if _, err := txn.Commit(); err == nil {
				committed++
			}
		}
		masterEl.Crash()
		net.Heal()
		newMaster, err := u.Failover(partID)
		if err != nil {
			u.Stop()
			return nil, err
		}
		promoted := u.Element(newMaster.Element).Replica(partID).Store
		survived := 0
		for i := 0; i < burst; i++ {
			if _, _, ok := promoted.GetCommitted(fmt.Sprintf("burst-%d", i)); ok {
				survived++
			}
		}
		lost := committed - survived

		s := hist.Snapshot()
		rep.AddRow(dur.String(), s.P50.String(), s.P95.String(),
			fmt.Sprintf("%d / %d of %d", anyAcked, allAcked, ops), fmt.Sprintf("%d/%d", lost, committed))

		switch dur {
		case replication.Async:
			rep.Check("async: every commit acknowledged with the master's site cut off", committed == burst)
			rep.Check("async: acknowledged commits lost on failure (durability gap)", lost > 0)
		case replication.DualSeq:
			rep.Check("dual-seq: every commit returns after at least one peer acked it", anyAcked == ops)
			// During the partition the DualSeq commits fail, so
			// nothing un-replicated was acknowledged: committed is 0.
			rep.Check("dual-seq: no acknowledged commit lost", lost <= 0 || committed == 0)
		case replication.SyncAll:
			rep.Check("sync-all: every commit returns after every peer acked it", allAcked == ops)
			rep.Check("sync-all: no acknowledged commit lost", lost <= 0 || committed == 0)
		}
		u.Stop()
	}

	rep.Note("durability-gap protocol: partition master, commit %d-txn burst (acknowledged only under async), crash master, fail over, count survivors at the promoted slave", 10)
	rep.Note("paper §4.2: 'on a failure of a storage element, durability of the latest transactions is not guaranteed'")
	return rep, nil
}
