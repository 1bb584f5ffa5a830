package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

func init() {
	register("E5", "Slave reads: latency win vs staleness cost",
		"§3.3.2", runE5)
	register("E6", "PS master-only reads: zero staleness at backbone cost",
		"§3.3.3", runE6)
}

// e5Setup builds the UDR and returns a subscriber whose master is
// remote from the reading site.
func e5Setup(opts Options) (net *simnet.Network, u *core.UDR, reader string, target *subscriber.Profile, err error) {
	subs, _ := sizes(opts)
	n, udr, profiles, err := buildUDR(opts, subs)
	if err != nil {
		return nil, nil, "", nil, err
	}
	sites := udr.Sites()
	reader = sites[0]
	for _, p := range profiles {
		if p.HomeRegion != reader {
			target = p
			break
		}
	}
	return n, udr, reader, target, nil
}

// runE5 reproduces §3.3.2 decision 2: allowing FE reads on slave
// copies turns a backbone round trip into a LAN one when the slave is
// co-located with the PoA — at the price of "a certain chance that a
// read operation on a slave replica gets stale data".
func runE5(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E5", "Slave reads: latency win vs staleness cost")
	_, ops := sizes(opts)

	// The policy class is the selection (§3.3.2 vs §3.3.3): the
	// master-only row reads through a PS-policy session.
	measure := func(session func(*simnet.Network, string) *core.Session) (lat metrics.Snapshot, staleRate float64, err error) {
		net, u, reader, target, err := e5Setup(opts)
		if err != nil {
			return metrics.Snapshot{}, 0, err
		}
		defer u.Stop()

		read := session(net, reader)
		writer := psSession(net, target.HomeRegion)
		id := subscriber.Identity{Type: subscriber.IMSI, Value: target.IMSIVal}

		var hist metrics.Histogram
		stale, total := 0, 0
		for i := 0; i < ops; i++ {
			// Write a version marker at the master...
			wr, err := writer.Exec(ctx, core.ExecReq{
				Identity: id,
				Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
					Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{strconv.Itoa(i)},
				}}}},
			})
			if err != nil {
				return metrics.Snapshot{}, 0, err
			}
			// ...and immediately read from the remote site. With
			// slave reads the local copy may not have caught up:
			// the CSN tells us whether the read was stale.
			start := time.Now()
			resp, err := read.Exec(ctx, core.ExecReq{
				Identity: id,
				Ops:      []se.TxnOp{{Kind: se.TxnGet}},
			})
			if err != nil {
				return metrics.Snapshot{}, 0, err
			}
			hist.Record(time.Since(start))
			total++
			if resp.Results[0].Meta.CSN < wr.CSN {
				stale++
			}
		}
		return hist.Snapshot(), float64(stale) / float64(total), nil
	}

	withSlaves, staleWith, err := measure(feSession)
	if err != nil {
		return nil, err
	}
	masterOnly, staleWithout, err := measure(psSession)
	if err != nil {
		return nil, err
	}

	rep.AddRow("mode", "read p50", "read p95", "stale reads")
	rep.AddRow("slave reads allowed (paper FE)", withSlaves.P50.String(), withSlaves.P95.String(),
		fmt.Sprintf("%.1f%%", 100*staleWith))
	rep.AddRow("master-only reads", masterOnly.P50.String(), masterOnly.P95.String(),
		fmt.Sprintf("%.1f%%", 100*staleWithout))

	backbone := netConfig(opts).Backbone.Latency
	rep.Check("slave reads are faster (LAN vs backbone)", withSlaves.P50 < masterOnly.P50)
	rep.Check("master-only read pays the backbone RTT", masterOnly.P50 >= 2*backbone)
	rep.Check("slave reads can be stale, master reads never", staleWith > 0 && staleWithout == 0)
	rep.Note("read issued immediately after a remote master write; staleness detected by comparing row CSN to the write's CSN")
	rep.Note("paper: 'asynchronous replication does not guarantee real-time sync between replicas, there's a certain chance that a read operation on a slave replica gets stale data'")
	return rep, nil
}

// runE6 reproduces §3.3.3: the PS reads master copies only, because a
// provisioning read-modify-write acting on stale data is worse than a
// slow one — "the chance of the PS reading stale data is too high".
func runE6(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E6", "PS master-only reads: zero staleness at backbone cost")
	_, ops := sizes(opts)
	net, u, reader, target, err := e5Setup(opts)
	if err != nil {
		return nil, err
	}
	defer u.Stop()

	feSess := feSession(net, reader)
	psSess := psSession(net, reader)
	writer := psSession(net, target.HomeRegion)
	id := subscriber.Identity{Type: subscriber.IMSI, Value: target.IMSIVal}

	var feHist, psHist metrics.Histogram
	feStale, psStale := 0, 0
	for i := 0; i < ops; i++ {
		wr, err := writer.Exec(ctx, core.ExecReq{
			Identity: id,
			Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
				Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{strconv.Itoa(i)},
			}}}},
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		feResp, err := feSess.Exec(ctx, core.ExecReq{Identity: id, Ops: []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil {
			return nil, err
		}
		feHist.Record(time.Since(start))
		if feResp.Results[0].Meta.CSN < wr.CSN {
			feStale++
		}

		start = time.Now()
		psResp, err := psSess.Exec(ctx, core.ExecReq{Identity: id, Ops: []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil {
			return nil, err
		}
		psHist.Record(time.Since(start))
		if psResp.Results[0].Meta.CSN < wr.CSN {
			psStale++
		}
	}

	fe, p := feHist.Snapshot(), psHist.Snapshot()
	rep.AddRow("client", "routing", "read p50", "stale reads")
	rep.AddRow("FE", "nearest replica", fe.P50.String(), fmt.Sprintf("%d/%d", feStale, ops))
	rep.AddRow("PS", "master only", p.P50.String(), fmt.Sprintf("%d/%d", psStale, ops))
	rep.Check("PS reads are never stale", psStale == 0)
	rep.Check("FE reads can be stale under identical load", feStale > 0)
	rep.Check("PS pays the backbone for remote-mastered data", p.P50 > fe.P50)
	rep.Note("paper: 'it is not possible to read from a slave replica and write on the master replica within one atomic transaction... the chance of the PS reading stale data is too high'")
	return rep, nil
}
