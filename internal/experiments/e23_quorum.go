package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/store"
)

func init() {
	register("E23", "Quorum commits over WAN profiles: majority latency, not slowest-replica latency",
		"§3.3.1, §4.2, §5", runE23)
}

// runE23 prices the durability spectrum the quorum level opens between
// the paper's async default (§3.3.1) and sync-all (§5): a commit that
// waits for k of n replica acknowledgements pays the k-th fastest
// replica's RTT, not the slowest one's. The grid crosses commit
// durability (async / quorum-majority / sync-all) with WAN profiles
// (uniform metro, uniform continental, and a mixed topology with one
// intercontinental straggler replica), then cuts one replica off to
// show the availability side: quorum keeps committing at full latency
// where sync-all refuses every commit.
//
// All figures are at the simulator's 10x compressed time scale (a
// real-world 30ms one-way becomes 3ms here); the replica-RTT columns
// carry the same scale, so the ratios are scale-free.
func runE23(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E23", "Quorum commits over WAN profiles: majority latency, not slowest-replica latency")
	ops := 120
	if opts.Quick {
		ops = 40
	}

	topos := []struct {
		name string
		spec simnet.WANSpec
	}{
		{"metro", simnet.WANSpec{Default: simnet.Metro}},
		{"continental", simnet.WANSpec{Default: simnet.Continental}},
		{"mixed (one intercont. replica)", simnet.WANSpec{
			Default:   simnet.Continental,
			Overrides: []simnet.WANPair{{A: "eu", B: "apac", Profile: simnet.Intercontinental}},
		}},
	}
	durabilities := []replication.Durability{replication.Async, replication.Quorum, replication.SyncAll}

	rep.AddRow("WAN profile", "durability", "commit p50", "commit p95", "commits/s", "median RTT", "max RTT")
	for _, topo := range topos {
		p50 := map[replication.Durability]time.Duration{}
		var rtts []time.Duration
		for _, d := range durabilities {
			rig, err := buildE23Rig(opts.Seed, topo.spec)
			if err != nil {
				return nil, err
			}
			// The grid never expects a refusal: a sender goroutine
			// starved on a loaded box must not become one. The peer-down
			// cells below measure refusals and keep the default.
			for _, n := range rig.nodes {
				n.CallTimeout = time.Second
			}
			if d == replication.Quorum {
				rig.master.SetQuorumPolicy(replication.QuorumPolicy{Mode: replication.QuorumMajority})
			}
			rig.master.SetDurability(d)

			// Exact percentiles: the RTT-ratio checks are too tight for
			// the log-bucketed metrics histogram (bucket boundaries
			// round a 600µs commit up to 1.024ms).
			lats := make([]time.Duration, 0, ops)
			begin := time.Now()
			for i := 0; i < ops; i++ {
				start := time.Now()
				if err := rig.commit(fmt.Sprintf("sub-%06d", i)); err != nil {
					rig.stop()
					return nil, fmt.Errorf("e23: %s/%s commit %d: %w", topo.name, d, i, err)
				}
				lats = append(lats, time.Since(start))
			}
			elapsed := time.Since(begin)
			rtts = rig.net.ReplicaRTTs("eu", "us", "apac")
			rig.stop()

			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p95 := lats[len(lats)*95/100]
			p50[d] = lats[len(lats)/2]
			rep.AddRow(topo.name, d.String(), p50[d].String(), p95.String(),
				fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
				rtts[(len(rtts)-1)/2].String(), rtts[len(rtts)-1].String())
		}

		medianRTT := rtts[(len(rtts)-1)/2]
		maxRTT := rtts[len(rtts)-1]
		rep.Check(fmt.Sprintf("%s: quorum commit p50 within 1.5x the median replica RTT", topo.name),
			p50[replication.Quorum] <= medianRTT*3/2)
		rep.Check(fmt.Sprintf("%s: sync-all commit p50 pays at least the slowest replica RTT", topo.name),
			p50[replication.SyncAll] >= maxRTT)
		rep.Check(fmt.Sprintf("%s: async stays below quorum (it waits for nothing)", topo.name),
			p50[replication.Async] < p50[replication.Quorum])
		if len(topo.spec.Overrides) > 0 {
			rep.Check("mixed topology: quorum is decoupled from the straggler (p50 below max replica RTT)",
				p50[replication.Quorum] < maxRTT)
		}
	}

	// Availability cut: the intercontinental replica drops off the
	// mixed topology. Majority quorum (master + nearest slave) keeps
	// acknowledging durable commits; sync-all refuses every one (the
	// records stay applied locally, per the durability contract).
	const burst = 10
	downOK := map[replication.Durability]int{}
	for _, d := range []replication.Durability{replication.Quorum, replication.SyncAll} {
		rig, err := buildE23Rig(opts.Seed, topos[2].spec)
		if err != nil {
			return nil, err
		}
		rig.master.SetDurability(d)
		rig.net.Partition([]string{"apac"})
		var lastErr error
		for i := 0; i < burst; i++ {
			if err := rig.commit(fmt.Sprintf("down-%03d", i)); err == nil {
				downOK[d]++
			} else if !errors.Is(err, replication.ErrDurability) {
				rig.stop()
				return nil, fmt.Errorf("e23: peer-down %s commit %d: %w", d, i, err)
			} else {
				lastErr = err
			}
		}
		if d == replication.Quorum {
			// Every acknowledged commit must actually be quorum-durable.
			deadline := time.Now().Add(5 * time.Second)
			for rig.master.QuorumWatermark() < rig.master.Store().CSN() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if rig.master.QuorumWatermark() < rig.master.Store().CSN() {
				rig.stop()
				return nil, fmt.Errorf("e23: quorum watermark stuck below CSN with a live majority")
			}
		}
		rep.AddRow(topos[2].name+" + replica down", d.String(),
			fmt.Sprintf("%d/%d acked", downOK[d], burst), "-", "-", "-", "-")
		rig.stop()
		_ = lastErr
	}
	rep.Check("quorum sustains durable commits with one replica down", downOK[replication.Quorum] == burst)
	rep.Check("sync-all stalls with one replica down (every commit refused)", downOK[replication.SyncAll] == 0)

	rep.Note("rig: one partition, master at eu with slaves at us and apac; %d commits per cell; latencies at the 10x compressed simulator scale", ops)
	rep.Note("quorum=majority of 3 copies: the commit returns on the first slave ack — the k-th fastest RTT, the E23 headline")
	return rep, nil
}

// e23Rig is a single-partition master/two-slave replication rig over a
// WAN-profiled network (replication-level, no PoA/FE path: the cell
// isolates the durability wait itself).
type e23Rig struct {
	net    *simnet.Network
	master *replication.Replica
	nodes  []*replication.Node
}

func buildE23Rig(seed int64, spec simnet.WANSpec) (*e23Rig, error) {
	cfg := simnet.FastConfig()
	cfg.Seed = seed
	net := simnet.New(cfg)
	for _, s := range []string{"eu", "us", "apac"} {
		net.AddSite(s)
	}
	if err := net.ApplyWAN(spec); err != nil {
		return nil, err
	}
	rig := &e23Rig{net: net}
	newNode := func(site, name string) *replication.Node {
		addr := simnet.MakeAddr(site, name)
		node := replication.NewNode(net, addr)
		net.Register(addr, func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			resp, handled, err := node.HandleMessage(ctx, from, msg)
			if !handled {
				return nil, fmt.Errorf("unhandled %T", msg)
			}
			return resp, err
		})
		rig.nodes = append(rig.nodes, node)
		return node
	}
	master := newNode("eu", "m")
	rig.master = master.AddReplica("p1", store.New("m"))
	var peers []simnet.Addr
	for _, site := range []string{"us", "apac"} {
		node := newNode(site, "s-"+site)
		ss := store.New("s-" + site)
		ss.SetRole(store.Slave)
		node.AddReplica("p1", ss)
		peers = append(peers, node.Addr())
	}
	rig.master.SetPeers(peers...)
	return rig, nil
}

func (r *e23Rig) commit(key string) error {
	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put(key, store.Entry{"v": {key}})
	_, err := txn.Commit()
	return err
}

func (r *e23Rig) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
}
