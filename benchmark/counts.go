package main

import (
	"sync/atomic"

	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
)

// counters is a snapshot of the program's own public counters; the
// per-layer count metrics are differences between two snapshots
// divided by the operations between them.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions float64
	cacheInvalidations, cacheStaleRejects  float64
	locLookups, locFanout                  float64
	seReads, seWrites                      float64
	walAppends, walSyncs                   float64
	replBatches, replRecords               float64
	netMsgs, netDrops                      float64
}

func snapshot(fx *fixture) counters {
	var c counters
	if cache := fx.u.PoA(clientSite).Cache(); cache != nil {
		st := cache.Stats()
		c.cacheHits, c.cacheMisses = float64(st.Hits), float64(st.Misses)
		c.cacheEvictions = float64(st.Evictions)
		c.cacheInvalidations = float64(st.InvalidationsCSN + st.InvalidationsEpoch)
		c.cacheStaleRejects = float64(st.StaleRejects)
	}
	stage := fx.u.Stage(clientSite)
	c.locLookups = float64(stage.Hits.Value() + stage.Misses.Value())
	c.locFanout = float64(stage.FanOutQueries.Value())
	for _, id := range fx.u.Elements() {
		el := fx.u.Element(id)
		c.seReads += float64(el.Reads.Value())
		c.seWrites += float64(el.Writes.Value())
		for _, part := range el.Partitions() {
			pr := el.Replica(part)
			if pr == nil {
				continue
			}
			if pr.Log != nil {
				c.walAppends += float64(pr.Log.Appends())
				c.walSyncs += float64(pr.Log.Syncs())
			}
			for _, s := range pr.Repl.SenderStats() {
				c.replBatches += float64(s.Batches)
				c.replRecords += float64(s.Records)
			}
		}
	}
	c.netMsgs = float64(fx.net.Messages.Value())
	c.netDrops = float64(fx.net.Drops.Value())
	return c
}

// ratio is a/b, 0 when the denominator is: a count metric of a layer
// the workload does not reach reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics turns two snapshots around a phase into the per-layer
// count metrics. ops and writes are the phase's completed operations;
// slaveReads and elementReads come from the role observer.
func countMetrics(m metricSet, a, b counters, ph *phaseResult, roles *roleCounts) {
	ops := float64(ph.ops())
	writes := float64(ph.lat[classWrite].n)
	m.set("fecache.hit_ratio", "ratio", ratio(b.cacheHits-a.cacheHits,
		(b.cacheHits-a.cacheHits)+(b.cacheMisses-a.cacheMisses)))
	m.set("fecache.evictions_per_op", "1", ratio(b.cacheEvictions-a.cacheEvictions, ops))
	m.set("fecache.invalidations_per_op", "1", ratio(b.cacheInvalidations-a.cacheInvalidations, ops))
	m.set("fecache.stale_rejects_per_op", "1", ratio(b.cacheStaleRejects-a.cacheStaleRejects, ops))
	m.set("locator.fanout_per_lookup", "1", ratio(b.locFanout-a.locFanout, b.locLookups-a.locLookups))
	m.set("se.reads_per_op", "1", ratio(b.seReads-a.seReads, ops))
	m.set("se.writes_per_op", "1", ratio(b.seWrites-a.seWrites, ops))
	m.set("core.slave_read_ratio", "ratio", ratio(float64(roles.slave.Load()),
		float64(roles.slave.Load()+roles.master.Load())))
	m.set("wal.appends_per_op", "1", ratio(b.walAppends-a.walAppends, ops))
	m.set("wal.fsyncs_per_commit", "1", ratio(b.walSyncs-a.walSyncs, writes))
	m.set("replication.records_per_batch", "1", ratio(b.replRecords-a.replRecords, b.replBatches-a.replBatches))
	m.set("replication.batches_per_commit", "1", ratio(b.replBatches-a.replBatches, writes))
	m.set("simnet.msgs_per_op", "1", ratio(b.netMsgs-a.netMsgs, ops))
	m.set("simnet.drops_per_op", "1", ratio(b.netDrops-a.netDrops, ops))
	m.set("ldap.wire_bytes_per_op", "B", ratio(float64(ph.wireBytes), ops))
}

// roleCounts counts the reads that reached a storage element by the
// role of the replica that served them.
type roleCounts struct {
	master, slave atomic.Int64
}

// observeRoles installs the elements' transaction observer for the
// traced phase — the one hook that sees which replica served a read on
// every front — and returns the function that removes it.
func observeRoles(fx *fixture, rc *roleCounts) (remove func()) {
	obs := func(_ simnet.Addr, req se.TxnReq, resp se.TxnResp, err error) {
		if err != nil || len(req.Ops) != 1 || req.Ops[0].Kind != se.TxnGet {
			return
		}
		if resp.Role == store.Slave {
			rc.slave.Add(1)
		} else {
			rc.master.Add(1)
		}
	}
	for _, id := range fx.u.Elements() {
		fx.u.Element(id).SetTxnObserver(obs)
	}
	return func() {
		for _, id := range fx.u.Elements() {
			fx.u.Element(id).SetTxnObserver(nil)
		}
	}
}
