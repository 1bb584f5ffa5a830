package core

import (
	"maps"
	"sort"

	"repro/internal/fecache"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/store"
	"repro/internal/wal"
)

// RegisterMetrics exports the UDR's instruments into a registry under
// the udr_* namespace, per-site/per-element/per-partition labeled —
// the substrate internal/obs serves as GET /metrics.
//
// Topology-scoped families (per-element counters, per-partition
// replication lag, migration progress) register gather-time
// collectors that enumerate the *current* topology on every scrape,
// so scale-out sites, failovers and migrations show up without
// re-registration. Instruments that cannot be collected dynamically
// (the PoA latency histograms) are attached per site; RegisterMetrics
// is idempotent and re-runs automatically after AddSite, so new sites
// get theirs too.
func (u *UDR) RegisterMetrics(reg *metrics.Registry) {
	u.mu.Lock()
	first := u.obsReg != reg
	u.obsReg = reg
	u.mu.Unlock()
	if first {
		u.registerCollectors(reg)
	}
	u.attachInstruments(reg)
}

// obsRegistry returns the registry RegisterMetrics installed, or nil.
func (u *UDR) obsRegistry() *metrics.Registry {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.obsReg
}

// elementsSnapshot lists the hosted elements, sorted by ID.
func (u *UDR) elementsSnapshot() []*se.Element {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make([]*se.Element, 0, len(u.elements))
	for _, id := range u.elementIDsLocked() {
		out = append(out, u.elements[id])
	}
	return out
}

func (u *UDR) elementIDsLocked() []string {
	ids := make([]string, 0, len(u.elements))
	for id := range u.elements {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CacheStats snapshots every site's FE/PoA cache counters,
// sorted by site for stable scrape output. Sites without a cache are
// skipped.
func (u *UDR) CacheStats() []fecache.Stats {
	u.mu.RLock()
	caches := make([]*fecache.Cache, 0, len(u.poas))
	for _, poa := range u.poas {
		if poa.cache != nil {
			caches = append(caches, poa.cache)
		}
	}
	u.mu.RUnlock()
	out := make([]fecache.Stats, 0, len(caches))
	for _, c := range caches {
		out = append(out, c.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// attachInstruments binds the per-site instruments that live inside
// subsystem structs. Attach replaces any prior binding, so the pass
// is idempotent and safe to re-run after topology changes.
func (u *UDR) attachInstruments(reg *metrics.Registry) {
	latency := reg.Histogram("udr_poa_op_latency_seconds",
		"Per-operation latency through a site's point of access.", "site")
	u.mu.RLock()
	poas := make(map[string]*AccessPoint, len(u.poas))
	for site, poa := range u.poas {
		poas[site] = poa
	}
	u.mu.RUnlock()
	for site, poa := range poas {
		latency.Attach(&poa.Latency, site)
	}

	// Quorum ack-wait latency: recorded by the master's commit
	// pipeline when Quorum durability is active. Attached on every
	// replica so a promoted slave's histogram is already bound.
	ackWait := reg.Histogram("udr_replication_quorum_ack_wait_seconds",
		"Time a Quorum-durability commit waited for its quorum of acknowledgements.",
		"site", "element", "partition")
	for _, el := range u.elementsSnapshot() {
		for _, partID := range el.Partitions() {
			if pr := el.Replica(partID); pr != nil {
				ackWait.Attach(&pr.Repl.AckWait, el.Site(), el.ID(), partID)
			}
		}
	}

	reg.Counter("udr_net_messages_total",
		"Simulated-network delivery attempts.").Attach(&u.net.Messages)
	reg.Counter("udr_net_drops_total",
		"Simulated-network messages lost to link loss, partitions or down endpoints.").Attach(&u.net.Drops)
}

// registerCollectors installs the gather-time collectors for every
// topology-scoped family. Called once per registry.
func (u *UDR) registerCollectors(reg *metrics.Registry) {
	// Storage-element client-operation counters.
	reg.Counter("udr_se_reads_total",
		"Client read operations served by a storage element.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			emit(float64(el.Reads.Value()), el.Site(), el.ID())
		}
	})
	reg.Counter("udr_se_writes_total",
		"Client write operations served by a storage element.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			emit(float64(el.Writes.Value()), el.Site(), el.ID())
		}
	})
	reg.Counter("udr_se_snapshots_total",
		"Completed WAL-compaction snapshot passes.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			emit(float64(el.Checkpoints.Value()), el.Site(), el.ID())
		}
	})

	// WAL group-commit amortization: appends, fsyncs and the ratio.
	walStats := func(el *se.Element) (appends, syncs uint64) {
		for _, partID := range el.Partitions() {
			if pr := el.Replica(partID); pr != nil && pr.Log != nil {
				appends += pr.Log.Appends()
				syncs += pr.Log.Syncs()
			}
		}
		return
	}
	reg.Counter("udr_wal_appends_total",
		"Commit records staged to the write-ahead logs of an element.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			a, _ := walStats(el)
			emit(float64(a), el.Site(), el.ID())
		}
	})
	reg.Counter("udr_wal_fsyncs_total",
		"fsyncs issued by the write-ahead logs of an element.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			_, s := walStats(el)
			emit(float64(s), el.Site(), el.ID())
		}
	})
	reg.Gauge("udr_wal_fsyncs_per_commit",
		"fsyncs divided by staged commit records: the group-commit amortization ratio (1 = no coalescing).",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			a, s := walStats(el)
			ratio := 0.0
			if a > 0 {
				ratio = float64(s) / float64(a)
			}
			emit(ratio, el.Site(), el.ID())
		}
	})

	// Incremental checkpoint activity, per partition replica: pass
	// count, last image size/watermark/duration, and the on-disk
	// segment count (whose growth means checkpointing is falling
	// behind log production).
	type ckptStat struct {
		name, help string
		gauge      bool
		value      func(cs wal.CheckpointStats) float64
	}
	for _, c := range []ckptStat{
		{"udr_wal_checkpoints_total",
			"Incremental checkpoints completed by a partition replica's WAL.",
			false, func(cs wal.CheckpointStats) float64 { return float64(cs.Checkpoints) }},
		{"udr_wal_checkpoint_duration_seconds",
			"Wall time of the last completed checkpoint pass.",
			true, func(cs wal.CheckpointStats) float64 { return cs.LastDuration.Seconds() }},
		{"udr_wal_checkpoint_bytes",
			"Size of the last checkpoint image on disk.",
			true, func(cs wal.CheckpointStats) float64 { return float64(cs.LastBytes) }},
		{"udr_wal_checkpoint_rows",
			"Rows captured by the last checkpoint image.",
			true, func(cs wal.CheckpointStats) float64 { return float64(cs.LastRows) }},
		{"udr_wal_checkpoint_csn",
			"Commit watermark covered by the last checkpoint image.",
			true, func(cs wal.CheckpointStats) float64 { return float64(cs.LastCSN) }},
		{"udr_wal_segments",
			"Log segment files on disk, including the active one.",
			true, func(cs wal.CheckpointStats) float64 { return float64(cs.Segments) }},
	} {
		c := c
		collect := func(emit metrics.Emit) {
			for _, el := range u.elementsSnapshot() {
				for _, partID := range el.Partitions() {
					if pr := el.Replica(partID); pr != nil && pr.Log != nil {
						emit(c.value(pr.Log.CheckpointStats()), el.Site(), el.ID(), partID)
					}
				}
			}
		}
		if c.gauge {
			reg.Gauge(c.name, c.help, "site", "element", "partition").Collect(collect)
		} else {
			reg.Counter(c.name, c.help, "site", "element", "partition").Collect(collect)
		}
	}

	// Replication shipping: per-partition counters on the mastering
	// element, per-peer queue depth and lag.
	reg.Counter("udr_replication_shipped_total",
		"Commit records handed to a master replica's background senders.",
		"site", "element", "partition").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				if pr := el.Replica(partID); pr != nil && pr.Store.Role() == store.Master {
					emit(float64(pr.Repl.Shipped.Value()), el.Site(), el.ID(), partID)
				}
			}
		}
	})
	reg.Counter("udr_replication_conflicts_total",
		"Concurrent-write conflicts resolved in multi-master mode.",
		"site", "element", "partition").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				if pr := el.Replica(partID); pr != nil {
					emit(float64(pr.Repl.Conflicts.Value()), el.Site(), el.ID(), partID)
				}
			}
		}
	})
	reg.Gauge("udr_replication_queue_depth",
		"Commit records awaiting shipment to a replication peer.",
		"site", "element", "partition", "peer").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				pr := el.Replica(partID)
				if pr == nil || pr.Store.Role() != store.Master {
					continue
				}
				for _, st := range pr.Repl.SenderStats() {
					emit(float64(st.QueueDepth), el.Site(), el.ID(), partID, string(st.Peer))
				}
			}
		}
	})
	reg.Gauge("udr_replication_lag_records",
		"Master CSN minus the peer's acknowledged CSN: shipped-batch lag in commit records.",
		"site", "element", "partition", "peer").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				pr := el.Replica(partID)
				if pr == nil || pr.Store.Role() != store.Master {
					continue
				}
				csn := pr.Store.CSN()
				for _, st := range pr.Repl.SenderStats() {
					lag := uint64(0)
					if csn > st.AckedCSN {
						lag = csn - st.AckedCSN
					}
					emit(float64(lag), el.Site(), el.ID(), partID, string(st.Peer))
				}
			}
		}
	})

	// Quorum durability: the configured quorum size on masters running
	// at Quorum level, and per-peer commit records still pending behind
	// the quorum watermark (stragglers catching up asynchronously).
	reg.Gauge("udr_replication_quorum_size",
		"Copies (master included) a Quorum-durability commit must reach before acknowledging.",
		"site", "element", "partition").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				pr := el.Replica(partID)
				if pr == nil || pr.Store.Role() != store.Master ||
					pr.Repl.Durability() != replication.Quorum {
					continue
				}
				emit(float64(pr.Repl.QuorumSize()), el.Site(), el.ID(), partID)
			}
		}
	})
	reg.Gauge("udr_replication_acks_pending",
		"Commit records a peer still has to acknowledge to reach the master's quorum watermark.",
		"site", "element", "partition", "peer").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				pr := el.Replica(partID)
				if pr == nil || pr.Store.Role() != store.Master {
					continue
				}
				for peer, pending := range pr.Repl.WatermarkLag() {
					emit(float64(pending), el.Site(), el.ID(), partID, string(peer))
				}
			}
		}
	})

	// Anti-entropy repair progress (master-side repairers plus the
	// slave-side repair server).
	type aeCount struct {
		name, help string
		value      func(el *se.Element) int64
	}
	for _, c := range []aeCount{
		{"udr_antientropy_rounds_total",
			"Anti-entropy repair rounds run by an element's repairers.",
			func(el *se.Element) (n int64) {
				for _, p := range el.Partitions() {
					if r := el.Repairer(p); r != nil {
						n += r.Rounds.Value()
					}
				}
				return
			}},
		{"udr_antientropy_insync_rounds_total",
			"Repair rounds that ended at the root digest comparison (replicas already in sync).",
			func(el *se.Element) (n int64) {
				for _, p := range el.Partitions() {
					if r := el.Repairer(p); r != nil {
						n += r.InSyncRounds.Value()
					}
				}
				return
			}},
		{"udr_antientropy_rows_shipped_total",
			"Divergent rows shipped to peers by repair rounds.",
			func(el *se.Element) (n int64) {
				for _, p := range el.Partitions() {
					if r := el.Repairer(p); r != nil {
						n += r.RowsShipped.Value()
					}
				}
				return
			}},
		{"udr_antientropy_rows_pulled_total",
			"Divergent rows pulled from peers by repair rounds.",
			func(el *se.Element) (n int64) {
				for _, p := range el.Partitions() {
					if r := el.Repairer(p); r != nil {
						n += r.RowsPulled.Value()
					}
				}
				return
			}},
		{"udr_antientropy_rows_repaired_total",
			"Incoming repair rows that changed a local row (slave-side repair server).",
			func(el *se.Element) int64 {
				if p := el.AntiEntropyPeer(); p != nil {
					return p.RowsRepaired.Value()
				}
				return 0
			}},
	} {
		c := c
		reg.Counter(c.name, c.help, "site", "element").Collect(func(emit metrics.Emit) {
			for _, el := range u.elementsSnapshot() {
				emit(float64(c.value(el)), el.Site(), el.ID())
			}
		})
	}

	// Migration progress: per-element transfer counters plus the
	// in-flight phase gauge (phase numbers follow rebalance.Phase:
	// 1=copy, 2=catch-up, 3=cutover).
	reg.Counter("udr_rebalance_rows_received_total",
		"Partition rows received by an element acting as migration target.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			emit(float64(el.RebalancePeer().RowsReceived.Value()), el.Site(), el.ID())
		}
	})
	reg.Counter("udr_rebalance_batches_received_total",
		"Bulk-copy batches received by an element acting as migration target.",
		"site", "element").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			emit(float64(el.RebalancePeer().Batches.Value()), el.Site(), el.ID())
		}
	})
	reg.Gauge("udr_migration_phase",
		"Phase of an in-flight partition migration (1=copy, 2=catch-up, 3=cutover); absent when no move is in flight.",
		"partition").Collect(func(emit metrics.Emit) {
		for part, phase := range u.MigrationsInFlight() {
			emit(float64(int(phase)), part)
		}
	})
	reg.Gauge("udr_migrations_in_flight",
		"Number of partition migrations currently executing.").Collect(func(emit metrics.Emit) {
		emit(float64(len(u.MigrationsInFlight())))
	})

	// Partition table: placement epochs and per-replica row counts.
	reg.Gauge("udr_placement_epoch",
		"Placement epoch of a partition (bumps on failover and migration cutover).",
		"partition").Collect(func(emit metrics.Emit) {
		for _, partID := range u.Partitions() {
			if part, ok := u.Partition(partID); ok {
				emit(float64(part.Epoch), partID)
			}
		}
	})
	reg.Gauge("udr_partition_rows",
		"Rows held by one partition replica.",
		"site", "element", "partition", "role").Collect(func(emit metrics.Emit) {
		for _, el := range u.elementsSnapshot() {
			for _, partID := range el.Partitions() {
				if pr := el.Replica(partID); pr != nil {
					emit(float64(pr.Store.Len()), el.Site(), el.ID(), partID, pr.Store.Role().String())
				}
			}
		}
	})

	// FE/PoA subscriber read cache: hit ratio, churn and the two
	// invalidation streams (replication CSN advance vs placement-epoch
	// bump). Families are always registered; sites without a cache
	// simply emit no samples.
	reg.Counter("udr_fe_cache_hits_total",
		"Reads served from a site's FE/PoA subscriber cache.",
		"site").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.Hits), s.Site)
		}
	})
	reg.Counter("udr_fe_cache_misses_total",
		"Cacheable reads that fell through to the storage elements.",
		"site").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.Misses), s.Site)
		}
	})
	reg.Counter("udr_fe_cache_evictions_total",
		"Entries dropped from a site's FE/PoA cache by the LRU capacity bound.",
		"site").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.Evictions), s.Site)
		}
	})
	reg.Counter("udr_fe_cache_invalidations_total",
		"Cache entries invalidated, by reason: csn (refreshed in place by the replication stream) or epoch (guarded after a failover/migration epoch bump).",
		"site", "reason").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.InvalidationsCSN), s.Site, "csn")
			emit(float64(s.InvalidationsEpoch), s.Site, "epoch")
		}
	})
	reg.Counter("udr_fe_cache_stale_rejects_total",
		"Slave read responses rejected for carrying a CSN below the key's per-PoA staleness floor.",
		"site").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.StaleRejects), s.Site)
		}
	})
	reg.Gauge("udr_fe_cache_entries",
		"Entries resident in a site's FE/PoA subscriber cache.",
		"site").Collect(func(emit metrics.Emit) {
		for _, s := range u.CacheStats() {
			emit(float64(s.Entries), s.Site)
		}
	})

	// PoA service outcomes and location-stage lookups.
	reg.Counter("udr_poa_ops_total",
		"Operations through a site's point of access by outcome.",
		"site", "outcome").Collect(func(emit metrics.Emit) {
		u.mu.RLock()
		poas := make(map[string]*AccessPoint, len(u.poas))
		for site, poa := range u.poas {
			poas[site] = poa
		}
		u.mu.RUnlock()
		for site, poa := range poas {
			emit(float64(poa.Served.Value()), site, "served")
			emit(float64(poa.Failed.Value()), site, "failed")
		}
	})
	reg.Counter("udr_locator_lookups_total",
		"Identity lookups against a site's data location stage by result.",
		"site", "result").Collect(func(emit metrics.Emit) {
		for site, st := range u.stageSnapshot() {
			emit(float64(st.Hits.Value()), site, "hit")
			emit(float64(st.Misses.Value()), site, "miss")
		}
	})
	reg.Counter("udr_locator_fanout_queries_total",
		"Storage-element queries issued by cached-locator miss resolution.",
		"site").Collect(func(emit metrics.Emit) {
		for site, st := range u.stageSnapshot() {
			emit(float64(st.FanOutQueries.Value()), site)
		}
	})
	// The identity map's size is the per-site cost of state-full
	// location maps (§3.4).
	reg.Gauge("udr_locator_map_entries",
		"Identity mappings held by a site's data location stage.",
		"site").Collect(func(emit metrics.Emit) {
		for site, st := range u.stageSnapshot() {
			emit(float64(st.Len()), site)
		}
	})
	reg.Gauge("udr_locator_map_bytes",
		"Heap bytes held by a site's identity map: table slots, key arena and handle tables.",
		"site").Collect(func(emit metrics.Emit) {
		for site, st := range u.stageSnapshot() {
			emit(float64(st.MapStats().Bytes), site)
		}
	})

	// Request-tracing recorder activity. Families exist (at zero)
	// even when tracing is disabled so dashboards need not special-
	// case; trace.Recorder.Stats tolerates a nil receiver.
	reg.Counter("udr_trace_spans_total",
		"Spans recorded into the trace ring (head- or tail-sampled).").Collect(func(emit metrics.Emit) {
		emit(float64(u.cfg.Trace.Stats().Spans))
	})
	reg.Counter("udr_trace_sampled_total",
		"Traces selected by the head sampler.").Collect(func(emit metrics.Emit) {
		emit(float64(u.cfg.Trace.Stats().Sampled))
	})
	reg.Counter("udr_trace_dropped_total",
		"Buffered spans overwritten before being read.").Collect(func(emit metrics.Emit) {
		emit(float64(u.cfg.Trace.Stats().Dropped))
	})
}

// stageSnapshot copies the site → location stage map so collectors
// read the stages without holding u.mu.
func (u *UDR) stageSnapshot() map[string]*locator.Stage {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return maps.Clone(u.stages)
}
