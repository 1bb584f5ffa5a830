package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/workload"
)

func init() {
	register("E22", "FE read cache: hot-key (Zipfian) throughput and tail latency vs read-through",
		"§2.3, §3.3.2 (FE read path; caching extension)", runE22)
}

// runE22 measures what the PoA subscriber cache buys on the paper's
// busy-hour traffic shape: Zipfian hot-key reads, read-mostly. Each
// cell drives the same seeded request stream through one FE session
// with the cache off and on, and reports throughput, latency
// percentiles and the hit rate. A hit skips both network legs
// (client→PoA and PoA→SE) entirely, so the cached s=1.1 cells run
// several times faster; that ratio is printed, not gated, because it
// is a wall-clock figure. What is gated is exact, from the elements'
// read counters: only misses and writes reach an SE.
func runE22(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E22", "FE read cache: hot-key (Zipfian) throughput and tail latency vs read-through")

	subs, ops := 200, 2400
	if !opts.Quick {
		subs, ops = 500, 8000
	}

	type cellCfg struct {
		dist     workload.KeyDist
		writePct int
	}
	cells := []cellCfg{
		{workload.Uniform{}, 0},
		{workload.Zipfian{S: 1.1}, 0},
		{workload.Zipfian{S: 1.1}, 10},
	}

	rep.AddRow("profile", "writes", "cache", "ops/s", "p50", "p99", "hit-rate")
	results := make(map[string]e22Result)

	for _, cell := range cells {
		for _, cached := range []bool{false, true} {
			m, err := e22Cell(ctx, opts, subs, ops, cell.dist, cell.writePct, cached)
			if err != nil {
				return nil, fmt.Errorf("e22: %s writes=%d%% cache=%t: %w",
					cell.dist.Name(), cell.writePct, cached, err)
			}
			label := "off"
			hit := "n/a"
			if cached {
				label = "on"
				hit = fmt.Sprintf("%.1f%%", 100*m.hitRate)
			}
			rep.AddRow(cell.dist.Name(), fmt.Sprintf("%d%%", cell.writePct), label,
				fmt.Sprintf("%.0f", m.opsPerSec),
				(time.Duration(m.p50) * time.Nanosecond).Round(100*time.Nanosecond).String(),
				(time.Duration(m.p99) * time.Nanosecond).Round(time.Microsecond).String(),
				hit)
			results[fmt.Sprintf("%s/%d/%t", cell.dist.Name(), cell.writePct, cached)] = m
		}
	}

	hot := results["zipf-s1.10/0/true"]
	cold := results["zipf-s1.10/0/false"]
	mixedHot := results["zipf-s1.10/10/true"]
	mixedCold := results["zipf-s1.10/10/false"]
	rep.AddRow("zipf-s1.10 0%: SE reads", fmt.Sprintf("off %d", cold.seReads),
		fmt.Sprintf("on %d", hot.seReads), fmt.Sprintf("cache misses %d", hot.misses))
	rep.AddRow("zipf-s1.10 10%: SE reads", fmt.Sprintf("off %d", mixedCold.seReads),
		fmt.Sprintf("on %d", mixedHot.seReads), fmt.Sprintf("cache misses %d", mixedHot.misses))
	// Throughput ratios are wall-clock figures: printed, not gated.
	rep.AddRow("zipf-s1.10: on/off ops/s", fmt.Sprintf("0%% %.1fx", hot.opsPerSec/cold.opsPerSec),
		fmt.Sprintf("10%% %.1fx", mixedHot.opsPerSec/mixedCold.opsPerSec))
	// Writes are counted apart (se.Element.Writes), so on this
	// read-only cell every SE read is a cache miss.
	rep.Check("cached SE reads = cache misses + writes sent",
		hot.seReads == hot.misses+hot.writes && hot.writes == 0)
	rep.Check("cached SE reads ≤ (1 − hit rate + 0.01) × read-through SE reads",
		cold.seReads > 0 && float64(hot.seReads) <= (1-hot.hitRate+0.01)*float64(cold.seReads))
	rep.Check("10%-write mix: cached SE reads ≤ (1 − hit rate + 0.01) × read-through SE reads",
		mixedCold.seReads > 0 && float64(mixedHot.seReads) <= (1-mixedHot.hitRate+0.01)*float64(mixedCold.seReads))
	rep.Check("hot-key hit rate ≥90%", hot.hitRate >= 0.9)
	rep.Note("one FE session at the home PoA; a hit costs a sharded-LRU probe in-process, a miss pays client→PoA→SE; writes ride the master path and write through the cache")
	rep.Note("network scale ~10x compressed (local one-way %v); the paper-scale gap is larger, not smaller", netConfig(opts).Local.Latency)
	return rep, nil
}

// e22Result is one cell's measurement. seReads counts the read
// operations the elements served for the cell's stream, misses the
// cache misses (zero uncached) and writes the writes the stream sent.
type e22Result struct {
	opsPerSec, p50, p99, hitRate float64
	seReads, misses, writes      int64
}

// e22Cell drives one seeded request stream and measures it.
func e22Cell(ctx context.Context, opts Options, subs, ops int,
	dist workload.KeyDist, writePct int, cached bool) (e22Result, error) {
	var out e22Result
	net, u, profiles, err := buildUDR(opts, subs, func(cfg *core.Config) {
		cfg.FECache = cached
		cfg.FECacheSlaveLB = cached
	})
	if err != nil {
		return out, err
	}
	defer u.Stop()

	site := u.Sites()[0]
	sess := core.NewSession(net, simnet.MakeAddr(site, "e22-fe"), site, core.PolicyFE)
	if cached {
		sess.AttachCache(u.PoA(site).Cache())
	}
	r := rand.New(rand.NewSource(opts.Seed + 22))
	pick := dist.Picker(r, len(profiles))

	seReads := func() (n int64) {
		for _, id := range u.Elements() {
			n += u.Element(id).Reads.Value()
		}
		return n
	}
	reads0 := seReads()
	hits0, misses0 := e22CacheStats(u, site)
	lat := make([]float64, 0, ops)
	start := time.Now()
	for i := 0; i < ops; i++ {
		p := profiles[pick()]
		var err error
		t0 := time.Now()
		if writePct > 0 && i%100 < writePct {
			out.writes++
			_, err = sess.Exec(ctx, core.ExecReq{
				Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
				Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
					Kind: store.ModReplace, Attr: subscriber.AttrArea, Vals: []string{"e22"},
				}}}},
			})
		} else {
			_, err = sess.Exec(ctx, core.ExecReq{
				Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal},
				Ops:      []se.TxnOp{{Kind: se.TxnGet}},
			})
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return out, err
		}
	}
	elapsed := time.Since(start)

	sort.Float64s(lat)
	out.opsPerSec = float64(ops) / elapsed.Seconds()
	out.p50 = lat[len(lat)*50/100]
	out.p99 = lat[len(lat)*99/100]
	out.seReads = seReads() - reads0
	hits, misses := e22CacheStats(u, site)
	out.misses = int64(misses - misses0)
	if n := hits - hits0 + misses - misses0; n > 0 {
		out.hitRate = float64(hits-hits0) / float64(n)
	}
	return out, nil
}

// e22CacheStats returns the site cache's hit and miss counters (zero
// when the UDR runs without the cache).
func e22CacheStats(u *core.UDR, site string) (hits, misses uint64) {
	for _, cs := range u.CacheStats() {
		if cs.Site == site {
			return cs.Hits, cs.Misses
		}
	}
	return 0, 0
}
