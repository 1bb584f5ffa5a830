package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/subscriber"
)

// sizes returns the population scale for an experiment.
func sizes(opts Options) (subs, ops int) {
	if opts.Quick {
		return 30, 60
	}
	return 300, 600
}

// netConfig returns the experiment network: measurable local-vs-
// backbone asymmetry at a compressed scale (paper backbone one-way
// delays of tens of ms are scaled ~10x down; reports note the
// scale).
func netConfig(opts Options) simnet.Config {
	cfg := simnet.Config{
		Local:    simnet.Link{Latency: 30 * time.Microsecond, Timeout: 4 * time.Millisecond},
		Backbone: simnet.Link{Latency: 3 * time.Millisecond, Timeout: 12 * time.Millisecond},
		Seed:     opts.Seed + 1,
	}
	if opts.Quick {
		cfg.Local.Latency = 20 * time.Microsecond
		cfg.Backbone.Latency = 2 * time.Millisecond
		cfg.Backbone.Timeout = 8 * time.Millisecond
	}
	return cfg
}

// buildUDR builds a three-site Figure 2 UDR and seeds subs
// subscribers round-robin across the regions.
func buildUDR(opts Options, subs int, mutate ...func(*core.Config)) (*simnet.Network, *core.UDR, []*subscriber.Profile, error) {
	net := simnet.New(netConfig(opts))
	cfg := core.DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	u, err := core.New(net, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	gen := subscriber.NewGenerator(u.Sites()...)
	profiles := make([]*subscriber.Profile, 0, subs)
	for i := 0; i < subs; i++ {
		p := gen.Profile(i)
		if err := u.SeedDirect(p); err != nil {
			u.Stop()
			return nil, nil, nil, err
		}
		profiles = append(profiles, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := u.WaitReplication(ctx); err != nil {
		u.Stop()
		return nil, nil, nil, err
	}
	return net, u, profiles, nil
}

// feSession returns an FE-policy session at the given site.
func feSession(net *simnet.Network, site string) *core.Session {
	return core.NewSession(net, simnet.MakeAddr(site, "fe-exp"), site, core.PolicyFE)
}

// psSession returns a PS-policy session at the given site.
func psSession(net *simnet.Network, site string) *core.Session {
	return core.NewSession(net, simnet.MakeAddr(site, "ps-exp"), site, core.PolicyPS)
}

func pct(n, total int) string {
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}
