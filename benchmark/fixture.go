package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/subscriber"
	"repro/internal/wal"
)

// clientSite is where the benchmark's front-end sits. Named
// explicitly: u.Sites() is sorted, so Sites()[0] is "americas".
const clientSite = "eu-south"

// front selects how a workload's clients reach the UDR.
type front int

const (
	frontSession       front = iota // in-process Session.Exec (co-located FE)
	frontLDAPSerial                 // ldap.Client over loopback TCP, 1 in flight
	frontLDAPPipelined              // benchmark-owned client, several in flight
)

// workload is one traffic mix and the fixture it runs on. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// wan selects the commit_quorum_wan fixture: small population,
	// injected WAN delays, WAL with fsync per commit, quorum commits.
	wan      bool
	front    front
	clients  int
	inflight int // requests in flight per client (frontLDAPPipelined)
	zipf     bool
	writePct int
	subs     int // population seeded
	warm     int // warm-up operations per client, part of set-up
	ladder   int // ladder samples per rung
}

var workloads = []workload{
	{name: "ldap_serial", front: frontLDAPSerial, clients: 2, inflight: 1, writePct: 10,
		subs: 100_000, warm: 4_000, ladder: 5_000},
	{name: "ldap_pipelined", front: frontLDAPPipelined, clients: 2, inflight: 8, writePct: 10,
		subs: 100_000, warm: 4_000, ladder: 5_000},
	{name: "session_uniform", front: frontSession, clients: 2, inflight: 1,
		subs: 100_000, warm: 20_000, ladder: 5_000},
	{name: "session_zipf_mix", front: frontSession, clients: 2, inflight: 1, zipf: true, writePct: 10,
		subs: 100_000, warm: 20_000, ladder: 5_000},
	{name: "commit_quorum_wan", wan: true, front: frontSession, clients: 4, inflight: 1, writePct: 100,
		subs: 3_000, warm: 500, ladder: 400},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// params are the run's sizes that do not belong to a workload. The
// command line runs defaults(); the tests shrink them.
type params struct {
	setups     int           // fixture builds per untraced run (setup_s is their median)
	verifyKeys int           // written keys read back after the measured window
	window     time.Duration // throughput window
	spanCap    int           // stream spans kept per client in a traced run
	tmpDir     string        // parent of WAL directories; inside the checkout
}

func defaults() params {
	return params{setups: 3, verifyKeys: 1_000, window: time.Second, spanCap: 100_000,
		tmpDir: ".bench_build/tmp"}
}

// subRef is all the driver keeps per subscriber: the strings requests
// are built from, not the profile.
type subRef struct {
	id, msisdn, dn string
}

// fixture is one built system: the three-site UDR, its seeded
// population, and the front-end plumbing the clients use.
type fixture struct {
	wl   *workload
	p    params
	net  *simnet.Network
	u    *core.UDR
	subs []subRef
	// targets indexes subs: the keys the op stream draws from.
	targets []int32
	sess    *core.Session
	backend *core.LDAPBackend

	ldapSrv  *ldap.Server // nil until ldap() starts it
	ldapAddr string

	walDir string
	// rtts are the injected round trips from clientSite to the other
	// sites, sorted (nil on the zero-latency fixtures).
	rtts []time.Duration
}

// wanSpec is the commit_quorum_wan topology: eu-north is a metro hop
// from the client site, americas a continental one from both.
func wanSpec() simnet.WANSpec {
	return simnet.WANSpec{
		Default: simnet.Metro,
		Overrides: []simnet.WANPair{
			{A: clientSite, B: "americas", Profile: simnet.Continental},
			{A: "eu-north", B: "americas", Profile: simnet.Continental},
		},
	}
}

// buildFixture builds the UDR as udrd runs it (FE cache and slave load
// balancing on, FE policy), seeds it and waits for replication.
func buildFixture(wl *workload, p params, seed int64) (*fixture, error) {
	fx := &fixture{wl: wl, p: p}
	cfg := core.DefaultConfig()
	cfg.FECache = true
	cfg.FECacheSlaveLB = true
	netCfg := simnet.Config{Seed: seed}
	if wl.wan {
		netCfg = simnet.FastConfig()
		netCfg.Seed = seed
		if err := os.MkdirAll(p.tmpDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(p.tmpDir, "wal-")
		if err != nil {
			return nil, err
		}
		fx.walDir = dir
		cfg.WALDir = dir
		cfg.WALMode = wal.SyncEveryCommit
		cfg.Durability = replication.Quorum
	}
	fx.net = simnet.New(netCfg)
	u, err := core.New(fx.net, cfg)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.u = u
	if wl.wan {
		if err := fx.net.ApplyWAN(wanSpec()); err != nil {
			fx.close()
			return nil, err
		}
		fx.rtts = fx.net.ReplicaRTTs(clientSite, "eu-north", "americas")
	}
	if err := fx.seed(wl.subs); err != nil {
		fx.close()
		return nil, err
	}
	fx.sess = core.NewSession(fx.net, simnet.MakeAddr(clientSite, "bench-fe"), clientSite, core.PolicyFE)
	fx.sess.AttachCache(u.PoA(clientSite).Cache())
	fx.backend = core.NewLDAPBackend(fx.sess).WithTopology(u)
	if wl.front != frontSession {
		if _, err := fx.ldap(); err != nil {
			fx.close()
			return nil, err
		}
	}
	return fx, nil
}

// seed loads n generated subscribers. On the WAN fixture every seeding
// commit pays an fsync and a quorum round trip, so seeding runs on
// several goroutines and the commits share both.
func (fx *fixture) seed(n int) error {
	gen := subscriber.NewGenerator(fx.u.Sites()...)
	fx.subs = make([]subRef, n)
	workers := 1
	if fx.wl.wan {
		workers = 32
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < n; i += workers {
				prof := gen.Profile(i)
				if err := fx.u.SeedDirect(prof); err != nil {
					errs <- fmt.Errorf("seeding subscriber %d: %w", i, err)
					return
				}
				fx.subs[i] = subRef{id: prof.ID, msisdn: prof.MSISDNVal, dn: subscriber.DN(prof.ID)}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	// The WAN workload targets only subscribers homed — and therefore
	// mastered — at the client site, so every commit's nearest replica
	// is the metro hop.
	sites := fx.u.Sites()
	for i := range fx.subs {
		if !fx.wl.wan || sites[i%len(sites)] == clientSite {
			fx.targets = append(fx.targets, int32(i))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return fx.u.WaitReplication(ctx)
}

// ldap starts the in-process LDAP server on a loopback port on first
// use and returns its address.
func (fx *fixture) ldap() (string, error) {
	if fx.ldapSrv == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		fx.ldapSrv = ldap.NewServer(fx.backend)
		fx.ldapAddr = ln.Addr().String()
		go func() { _ = fx.ldapSrv.Serve(ln) }()
	}
	return fx.ldapAddr, nil
}

// target returns the subscriber behind a stream target.
func (fx *fixture) target(t int) *subRef { return &fx.subs[fx.targets[t]] }

func (fx *fixture) close() {
	if fx.ldapSrv != nil {
		fx.ldapSrv.Close()
	}
	if fx.u != nil {
		fx.u.Stop()
	}
	if fx.walDir != "" {
		_ = os.RemoveAll(fx.walDir)
	}
}
