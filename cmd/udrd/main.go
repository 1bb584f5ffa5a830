// Command udrd runs a User Data Repository network function and
// serves its UDC-mandated LDAP northbound interface over TCP.
//
// The UDR (three sites by default, the paper's Figure 2 layout) runs
// in-process over the simulated multi-national backbone; the LDAP
// listener bridges real TCP clients onto a PoA session. Seed
// subscribers with -subs, pick the served PoA with -poa-site, and
// point cmd/udrctl or cmd/provision at the listener.
//
// With -admin, udrd also serves an operations HTTP listener:
// GET /metrics (Prometheus text exposition), GET /healthz,
// net/http/pprof under /debug/pprof/, and the control operations as
// JSON — GET /status (topology, placement epochs, replication lag),
// GET /trace/{recent,slow,<id>} and POST /admin/{repair,move,
// rebalance}. Those are the same operations, with the same error
// classes and admin deadline, that udrctl reaches over the LDAP
// listener's extended operations.
//
// Usage:
//
//	udrd -addr :3890 -subs 1000 -admin :9100
//	udrd -sites eu-south,eu-north,americas -poa-site americas -policy fe
//	udrd -durability quorum -quorum-policy site:1+1
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/subscriber"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("udrd: %v", err)
	}
}

// run owns the daemon lifecycle so every shutdown path — signal,
// listener failure, seeding error — flows through one exit and the
// deferred teardown runs in order: admin listener first, then the
// LDAP server, then the UDR itself.
func run() error {
	var (
		addr     = flag.String("addr", ":3890", "TCP listen address for the LDAP interface")
		adminAdr = flag.String("admin", "", "TCP listen address for the admin HTTP interface (metrics, status, pprof); empty disables")
		sites    = flag.String("sites", "eu-south,eu-north,americas", "comma-separated site names")
		sesPer   = flag.Int("se-per-site", 1, "storage elements per site")
		rf       = flag.Int("rf", 3, "replication factor (copies per partition)")
		subs     = flag.Int("subs", 100, "synthetic subscribers to seed")
		poaSite  = flag.String("poa-site", "", "site whose PoA serves the LDAP interface (default: first site)")
		policy   = flag.String("policy", "ps", "session policy behind the LDAP interface: fe or ps")
		walDir   = flag.String("wal-dir", "", "enable disk persistence under this directory")
		walSync  = flag.Bool("wal-sync", false, "fsync every commit (dump-before-commit durability, group-committed)")
		ckptIv   = flag.Duration("checkpoint-interval", 0, "incremental WAL checkpoint cadence (0 disables; requires -wal-dir)")
		multiMas = flag.Bool("multi-master", false, "enable §5 multi-master mode")
		antiEnt  = flag.Bool("anti-entropy", true, "enable Merkle-digest replica repair")
		repairIv = flag.Duration("repair-interval", 2*time.Second, "periodic anti-entropy repair cadence")
		feCache  = flag.Bool("fe-cache", true, "enable the FE/PoA subscriber read cache")
		feCacheN = flag.Int("fe-cache-size", 0, "FE cache capacity in entries per site (0 = default)")
		durab    = flag.String("durability", "async", "commit durability: async, dual-seq, quorum or sync-all")
		quorumP  = flag.String("quorum-policy", "majority", "quorum shape under -durability quorum: majority, k=N or site:L+R")
		trSample = flag.Float64("trace-sample", 1.0/64, "request-trace head-sampling probability in [0,1]; 0 keeps only tail samples, negative disables tracing")
		trSlow   = flag.Duration("trace-slow", 0, "tail-sample requests slower than this (0 = default 25ms, negative disables tail sampling)")
		trBuf    = flag.Int("trace-buf", 0, "buffered trace spans across all rings (0 = default)")
	)
	flag.Parse()

	durability, err := replication.ParseDurability(*durab)
	if err != nil {
		return err
	}
	qpol, err := replication.ParseQuorumPolicy(*quorumP)
	if err != nil {
		return err
	}

	siteNames := strings.Split(*sites, ",")
	cfg := core.Config{
		ReplicationFactor: *rf, MultiMaster: *multiMas,
		WALDir: *walDir, CheckpointInterval: *ckptIv,
		AntiEntropy: *antiEnt, RepairInterval: *repairIv,
		FECache: *feCache, FECacheCapacity: *feCacheN, FECacheSlaveLB: *feCache,
		Durability: durability, QuorumPolicy: qpol,
	}
	if *walSync {
		cfg.WALMode = wal.SyncEveryCommit
	}
	var tracer *trace.Recorder
	if *trSample >= 0 {
		rate := *trSample
		if rate == 0 {
			rate = -1 // head sampling off; tail sampling still runs
		}
		tracer = trace.New(trace.Config{SampleRate: rate, SlowThreshold: *trSlow, Capacity: *trBuf})
		cfg.Trace = tracer
	}
	for _, s := range siteNames {
		cfg.Sites = append(cfg.Sites, core.SiteSpec{Name: strings.TrimSpace(s), SEs: *sesPer, PartitionsPerSE: 1})
	}

	network := simnet.New(simnet.DefaultConfig())
	u, err := core.New(network, cfg)
	if err != nil {
		return err
	}
	defer u.Stop()
	start := time.Now()
	// Registered after u.Stop's defer, so the summary reads the
	// counters while the topology is still up, on every exit path.
	defer func() { fmt.Println(summary(u, tracer, time.Since(start))) }()

	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < *subs; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			return fmt.Errorf("seeding subscriber %d: %w", i, err)
		}
	}

	served := *poaSite
	if served == "" {
		served = u.Sites()[0]
	}
	pol := core.PolicyPS
	if strings.EqualFold(*policy, "fe") {
		pol = core.PolicyFE
	}
	session := core.NewSession(network, simnet.MakeAddr(served, "ldap-bridge"), served, pol)
	if c := u.PoA(served).Cache(); c != nil {
		session.AttachCache(c)
	}
	if tracer != nil {
		session.AttachTracer(tracer)
	}
	server := ldap.NewServer(core.NewLDAPBackend(session).WithTopology(u))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer server.Close()
	defer ln.Close()

	// serveErr carries fatal listener failures back onto the main
	// goroutine so they are logged and torn down like a signal.
	serveErr := make(chan error, 2)
	go func() { serveErr <- fmt.Errorf("ldap server: %w", server.Serve(ln)) }()

	if *adminAdr != "" {
		reg := metrics.NewRegistry()
		u.RegisterMetrics(reg)
		admin := obs.NewServer(obs.Config{Registry: reg, UDR: u})
		adminLn, err := net.Listen("tcp", *adminAdr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		defer admin.Close()
		go func() {
			if err := admin.Serve(adminLn); err != nil {
				serveErr <- fmt.Errorf("admin server: %w", err)
			}
		}()
		fmt.Printf("udrd: admin HTTP (metrics, status, pprof) on %s\n", adminLn.Addr())
	}

	fmt.Printf("udrd: UDR NF up — %d sites, %d partitions, %d elements, RF=%d, durability=%s",
		len(u.Sites()), len(u.Partitions()), len(u.Elements()), *rf, durability)
	if durability == replication.Quorum {
		fmt.Printf(" (%s)", qpol)
	}
	fmt.Println()
	for _, partID := range u.Partitions() {
		p, _ := u.Partition(partID)
		var replicas []string
		for _, r := range p.Replicas {
			replicas = append(replicas, string(r.Addr))
		}
		fmt.Printf("udrd:   %-16s home=%-10s replicas=%s\n", p.ID, p.HomeSite, strings.Join(replicas, ","))
	}
	fmt.Printf("udrd: %d subscribers seeded; LDAP (%s policy, PoA %s) on %s\n",
		*subs, pol, served, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("udrd: %s — shutting down\n", s)
		return nil
	case err := <-serveErr:
		return err
	}
}

// summary renders the one-line shutdown report: traffic served, the
// durability high-water mark, and what the trace recorder captured.
func summary(u *core.UDR, tracer *trace.Recorder, up time.Duration) string {
	var reads, writes int64
	var lastCSN uint64
	for _, elID := range u.Elements() {
		el := u.Element(elID)
		if el == nil {
			continue
		}
		reads += el.Reads.Value()
		writes += el.Writes.Value()
		for _, partID := range el.Partitions() {
			if pr := el.Replica(partID); pr != nil {
				if csn := pr.Store.CSN(); csn > lastCSN {
					lastCSN = csn
				}
			}
		}
	}
	ts := tracer.Stats() // nil-safe: all-zero when tracing is disabled
	return fmt.Sprintf("udrd: shutdown after %s — %d ops served (%d reads, %d writes), last CSN %d, traces flushed: %d spans from %d sampled traces (%d dropped)",
		up.Round(time.Millisecond), reads+writes, reads, writes, lastCSN, ts.Spans, ts.Sampled, ts.Dropped)
}
