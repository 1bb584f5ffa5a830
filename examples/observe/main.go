// Observe: run a UDR with the full observability surface — the
// metrics registry, the Prometheus /metrics exposition, the admin
// HTTP endpoints and the request tracer — drive a front-end workload
// against it, scrape /metrics twice, and read the WAL group-commit
// amortization and replication shipping lag off the deltas, exactly
// the way a Prometheus rate() query would. Then zoom from the
// aggregate to one request: render a sampled quorum-commit trace and
// read the fsync and quorum-ack-wait shares straight off its spans.
//
// This is the in-process version of what `udrd -admin :9100` serves;
// point a real Prometheus at udrd to get the same families and
// /trace/{recent,slow,<id>} endpoints.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	udr "repro"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A three-site UDR with durable WAL (fsync on every commit, group-
	// committed), quorum durability and anti-entropy repair — the
	// subsystems whose instruments we want to watch. The tracer
	// samples every request so the walkthrough below always has a
	// quorum-commit trace to render; production rates are 1/64-ish.
	walDir, err := os.MkdirTemp("", "udr-observe-wal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	tracer := udr.NewTracer(udr.TraceConfig{SampleRate: 1})
	network := udr.NewNetwork(udr.DefaultNetConfig())
	cfg := udr.DefaultConfig()
	cfg.WALDir = walDir
	cfg.WALMode = udr.WALSyncEveryCommit
	cfg.Durability = udr.DurabilityQuorum
	cfg.AntiEntropy = true
	cfg.Trace = tracer
	u, err := udr.New(network, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer u.Stop()

	// Wire the observability surface: register every UDR instrument
	// in a registry, serve it over HTTP. This is what udrd's -admin
	// flag does.
	reg := udr.NewMetricsRegistry()
	u.RegisterMetrics(reg)
	srv := udr.NewObsServer(udr.ObsConfig{Registry: reg, UDR: u})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("admin HTTP on %s (GET /metrics, /healthz, /status)\n", base)

	// Provision some subscribers and keep their identities.
	ps := udr.NewSession(network, "eu-south/ps", "eu-south", udr.PolicyPS)
	gen := udr.NewGenerator(u.Sites()...)
	var imsis, msisdns []string
	for i := 0; i < 30; i++ {
		prof := gen.Profile(i)
		if _, err := ps.Provision(ctx, prof); err != nil {
			log.Fatal(err)
		}
		imsis = append(imsis, prof.IMSIVal)
		msisdns = append(msisdns, prof.MSISDNVal)
	}
	if err := u.WaitReplication(ctx); err != nil {
		log.Fatal(err)
	}

	// First scrape: the baseline a Prometheus server would hold.
	before := scrape(base + "/metrics")

	// A front-end workload: location updates (writes → WAL commits →
	// replication shipping) and call lookups (reads). Several
	// concurrent front-ends, so the WAL's group commit has concurrent
	// commits to coalesce — that is what pushes fsyncs-per-commit
	// below 1.0.
	const fes = 4
	errs := make(chan error, fes)
	for w := 0; w < fes; w++ {
		name := fmt.Sprintf("hss-fe-%d", w+1)
		front := udr.NewHSSFE(network, "eu-north", name)
		front.RegisterMetrics(reg, name) // per-procedure latency families
		front.AttachTracer(tracer)       // root spans per FE procedure
		go func(front *udr.FE) {
			for round := 0; round < 3; round++ {
				for i := range imsis {
					if err := front.LocationUpdate(ctx, imsis[i], "mme-eu-north-1", "area-7", true); err != nil {
						errs <- err
						return
					}
					if _, err := front.MTCall(ctx, msisdns[i]); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(front)
	}
	for w := 0; w < fes; w++ {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}

	// Second scrape: the deltas are what rate() would compute.
	after := scrape(base + "/metrics")

	appends := sum(after, "udr_wal_appends_total") - sum(before, "udr_wal_appends_total")
	fsyncs := sum(after, "udr_wal_fsyncs_total") - sum(before, "udr_wal_fsyncs_total")
	shipped := sum(after, "udr_replication_shipped_total") - sum(before, "udr_replication_shipped_total")
	lag := sum(after, "udr_replication_lag_records")
	served := sum(after, "udr_poa_ops_total") - sum(before, "udr_poa_ops_total")

	fmt.Printf("\nbetween the two scrapes the workload drove:\n")
	fmt.Printf("  PoA operations        %6.0f\n", served)
	fmt.Printf("  WAL commit records    %6.0f\n", appends)
	fmt.Printf("  WAL fsyncs            %6.0f\n", fsyncs)
	if appends > 0 {
		fmt.Printf("  fsyncs per commit     %6.3f  (group commit amortizes <1.0)\n", fsyncs/appends)
	}
	fmt.Printf("  records shipped       %6.0f  to replication peers\n", shipped)
	fmt.Printf("  current shipping lag  %6.0f  records (masters vs acked CSNs)\n", lag)

	// Zoom from the aggregates to one request: find a sampled write
	// trace whose commit waited on the replica quorum, render its
	// span tree, and attribute the root's latency to the durable
	// pieces — the WAL fsync and the quorum ack wait.
	for _, sum := range tracer.Recent(256) {
		if sum.Root.Name != "fe.LocationUpdate" {
			continue
		}
		spans := tracer.Get(sum.Trace)
		var fsync, ackwait, sends time.Duration
		var peers int
		for _, sp := range spans {
			switch sp.Name {
			case "wal.fsync":
				fsync += sp.Duration
			case "repl.ackwait":
				ackwait += sp.Duration
			case "repl.send":
				sends += sp.Duration
				peers++
			}
		}
		if ackwait == 0 {
			continue // a commit that never waited; pick a better one
		}
		fmt.Printf("\none sampled quorum commit (trace %s, also at GET /trace/%s):\n\n", sum.Trace, sum.Trace)
		fmt.Print(udr.RenderTrace(spans))
		fmt.Printf("\nwhere the %v went:\n", sum.Root.Duration.Round(time.Microsecond))
		fmt.Printf("  WAL fsync (group commit)  %8v  (%4.1f%%)\n",
			fsync.Round(time.Microsecond), 100*float64(fsync)/float64(sum.Root.Duration))
		fmt.Printf("  quorum ack wait           %8v  (%4.1f%%)  covering %d peer sends totalling %v\n",
			ackwait.Round(time.Microsecond), 100*float64(ackwait)/float64(sum.Root.Duration),
			peers, sends.Round(time.Microsecond))
		break
	}

	fmt.Printf("\nper-procedure latency lives in udr_fe_proc_latency_seconds{proc=...},\n")
	fmt.Printf("with trace-ID exemplars on its buckets; GET %s/trace/slow lists the\n", base)
	fmt.Printf("tail-sampled outliers. POST %s/admin/repair drives a repair round.\n", base)
}

// scrape GETs a /metrics URL and returns every sample line keyed by
// its full series name (metric{labels}).
func scrape(url string) map[string]float64 {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}

// sum totals every series of one metric family.
func sum(samples map[string]float64, family string) float64 {
	var total float64
	for series, v := range samples {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}
