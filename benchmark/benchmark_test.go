package main

import (
	"bufio"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ldap"
	"repro/internal/subscriber"
)

// TestHistQuantiles checks the log-bucketed histogram against a sorted
// slice: every quantile within the 1% bucket error.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]float64, 200_000)
	for i := range vals {
		// Log-normal around 20 µs with a long tail, like a latency.
		v := int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(20_000)))
		vals[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := vals[int(q*float64(len(vals)))]
		got := h.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.3f: histogram %.1f, sorted reference %.1f", q, got, want)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself moved the median: %v -> %v", h.quantile(0.5), merged.quantile(0.5))
	}
}

// TestHistBuckets checks that the bucket bounds invert bucketOf over
// the whole range, including the exact and the widest buckets.
func TestHistBuckets(t *testing.T) {
	for _, v := range []int64{0, 1, 255, 256, 257, 1000, 65_535, 65_536, 1 << 40, 1 << 62} {
		i := bucketOf(v)
		lo, width := bucketBounds(i)
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d in bucket %d = [%g, %g)", v, i, lo, lo+width)
		}
		if width > lo/128+1 {
			t.Errorf("bucket %d is %g wide at %g: more than 1/128", i, width, lo)
		}
	}
}

// TestOpStreamDeterminism: the stream is a pure function of seed,
// client and mix.
func TestOpStreamDeterminism(t *testing.T) {
	draw := func(seed int64, client int, wl *workload) (targets []int, writes []bool) {
		s := newOpStream(seed, client, wl, 1000)
		for i := 0; i < 500; i++ {
			target, write := s.next()
			targets, writes = append(targets, target), append(writes, write)
		}
		return targets, writes
	}
	for i := range workloads {
		wl := &workloads[i]
		t1, w1 := draw(1, 0, wl)
		t2, w2 := draw(1, 0, wl)
		if !slices.Equal(t1, t2) || !slices.Equal(w1, w2) {
			t.Errorf("%s: same seed and client gave different operations", wl.name)
		}
		if other, _ := draw(2, 0, wl); slices.Equal(t1, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same keys", wl.name)
		}
		if other, _ := draw(1, 1, wl); slices.Equal(t1, other) {
			t.Errorf("%s: clients 0 and 1 gave the same keys", wl.name)
		}
		writes := 0
		for j, w := range w1 {
			if w {
				writes++
				if t1[j]%wl.clients != 0 {
					t.Fatalf("%s: client 0 wrote target %d, which another client owns", wl.name, t1[j])
				}
			}
		}
		if want := wl.writePct * len(w1) / 100; writes < want/2 || writes > want*2+1 {
			t.Errorf("%s: %d writes in %d ops, want about %d", wl.name, writes, len(w1), want)
		}
	}
}

// stubBackend is a directory over a plain map. It answers a search for
// the key in wrong with another subscriber's entry.
type stubBackend struct {
	byMSISDN map[string]*subRef
	wrong    string
	writes   int
}

func (b *stubBackend) Bind(string, string) ldap.Result { return ldap.Result{Code: ldap.ResultSuccess} }

func (b *stubBackend) Search(req *ldap.SearchRequest) ([]ldap.SearchEntry, ldap.Result) {
	sub := b.byMSISDN[req.Filter.Value]
	if sub == nil {
		return nil, ldap.Result{Code: ldap.ResultNoSuchObject}
	}
	id := sub.id
	if sub.msisdn == b.wrong {
		id = "sub-somebody-else"
	}
	return []ldap.SearchEntry{{DN: sub.dn, Attrs: map[string][]string{
		subscriber.AttrMSISDN: {sub.msisdn}, subscriber.AttrID: {id},
	}}}, ldap.Result{Code: ldap.ResultSuccess}
}

func (b *stubBackend) Compare(string, string, string) ldap.Result {
	return ldap.Result{Code: ldap.ResultCompareTrue}
}

func (b *stubBackend) Write(ops []ldap.WriteOp) ldap.Result {
	b.writes += len(ops)
	return ldap.Result{Code: ldap.ResultSuccess}
}

// TestPipelinedClient drives the benchmark's pipelined LDAP client
// against a stub backend: every response is matched to its request, and
// a wrong entry is counted as a failure.
func TestPipelinedClient(t *testing.T) {
	wl := *findWorkload("ldap_pipelined")
	fx := &fixture{wl: &wl}
	backend := &stubBackend{byMSISDN: map[string]*subRef{}}
	for i := 0; i < 64; i++ {
		p := subscriber.NewGenerator("eu-south").Profile(i)
		fx.subs = append(fx.subs, subRef{id: p.ID, msisdn: p.MSISDNVal, dn: subscriber.DN(p.ID)})
		fx.targets = append(fx.targets, int32(i))
	}
	for i := range fx.subs {
		backend.byMSISDN[fx.subs[i].msisdn] = &fx.subs[i]
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ldap.NewServer(backend)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	run := func(ops int) *recorder {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := newPipelinedClient(0, fx, newOpStream(1, 0, &wl, len(fx.targets)),
			make([]uint64, len(fx.targets)), &countConn{Conn: conn}, wl.inflight)
		defer c.close()
		rec := newRecorder(phase{}, 0, 1, now())
		c.run(phase{maxOps: ops}, rec)
		if c.err != nil {
			t.Fatalf("pipelined client: %v", c.err)
		}
		if c.wireBytes() == 0 {
			t.Error("no wire bytes counted")
		}
		return rec
	}
	rec := run(500)
	if rec.attempted != 500 || rec.failed != 0 {
		t.Errorf("attempted %d failed %d, want 500 and 0", rec.attempted, rec.failed)
	}
	if got := rec.lat[classRead].n + rec.lat[classWrite].n; got != 500 {
		t.Errorf("%d latency samples, want 500", got)
	}
	if uint64(backend.writes) != rec.lat[classWrite].n || backend.writes == 0 {
		t.Errorf("backend saw %d writes, client recorded %d", backend.writes, rec.lat[classWrite].n)
	}

	backend.wrong = fx.subs[3].msisdn
	rec = run(500)
	if rec.attempted != 500 || rec.failed == 0 || rec.failed > 100 {
		t.Errorf("with one subscriber answered wrong: attempted %d failed %d", rec.attempted, rec.failed)
	}
}

// TestSmokeWorkloads runs every workload small and short, untraced and
// traced, and checks each emits exactly the metric names BENCHMARK.json
// lists, with every answer right.
func TestSmokeWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]bool{}, map[string]bool{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = true
	}
	sameNames := func(t *testing.T, got metricSet, want map[string]bool) {
		t.Helper()
		for name := range got {
			if !want[name] {
				t.Errorf("emitted %s, which BENCHMARK.json does not list", name)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json lists %s, which was not emitted", name)
			}
		}
	}
	for _, listed := range bf.Workloads {
		found := findWorkload(listed.Name)
		if found == nil {
			t.Fatalf("BENCHMARK.json lists workload %s, which the program does not have", listed.Name)
		}
		wl := *found
		wl.subs, wl.warm, wl.ladder = 300, 40, 12
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			p := params{setups: 1, verifyKeys: 50, window: 50 * time.Millisecond, spanCap: 1000, tmpDir: t.TempDir()}
			r, err := runUntraced(&wl, p, 1, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("untraced: attempted %d failed %d", r.Attempted, r.Failed)
			}
			sameNames(t, r.Metrics, endToEnd)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}

			out := t.TempDir()
			r, err = runTraced(&wl, p, 1, 200*time.Millisecond, out)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("traced: attempted %d failed %d", r.Attempted, r.Failed)
			}
			sameNames(t, r.Metrics, perLayer)
			if err := r.finish(out); err != nil {
				t.Fatal(err)
			}
			checkSpanFile(t, r)
			if wl.wan != (r.Metrics["wal.fsyncs_per_commit"].Value > 0) {
				t.Errorf("wal.fsyncs_per_commit = %v on %s", r.Metrics["wal.fsyncs_per_commit"].Value, wl.name)
			}
		})
	}
}

// checkSpanFile checks the span file holds what the run says it wrote,
// one JSON object per line.
func checkSpanFile(t *testing.T, r *result) {
	t.Helper()
	f, err := os.Open(r.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"id":`) || !strings.HasSuffix(sc.Text(), "}") {
			t.Fatalf("span line %q", sc.Text())
		}
		lines++
	}
	if lines != r.SpansWritten || lines == 0 {
		t.Errorf("span file has %d lines, result says %d written", lines, r.SpansWritten)
	}
}

// TestCompareVerdicts checks the three verdicts on hand-made result
// sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"us","better":"lower","bound":0.1},
		{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`)
	set := func(name string, lats, rates []float64) string {
		sub := dir + "/" + name
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := range lats {
			r := result{Workload: "w", Metrics: metricSet{}}
			r.Metrics.set("lat", "us", lats[i])
			r.Metrics.set("rate", "1/s", rates[i])
			r.Seed = int64(i)
			if err := r.finish(sub); err != nil {
				t.Fatal(err)
			}
		}
		return sub
	}
	a := set("a", []float64{100, 101, 99, 100}, []float64{1000, 1010, 990, 1000})
	slower := set("slower", []float64{120, 121, 119, 120}, []float64{1000, 1010, 990, 1000})
	noisy := set("noisy", []float64{100, 140, 70, 101}, []float64{1000, 1010, 990, 1000})

	for _, tc := range []struct {
		b       string
		pass    bool
		verdict string
	}{{a, true, "pass"}, {slower, false, "FAIL"}, {noisy, true, "unresolved"}} {
		var sb strings.Builder
		ok, err := compareSets(&sb, bench, a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.pass || !strings.Contains(sb.String(), tc.verdict) {
			t.Errorf("comparing with %s: ok=%v, want %v and a %q verdict in\n%s", tc.b, ok, tc.pass, tc.verdict, sb.String())
		}
	}
}
