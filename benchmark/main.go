// Command benchmark is the repository's ruler: it hosts the three-site
// UDR in one process, drives one workload against it in a closed loop,
// checks every answer, and prints the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1) named in BENCHMARK.json. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds a run's metrics by name.
type metricSet map[string]metric

// set adds a metric; emitting one name twice is a bug in the benchmark.
func (m metricSet) set(name, unit string, v float64) {
	if _, dup := m[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// environment is what a reader needs to interpret a result file.
type environment struct {
	Commit          string   `json:"commit"`
	GoVersion       string   `json:"go_version"`
	NumCPU          int      `json:"nproc"`
	GOMAXPROCS      int      `json:"gomaxprocs"`
	Clients         int      `json:"clients"`
	InFlight        int      `json:"in_flight_per_client"`
	Subscribers     int      `json:"subscribers"`
	Targets         int      `json:"targeted_subscribers"`
	MeasuredSeconds float64  `json:"measured_seconds"`
	Setups          int      `json:"setups"`
	InjectedRTTsUs  []int64  `json:"injected_rtts_us"`
	WALDir          string   `json:"wal_dir"`
	TimerOverheadNs float64  `json:"timer_overhead_ns"`
	Notes           []string `json:"notes"`
}

// result is one run, as written to the result file. The last line of
// standard output carries only correct, attempted, failed and metrics.
type result struct {
	Workload  string    `json:"workload"`
	Trace     int       `json:"trace"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	FailRatio float64   `json:"fail_ratio"`
	Metrics   metricSet `json:"metrics"`
	// Ops is the number of latency samples behind each percentile
	// metric.
	Ops map[string]uint64 `json:"ops"`
	// WindowOps is the completed operations of each one-second window
	// of the measured (or traced) phase, kept to show how throughput
	// swings with garbage collection; ops_per_s is the phase's mean.
	WindowOps    []float64   `json:"window_ops"`
	SpanFile     string      `json:"span_file,omitempty"`
	SpansWritten int64       `json:"spans_written,omitempty"`
	SpansDropped int64       `json:"spans_dropped,omitempty"`
	Env          environment `json:"env"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built inside a git checkout)"
}

// timerOverhead is the median cost of one now() call, which every
// per-call ladder timing includes once.
func timerOverhead() float64 {
	const n = 2001
	d := make([]float64, n)
	for i := range d {
		t0 := now()
		d[i] = float64(now() - t0)
	}
	return median(d)
}

func newEnvironment(fx *fixture, measured time.Duration, setups int) environment {
	env := environment{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: fx.wl.clients, InFlight: fx.wl.inflight,
		Subscribers: len(fx.subs), Targets: len(fx.targets),
		MeasuredSeconds: measured.Seconds(), Setups: setups,
		WALDir: fx.walDir, TimerOverheadNs: timerOverhead(),
		Notes: []string{
			"closed loop: each client sends its next request after the previous reply",
			"LDAP traffic is loopback TCP (127.0.0.1) to a server in the same process",
			"fsync latency is that of the sandbox disk under the WAL directory",
			"injected WAN delays are the simulator's 10x-compressed profiles",
		},
	}
	for _, rtt := range fx.rtts {
		env.InjectedRTTsUs = append(env.InjectedRTTsUs, rtt.Microseconds())
	}
	return env
}

// started is a built fixture with its clients connected and warm.
type started struct {
	fx        *fixture
	clients   []client
	attempted uint64
	failed    uint64
}

func (s *started) close() {
	closeClients(s.clients)
	s.fx.close()
}

// start builds the fixture, connects the clients and runs the warm-up:
// a fixed number of operations per client, so that work moved into
// set-up shows in its duration.
func start(wl *workload, p params, seed int64) (*started, error) {
	fx, err := buildFixture(wl, p, seed)
	if err != nil {
		return nil, err
	}
	clients, err := newClients(fx, seed)
	if err != nil {
		fx.close()
		return nil, err
	}
	res := runPhase(clients, phase{maxOps: wl.warm})
	return &started{fx: fx, clients: clients, attempted: res.attempted, failed: res.failed}, nil
}

func us(ns float64) float64 { return ns / 1e3 }

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(wl *workload, p params, seed int64, d time.Duration) (*result, error) {
	var st *started
	setupSecs := make([]float64, 0, p.setups)
	for k := 0; k < p.setups; k++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = start(wl, p, seed); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer st.close()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := runPhase(st.clients, timedPhase(p, d, nil))
	vAttempted, vFailed, err := verifyReadBack(st.fx, st.clients)
	if err != nil {
		return nil, err
	}

	r := &result{Workload: wl.name, Seed: seed, Metrics: metricSet{}, Ops: map[string]uint64{},
		Attempted: st.attempted + res.attempted + vAttempted,
		Failed:    st.failed + res.failed + vFailed,
		Env:       newEnvironment(st.fx, res.elapsed, p.setups)}
	ops := float64(res.ops())
	m := r.Metrics
	m.set("setup_s", "s", median(setupSecs))
	m.set("ops_per_s", "1/s", res.opsPerSec())
	m.set("p50_us", "us", us(res.all.quantile(0.50)))
	m.set("p99_us", "us", us(res.all.quantile(0.99)))
	m.set("cpu_us_per_op", "us", ratio(float64(res.cpu.Microseconds()), ops))
	m.set("allocs_per_op", "1", ratio(float64(res.mallocs), ops))
	m.set("alloc_bytes_per_op", "B", ratio(float64(res.allocBytes), ops))
	m.set("heap_bytes_per_sub", "B", float64(ms.HeapAlloc)/float64(len(st.fx.subs)))
	r.Ops["p50_us"], r.Ops["p99_us"] = res.ops(), res.ops()
	r.WindowOps = res.windowOps
	return r, nil
}

// runTraced measures the per-layer metrics: an untraced half for the
// overhead baseline, a traced half with a span around every entry call
// and the program's counters read before and after, then the ladder.
func runTraced(wl *workload, p params, seed int64, d time.Duration, outDir string) (*result, error) {
	st, err := start(wl, p, seed)
	if err != nil {
		return nil, err
	}
	defer st.close()
	fx := st.fx

	// Collect set-up's garbage now, as the untraced run does, not in the
	// first windows of the baseline.
	runtime.GC()
	base := runPhase(st.clients, timedPhase(p, d/2, nil))
	var roles roleCounts
	before := snapshot(fx)
	removeObserver := observeRoles(fx, &roles)
	traced := runPhase(st.clients, timedPhase(p, d/2, wl.entryNames()))
	removeObserver()
	after := snapshot(fx)

	vAttempted, vFailed, err := verifyReadBack(fx, st.clients)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: wl.name, Trace: 1, Seed: seed, Metrics: metricSet{}, Ops: map[string]uint64{},
		Env: newEnvironment(fx, traced.elapsed, 1)}
	m := r.Metrics
	ladderSpans, lAttempted, lFailed, err := runLadder(fx, seed, m)
	if err != nil {
		return nil, err
	}
	r.Attempted = st.attempted + base.attempted + traced.attempted + vAttempted + lAttempted
	r.Failed = st.failed + base.failed + traced.failed + vFailed + lFailed

	countMetrics(m, before, after, traced, &roles)

	// Entry-layer latency by operation class, from the traced phase.
	// The entry calls of the front the workload does not use read 0.
	for _, names := range []*[numClasses]string{&ldapEntryNames, &sessionEntryNames} {
		for class, name := range names {
			h := &hist{}
			if names == wl.entryNames() {
				h = &traced.lat[class]
			}
			m.set(name+"_p50_us", "us", us(h.quantile(0.50)))
			m.set(name+"_p99_us", "us", us(h.quantile(0.99)))
			r.Ops[name+"_p50_us"], r.Ops[name+"_p99_us"] = h.n, h.n
		}
	}
	m.set("bench.trace_overhead_ratio", "ratio", ratio(traced.opsPerSec(), base.opsPerSec()))
	r.WindowOps = traced.windowOps

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r.SpanFile = filepath.Join(outDir, fmt.Sprintf("%s.seed%d.spans.jsonl", wl.name, seed))
	r.SpansWritten, r.SpansDropped, err = writeSpans(r.SpanFile, append(traced.streamSpans, ladderSpans))
	if err != nil {
		return nil, err
	}
	return r, nil
}

// finish fills the verdict fields and writes the result file.
func (r *result) finish(outDir string) error {
	r.Correct = r.Failed == 0
	r.FailRatio = ratio(float64(r.Failed), float64(r.Attempted))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.trace%d.seed%d.json", r.Workload, r.Trace, r.Seed)
	return os.WriteFile(filepath.Join(outDir, name), append(buf, '\n'), 0o644)
}

// print writes every metric by name and unit, then the one-line JSON
// object the driver reads.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%d attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, name := range names {
		mt := r.Metrics[name]
		line := fmt.Sprintf("%-36s %16.4f %s", name, mt.Value, mt.Unit)
		if n, ok := r.Ops[name]; ok {
			line += fmt.Sprintf("  (ops=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	last, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted uint64    `json:"attempted"`
		Failed    uint64    `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed of the operation stream")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the ladder")
	outDir := fs.String("out", ".bench_build/out", "directory for result and span files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A B (files or directories of result files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files or directories")
			return 2
		}
		ok, err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if wl := findWorkload(*name); wl != nil {
		selected = []*workload{wl}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have:", *name)
		for _, wl := range workloads {
			fmt.Fprintf(stderr, " %s", wl.name)
		}
		fmt.Fprintln(stderr, " all")
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	d := time.Duration(*seconds * float64(time.Second))
	code := 0
	for _, wl := range selected {
		var r *result
		var err error
		if *traceFlag == 1 {
			r, err = runTraced(wl, defaults(), *seed, d, *outDir)
		} else {
			r, err = runUntraced(wl, defaults(), *seed, d)
		}
		if err == nil {
			err = r.finish(*outDir)
		}
		if err == nil {
			err = r.print(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 2
		}
		if !r.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed or answered wrong\n", wl.name, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }
