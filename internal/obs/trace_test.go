package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// traceServer serves the obs surface over a recorder pre-loaded with
// one synthetic two-span trace.
func traceServer(t *testing.T) (*trace.Recorder, trace.ID, *httptest.Server) {
	t.Helper()
	rec := trace.New(trace.Config{SampleRate: 1})
	root := rec.StartRoot("fe.MOCall", "eu-south/HLR-FE")
	child := rec.StartChild(root.Ctx(), "session.exec", "eu-south/fe-0")
	child.SetAttr("to", "eu-south/poa")
	child.End(nil)
	root.End(nil)
	cfg := core.DefaultConfig()
	cfg.Trace = rec
	u, err := core.New(simnet.New(simnet.FastConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	ts := httptest.NewServer(NewServer(Config{Registry: metrics.NewRegistry(), UDR: u}).Handler())
	t.Cleanup(ts.Close)
	return rec, root.Ctx().Trace, ts
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceRecentAndGet(t *testing.T) {
	_, id, ts := traceServer(t)

	var list TraceListResponse
	getJSON(t, ts.URL+"/trace/recent", http.StatusOK, &list)
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id.String() {
		t.Fatalf("recent = %+v", list.Traces)
	}
	if list.Traces[0].Spans != 2 || list.Traces[0].Root.Name != "fe.MOCall" {
		t.Fatalf("summary = %+v", list.Traces[0])
	}

	var tr TraceResponse
	getJSON(t, ts.URL+"/trace/"+id.String(), http.StatusOK, &tr)
	if tr.Spans != 2 || len(tr.Roots) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	root := tr.Roots[0]
	if root.Name != "fe.MOCall" || root.Element != "eu-south/HLR-FE" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	if c := root.Children[0]; c.Name != "session.exec" || c.Attrs["to"] != "eu-south/poa" || c.ParentID != root.SpanID {
		t.Fatalf("child = %+v", c)
	}
}

func TestTraceSlow(t *testing.T) {
	rec, id, ts := traceServer(t)
	// A tail-worthy span: recorded directly with a synthetic duration
	// over the default threshold.
	h := rec.StartRoot("fe.IMSRegister", "americas/HSS-FE")
	h.EndWithDuration(3*time.Second, nil)

	var list TraceListResponse
	getJSON(t, ts.URL+"/trace/slow?n=1", http.StatusOK, &list)
	if len(list.Traces) != 1 {
		t.Fatalf("slow = %+v", list.Traces)
	}
	if got := list.Traces[0]; got.Root.Name != "fe.IMSRegister" || got.TraceID == id.String() {
		t.Fatalf("slowest = %+v", got)
	}
}

func TestTraceGetUnknownAndBadID(t *testing.T) {
	_, _, ts := traceServer(t)
	var e errorJSON
	getJSON(t, ts.URL+"/trace/00000000deadbeef", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "unknown trace") {
		t.Fatalf("error = %q", e.Error)
	}
	getJSON(t, ts.URL+"/trace/not-hex", http.StatusBadRequest, &e)
}

// TestTraceEndpointsWithoutTracer pins the disabled-tracing contract:
// the routes answer 200 with empty listings, not errors.
func TestTraceEndpointsWithoutTracer(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Registry: metrics.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/trace/recent", "/trace/slow"} {
		var list TraceListResponse
		getJSON(t, ts.URL+path, http.StatusOK, &list)
		if len(list.Traces) != 0 || list.SampleRate != 0 {
			t.Fatalf("%s = %+v", path, list)
		}
	}
	getJSON(t, ts.URL+"/trace/00000000deadbeef", http.StatusNotFound, nil)
}

// TestExpositionExemplars checks the OpenMetrics-style exemplar
// suffix on histogram bucket lines.
func TestExpositionExemplars(t *testing.T) {
	reg := metrics.NewRegistry()
	var h metrics.Histogram
	reg.Histogram("udr_test_latency_seconds", "t.", "site").Attach(&h, "eu-south")
	h.Record(3 * time.Millisecond)
	h.SetExemplar(3*time.Millisecond, "00000000deadbeef")

	var sb strings.Builder
	if err := WriteExposition(&sb, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `# {trace_id="00000000deadbeef"} 0.003`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition lacks exemplar %q:\n%s", want, out)
	}
}
