package obs

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// SpanJSON is one span in the /trace views, children nested. Span and
// trace IDs render as the same 16-hex-digit form udrctl prints and
// the metrics exemplars carry.
type SpanJSON struct {
	TraceID         string            `json:"traceId"`
	SpanID          string            `json:"spanId"`
	ParentID        string            `json:"parentId,omitempty"`
	Name            string            `json:"name"`
	Element         string            `json:"element"`
	Start           time.Time         `json:"start"`
	DurationSeconds float64           `json:"durationSeconds"`
	Error           string            `json:"error,omitempty"`
	Attrs           map[string]string `json:"attrs,omitempty"`
	Tail            bool              `json:"tail,omitempty"`
	Children        []SpanJSON        `json:"children,omitempty"`
}

func spanJSON(sp trace.Span) SpanJSON {
	out := SpanJSON{
		TraceID:         sp.Trace.String(),
		SpanID:          sp.ID.String(),
		Name:            sp.Name,
		Element:         sp.Element,
		Start:           sp.Start,
		DurationSeconds: sp.Duration.Seconds(),
		Error:           sp.Err,
		Tail:            sp.Tail,
	}
	if sp.Parent != 0 {
		out.ParentID = sp.Parent.String()
	}
	if len(sp.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

func nodeJSON(n *trace.Node) SpanJSON {
	out := spanJSON(n.Span)
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeJSON(c))
	}
	return out
}

// TraceSummaryJSON is one trace in the /trace/recent listing.
type TraceSummaryJSON struct {
	TraceID string   `json:"traceId"`
	Spans   int      `json:"spans"`
	Root    SpanJSON `json:"root"`
}

// TraceListResponse is the /trace/recent and /trace/slow body. An
// endpoint with no tracer attached (or nothing sampled yet) serves an
// empty listing, not an error.
type TraceListResponse struct {
	SampleRate float64            `json:"sampleRate"`
	Traces     []TraceSummaryJSON `json:"traces"`
}

// TraceResponse is the /trace/{id} body.
type TraceResponse struct {
	TraceID string     `json:"traceId"`
	Spans   int        `json:"spans"`
	Roots   []SpanJSON `json:"roots"`
}

// traceN parses the ?n= listing bound; 0 (absent or malformed) takes
// the listing's default.
func traceN(r *http.Request) int {
	n, _ := strconv.Atoi(r.FormValue("n"))
	return n
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request, slow bool) {
	rate, sums := s.cfg.UDR.Traces(slow, traceN(r))
	resp := TraceListResponse{SampleRate: rate, Traces: []TraceSummaryJSON{}}
	for _, sum := range sums {
		resp.Traces = append(resp.Traces, TraceSummaryJSON{
			TraceID: sum.Trace.String(),
			Spans:   sum.Spans,
			Root:    spanJSON(sum.Root),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	spans, err := s.cfg.UDR.TraceSpans(strings.TrimPrefix(r.URL.Path, "/trace/"))
	if err != nil {
		writeJSON(w, httpStatus(err), errorJSON{Error: err.Error()})
		return
	}
	resp := TraceResponse{TraceID: spans[0].Trace.String(), Spans: len(spans)}
	for _, n := range trace.BuildTree(spans) {
		resp.Roots = append(resp.Roots, nodeJSON(n))
	}
	writeJSON(w, http.StatusOK, resp)
}
