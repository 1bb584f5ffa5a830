package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/antientropy"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rebalance"
)

// Config wires an admin server.
type Config struct {
	// Registry backs GET /metrics. Required.
	Registry *metrics.Registry
	// UDR, when set, backs GET /status, the POST /admin/* control
	// operations and the GET /trace/* views (from its trace
	// recorder). A metrics-only endpoint leaves it nil: the control
	// operations then answer 503 and the trace views list nothing.
	UDR *core.UDR
}

// Server is the admin HTTP surface of one udrd process:
//
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz           liveness probe
//	GET  /status            topology + placement epochs + replication lag (JSON)
//	GET  /trace/recent      newest sampled traces (?n=)
//	GET  /trace/slow        slowest traces since startup (?n=)
//	GET  /trace/{id}        one trace as a span tree
//	GET  /debug/pprof/*     net/http/pprof
//	POST /admin/repair      anti-entropy round (all partitions or ?partition=)
//	POST /admin/move        ?partition= &target= [&release=true]
//	POST /admin/rebalance   plan + execute a rebalancing pass
//
// The status, trace and admin routes are a codec over the UDR's
// control operations, the same ones the udrctl LDAP extended
// operations call: each route parses its query, calls the UDR and
// writes the report as JSON, with the HTTP status of the error's
// core.AdminClass (statusCodes).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	hs    *http.Server
	start time.Time
}

// NewServer builds the server; Serve or Handler make it reachable.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/trace/recent", func(w http.ResponseWriter, r *http.Request) { s.handleTraceList(w, r, false) })
	s.mux.HandleFunc("/trace/slow", func(w http.ResponseWriter, r *http.Request) { s.handleTraceList(w, r, true) })
	s.mux.HandleFunc("/trace/", s.handleTraceGet)
	s.mux.HandleFunc("/admin/repair", s.handleRepair)
	s.mux.HandleFunc("/admin/move", s.handleMove)
	s.mux.HandleFunc("/admin/rebalance", s.handleRebalance)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the route table (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves HTTP on the listener until Close.
func (s *Server) Serve(ln net.Listener) error {
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close immediately closes the listener and all connections.
func (s *Server) Close() error { return s.hs.Close() }

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorJSON is the admin error body.
type errorJSON struct {
	Error string `json:"error"`
}

// statusCodes is the HTTP status of each control-operation error
// class (DESIGN.md, "Control operations").
var statusCodes = [...]int{
	core.ClassOther:           http.StatusInternalServerError,
	core.ClassNotFound:        http.StatusNotFound,
	core.ClassBusy:            http.StatusConflict,
	core.ClassConflict:        http.StatusConflict,
	core.ClassDisabled:        http.StatusConflict,
	core.ClassUnavailableHere: http.StatusServiceUnavailable,
	core.ClassBadRequest:      http.StatusBadRequest,
	core.ClassTimeout:         http.StatusGatewayTimeout,
}

// httpStatus is the HTTP status of a control operation: 200 for a nil
// error, else the error class's status.
func httpStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	return statusCodes[core.AdminClass(err)]
}

// errString is err's message, empty for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requirePost guards the mutating admin operations.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use POST"})
		return false
	}
	return true
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ExpositionContentType)
	WriteExposition(w, s.cfg.Registry.Gather())
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// StatusResponse is the /status body: the UDR's consolidated OaM view.
type StatusResponse = core.Status

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.cfg.UDR.Status()
	if err != nil {
		writeJSON(w, httpStatus(err), errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// RepairResponse is the /admin/repair body: one entry per peer round.
type RepairResponse struct {
	Rounds []antientropy.Stats `json:"rounds"`
	Error  string              `json:"error,omitempty"`
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	stats, err := s.cfg.UDR.AdminRepair(r.Context(), r.FormValue("partition"))
	// "rounds": [] rather than null when no round ran.
	writeJSON(w, httpStatus(err), RepairResponse{Rounds: append([]antientropy.Stats{}, stats...), Error: errString(err)})
}

// MoveResponse is the /admin/move body: the migration report.
type MoveResponse struct {
	Partition      string  `json:"partition"`
	Source         string  `json:"source"`
	Target         string  `json:"target"`
	Phase          string  `json:"phase"`
	RowsCopied     int     `json:"rowsCopied"`
	Batches        int     `json:"batches"`
	CatchUpRecords uint64  `json:"catchUpRecords"`
	FreezeSeconds  float64 `json:"freezeSeconds"`
	Seconds        float64 `json:"seconds"`
	Released       bool    `json:"released"`
	PeersLeft      int     `json:"peersLeftBehind"`
	Aborted        bool    `json:"aborted"`
	Error          string  `json:"error,omitempty"`
}

func moveResponse(rep *rebalance.Report, err error) MoveResponse {
	if rep == nil {
		return MoveResponse{Error: errString(err)}
	}
	return MoveResponse{
		Partition:      rep.Partition,
		Source:         rep.Source,
		Target:         rep.Target,
		Phase:          rep.Phase.String(),
		RowsCopied:     rep.RowsCopied,
		Batches:        rep.Batches,
		CatchUpRecords: rep.CatchUpRecords,
		FreezeSeconds:  rep.FreezeDuration.Seconds(),
		Seconds:        rep.Duration.Seconds(),
		Released:       rep.Released,
		PeersLeft:      rep.PeersLeftBehind(),
		Aborted:        rep.Aborted,
		Error:          errString(err),
	}
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	rep, err := s.cfg.UDR.AdminMove(r.Context(), r.FormValue("partition"), r.FormValue("target"),
		r.FormValue("release") == "true")
	writeJSON(w, httpStatus(err), moveResponse(rep, err))
}

// RebalanceResponse is the /admin/rebalance body.
type RebalanceResponse struct {
	Planned int            `json:"planned"`
	Failed  int            `json:"failed"`
	Moves   []MoveResponse `json:"moves"`
	Error   string         `json:"error,omitempty"`
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	res, err := s.cfg.UDR.AdminRebalance(r.Context())
	resp := RebalanceResponse{Moves: []MoveResponse{}, Error: errString(err)}
	if res != nil {
		resp.Planned, resp.Failed = len(res.Plan), res.Failed
		for i, rep := range res.Reports {
			mv := moveResponse(rep, nil)
			if rep == nil {
				mv = MoveResponse{
					Partition: res.Plan[i].Partition,
					Source:    res.Plan[i].From,
					Target:    res.Plan[i].To,
					Aborted:   true,
					Error:     "rejected",
				}
			}
			resp.Moves = append(resp.Moves, mv)
		}
	}
	writeJSON(w, httpStatus(err), resp)
}
