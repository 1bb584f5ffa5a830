package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/metrics"
	"repro/internal/rebalance"
	"repro/internal/simnet"
	"repro/internal/subscriber"
)

// testServer boots a 2-site UDR with the full metrics wiring behind an
// httptest server — the obs surface exactly as udrd -admin serves it.
func testServer(t *testing.T, subs int, antiEntropy bool) (*core.UDR, *httptest.Server) {
	t.Helper()
	network := simnet.New(simnet.FastConfig())
	cfg := core.DefaultConfig()
	cfg.Sites = []core.SiteSpec{
		{Name: "eu-south", SEs: 2, PartitionsPerSE: 1},
		{Name: "eu-north", SEs: 2, PartitionsPerSE: 1},
	}
	cfg.ReplicationFactor = 2
	cfg.AntiEntropy = antiEntropy
	u, err := core.New(network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	gen := subscriber.NewGenerator(u.Sites()...)
	for i := 0; i < subs; i++ {
		if err := u.SeedDirect(gen.Profile(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	u.RegisterMetrics(reg)
	ts := httptest.NewServer(NewServer(Config{Registry: reg, UDR: u}).Handler())
	t.Cleanup(ts.Close)
	return u, ts
}

// moveTarget returns an element that hosts no replica of the partition
// (a legal migration target) and one that does (a conflicting one).
func moveTarget(t *testing.T, u *core.UDR, partID string) (free, hosting string) {
	t.Helper()
	part, ok := u.Partition(partID)
	if !ok {
		t.Fatalf("partition %q missing", partID)
	}
	hosted := map[string]bool{}
	for _, ref := range part.Replicas {
		hosted[ref.Element] = true
	}
	hosting = part.Replicas[len(part.Replicas)-1].Element
	for _, el := range u.Elements() {
		if !hosted[el] {
			return el, hosting
		}
	}
	t.Fatal("no free element for a move")
	return "", ""
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, 8, true)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ExpositionContentType {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// The acceptance families, as TYPE lines (present even when idle).
	for _, line := range []string{
		"# TYPE udr_poa_op_latency_seconds histogram",
		"# TYPE udr_replication_queue_depth gauge",
		"# TYPE udr_wal_fsyncs_per_commit gauge",
		"# TYPE udr_antientropy_rows_shipped_total counter",
		"# TYPE udr_migration_phase gauge",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing %q", line)
		}
	}
	// Topology-backed samples with site/element/partition labels.
	for _, frag := range []string{
		`udr_partition_rows{site="eu-south",element="`,
		`udr_se_reads_total{site="`,
		`udr_replication_queue_depth{site="`,
		`udr_placement_epoch{partition="p-eu-south-0"}`,
		`udr_locator_map_entries{site="eu-south"}`,
		`udr_locator_map_bytes{site="eu-south"}`,
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("missing sample fragment %q in:\n%s", frag, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, 0, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	h := decode[HealthResponse](t, resp)
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestStatusEndpoint(t *testing.T) {
	u, ts := testServer(t, 8, false)
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatusResponse](t, resp)
	if len(st.Sites) != 2 || len(st.Elements) != 4 {
		t.Fatalf("topology = %d sites, %d elements", len(st.Sites), len(st.Elements))
	}
	if len(st.Partitions) != len(u.Partitions()) {
		t.Fatalf("partitions = %d, want %d", len(st.Partitions), len(u.Partitions()))
	}
	for _, p := range st.Partitions {
		if len(p.Replicas) != 2 {
			t.Fatalf("partition %s has %d replicas", p.ID, len(p.Replicas))
		}
		if p.Replicas[0].Role != "master" || p.Replicas[1].Role != "slave" {
			t.Fatalf("partition %s roles = %s/%s", p.ID, p.Replicas[0].Role, p.Replicas[1].Role)
		}
		if len(p.ReplicationLag) == 0 {
			t.Fatalf("partition %s reports no replication lag entries", p.ID)
		}
	}
	if len(st.Migrations) != 0 {
		t.Fatalf("idle UDR reports migrations: %+v", st.Migrations)
	}
}

func TestStatusWithoutTopology(t *testing.T) {
	reg := metrics.NewRegistry()
	ts := httptest.NewServer(NewServer(Config{Registry: reg}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status without topology = %d, want 503", resp.StatusCode)
	}
	// /metrics still works on a metrics-only endpoint.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics without topology = %d", mresp.StatusCode)
	}
}

func TestAdminRequiresPost(t *testing.T) {
	_, ts := testServer(t, 0, true)
	for _, path := range []string{"/admin/repair", "/admin/move", "/admin/rebalance"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s Allow = %q", path, allow)
		}
	}
}

func TestAdminRepair(t *testing.T) {
	_, ts := testServer(t, 8, true)
	resp, err := http.Post(ts.URL+"/admin/repair", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair = %d", resp.StatusCode)
	}
	rep := decode[RepairResponse](t, resp)
	if len(rep.Rounds) == 0 {
		t.Fatal("repair reported no rounds")
	}

	// Unknown partition: the udrctl noSuchObject class maps to 404.
	resp, err = http.Post(ts.URL+"/admin/repair?partition=p-nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repair unknown partition = %d, want 404", resp.StatusCode)
	}
}

func TestAdminRepairDisabled(t *testing.T) {
	_, ts := testServer(t, 0, false)
	resp, err := http.Post(ts.URL+"/admin/repair", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("repair with anti-entropy disabled = %d, want 409", resp.StatusCode)
	}
}

func TestAdminMoveEndToEnd(t *testing.T) {
	u, ts := testServer(t, 12, false)
	partID := "p-eu-south-0"
	before, _ := u.Partition(partID)
	epochBefore := before.Epoch
	target, _ := moveTarget(t, u, partID)

	resp, err := http.Post(ts.URL+"/admin/move?partition="+partID+"&target="+target, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("move = %d", resp.StatusCode)
	}
	mv := decode[MoveResponse](t, resp)
	if mv.Target != target || mv.Aborted || mv.Phase != "done" {
		t.Fatalf("move report = %+v", mv)
	}
	after, _ := u.Partition(partID)
	if after.Master().Element != target {
		t.Fatalf("master = %s, want %s", after.Master().Element, target)
	}
	if after.Epoch <= epochBefore {
		t.Fatalf("epoch %d did not advance past %d", after.Epoch, epochBefore)
	}

	// /status reflects the new placement and epoch.
	sresp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatusResponse](t, sresp)
	for _, p := range st.Partitions {
		if p.ID == partID {
			if p.Replicas[0].Element != target || p.Epoch != after.Epoch {
				t.Fatalf("status partition = %+v", p)
			}
		}
	}
}

func TestAdminMoveErrors(t *testing.T) {
	u, ts := testServer(t, 4, false)
	partID := "p-eu-south-0"
	target, hosting := moveTarget(t, u, partID)

	post := func(query string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/move"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(""); code != http.StatusBadRequest {
		t.Fatalf("move without params = %d, want 400", code)
	}
	if code := post("?partition=p-nope&target=" + target); code != http.StatusNotFound {
		t.Fatalf("move unknown partition = %d, want 404", code)
	}
	if code := post("?partition=" + partID + "&target=se-nope"); code != http.StatusNotFound {
		t.Fatalf("move unknown target = %d, want 404", code)
	}
	if code := post("?partition=" + partID + "&target=" + hosting); code != http.StatusConflict {
		t.Fatalf("move onto hosting element = %d, want 409", code)
	}
	part, _ := u.Partition(partID)
	if code := post("?partition=" + partID + "&target=" + part.Master().Element); code != http.StatusConflict {
		t.Fatalf("move onto current master = %d, want 409", code)
	}
}

// TestAdminMoveInFlight holds a migration open mid-copy and pins two
// contracts at once: a second move over HTTP gets 409 busy, and the
// migration-progress gauge exports the held phase.
func TestAdminMoveInFlight(t *testing.T) {
	u, ts := testServer(t, 4, false)
	partID := "p-eu-south-0"
	target, _ := moveTarget(t, u, partID)

	hold := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		_, err := u.MigratePartition(ctx, partID, target, false,
			core.WithMigrateHooks(rebalance.Hooks{AfterCopy: func() {
				close(entered)
				<-hold
			}}))
		done <- err
	}()
	<-entered

	resp, err := http.Post(ts.URL+"/admin/move?partition="+partID+"&target="+target, "", nil)
	if err != nil {
		close(hold)
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		close(hold)
		t.Fatalf("move during migration = %d, want 409", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		close(hold)
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	phaseLine := `udr_migration_phase{partition="` + partID + `"} 2`
	if !strings.Contains(string(scrape), phaseLine+"\n") {
		close(hold)
		t.Fatalf("missing %q (catch-up phase) in scrape", phaseLine)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held migration failed: %v", err)
	}
}

func TestAdminRebalance(t *testing.T) {
	_, ts := testServer(t, 8, false)
	resp, err := http.Post(ts.URL+"/admin/rebalance", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance = %d", resp.StatusCode)
	}
	rb := decode[RebalanceResponse](t, resp)
	if rb.Failed != 0 || len(rb.Moves) != rb.Planned {
		t.Fatalf("rebalance report = %+v", rb)
	}
}

// TestAdminErrorClasses is DESIGN.md's control-operation error-class
// table: every class, driven through both codecs, gets its one LDAP
// result code (udrctl) and its one HTTP status (/admin/*, /status,
// /trace).
func TestAdminErrorClasses(t *testing.T) {
	aborted := func(cause error) error {
		return fmt.Errorf("%w: p-x se-a->se-b at copy: %w", rebalance.ErrAborted, cause)
	}
	for _, tc := range []struct {
		name  string
		err   error
		class core.ErrClass
		ldap  ldap.ResultCode
		http  int
	}{
		{"success", nil, core.ClassOther, ldap.ResultSuccess, http.StatusOK},
		{"unknown partition", fmt.Errorf("%w: %q", core.ErrUnknownPartition, "p-x"), core.ClassNotFound, ldap.ResultNoSuchObject, http.StatusNotFound},
		{"unknown element", fmt.Errorf("%w: %q", core.ErrUnknownElement, "se-x"), core.ClassNotFound, ldap.ResultNoSuchObject, http.StatusNotFound},
		{"unknown trace", fmt.Errorf("%w: 00000000deadbeef", core.ErrUnknownTrace), core.ClassNotFound, ldap.ResultNoSuchObject, http.StatusNotFound},
		{"move in flight", fmt.Errorf("%w: p-x", core.ErrMigrationInFlight), core.ClassBusy, ldap.ResultBusy, http.StatusConflict},
		{"target hosts a copy", aborted(rebalance.ErrConflict), core.ClassConflict, ldap.ResultUnwillingToPerform, http.StatusConflict},
		{"anti-entropy off", core.ErrAntiEntropyDisabled, core.ClassDisabled, ldap.ResultUnwillingToPerform, http.StatusConflict},
		{"no topology", core.ErrNoTopology, core.ClassUnavailableHere, ldap.ResultUnwillingToPerform, http.StatusServiceUnavailable},
		{"malformed", fmt.Errorf("%w: move wants a partition and a target element", core.ErrBadRequest), core.ClassBadRequest, ldap.ResultProtocolError, http.StatusBadRequest},
		{"admin deadline", aborted(context.DeadlineExceeded), core.ClassTimeout, ldap.ResultTimeLimitExceeded, http.StatusGatewayTimeout},
		{"partial repair", simnet.ErrUnreachable, core.ClassOther, ldap.ResultOther, http.StatusInternalServerError},
		{"failed moves", errors.New("1 of 2 moves failed"), core.ClassOther, ldap.ResultOther, http.StatusInternalServerError},
	} {
		if tc.err != nil {
			if got := core.AdminClass(tc.err); got != tc.class {
				t.Errorf("%s: class %d, want %d", tc.name, got, tc.class)
			}
		}
		if got := core.AdminResult(tc.err).Code; got != tc.ldap {
			t.Errorf("%s: LDAP %v, want %v", tc.name, got, tc.ldap)
		}
		if got := httpStatus(tc.err); got != tc.http {
			t.Errorf("%s: HTTP %d, want %d", tc.name, got, tc.http)
		}
	}
}
