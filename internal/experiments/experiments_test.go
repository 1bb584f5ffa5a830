package experiments

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E22", "E23", "E24"}
	if len(ids) != len(want) {
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("order: %v", ids)
		}
		title, source, ok := Describe(id)
		if !ok || title == "" || source == "" {
			t.Fatalf("describe(%s) = %q %q %v", id, title, source, ok)
		}
	}
}

// TestPointersNameLiveTests keeps each driverless experiment's
// pointer honest: it is not runnable, and every test, benchmark metric
// and workload it names exists.
func TestPointersNameLiveTests(t *testing.T) {
	var tests, bench strings.Builder
	for _, pattern := range []string{"../*/*_test.go", "../../benchmark/*.go"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v", pattern, err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(pattern, "_test.go") {
				tests.Write(b)
			} else {
				bench.Write(b)
			}
		}
	}
	testRE := regexp.MustCompile(`Test\w+`)
	metricRE := regexp.MustCompile(`\b(store|se|locator|core|fecache|ldap|wal|replication|simnet|fe)\.[a-z_]+`)
	workloadRE := regexp.MustCompile(`--workload (\w+)`)
	var pointed []string
	for _, id := range IDs() {
		p, ok := Pointer(id)
		if !ok {
			continue
		}
		pointed = append(pointed, id)
		if _, err := Run(context.Background(), id, Options{Quick: true}); err == nil {
			t.Errorf("%s ran without a driver", id)
		}
		for _, name := range testRE.FindAllString(p, -1) {
			if !strings.Contains(tests.String(), "func "+name+"(") {
				t.Errorf("%s names %s, which no test declares", id, name)
			}
		}
		for _, name := range metricRE.FindAllString(p, -1) {
			// A rung's _ns metric is its name plus the suffix.
			if !strings.Contains(bench.String(), strings.TrimSuffix(name, "_ns")) {
				t.Errorf("%s names %s, which benchmark/ does not emit", id, name)
			}
		}
		for _, m := range workloadRE.FindAllStringSubmatch(p, -1) {
			if !strings.Contains(bench.String(), `name: "`+m[1]+`"`) {
				t.Errorf("%s names workload %s, which benchmark/ does not define", id, m[1])
			}
		}
	}
	if want := []string{"E12", "E13", "E17", "E18", "E23"}; !slices.Equal(pointed, want) {
		t.Fatalf("pointers registered for %v, want %v", pointed, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(context.Background(), "E99", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// runQuick runs one experiment in quick mode and asserts that every
// claim-shape check passed.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, id, Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	for name, ok := range rep.Checks() {
		if !ok {
			t.Errorf("%s check failed: %s\n%s", id, name, rep)
		}
	}
	if !rep.Passed() {
		t.Fatalf("%s did not pass:\n%s", id, rep)
	}
	if len(rep.Rows()) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return rep
}

func TestE1Resilience(t *testing.T)    { runQuick(t, "E1") }
func TestE2Provisioning(t *testing.T)  { runQuick(t, "E2") }
func TestE3Partition(t *testing.T)     { runQuick(t, "E3") }
func TestE4Replication(t *testing.T)   { runQuick(t, "E4") }
func TestE5SlaveReads(t *testing.T)    { runQuick(t, "E5") }
func TestE6PSReads(t *testing.T)       { runQuick(t, "E6") }
func TestE7Capacity(t *testing.T)      { runQuick(t, "E7") }
func TestE8Locator(t *testing.T)       { runQuick(t, "E8") }
func TestE9ScaleOut(t *testing.T)      { runQuick(t, "E9") }
func TestE10Batch(t *testing.T)        { runQuick(t, "E10") }
func TestE11MultiMaster(t *testing.T)  { runQuick(t, "E11") }
func TestE14FiveNines(t *testing.T)    { runQuick(t, "E14") }
func TestE15ProcedureOps(t *testing.T) { runQuick(t, "E15") }
func TestE16AntiEntropy(t *testing.T)  { runQuick(t, "E16") }
func TestE19Consistency(t *testing.T)  { runQuick(t, "E19") }
func TestE20Rebalance(t *testing.T)    { runQuick(t, "E20") }
func TestE22FECache(t *testing.T)      { runQuick(t, "E22") }
func TestE24Checkpoint(t *testing.T)   { runQuick(t, "E24") }

func TestReportRendering(t *testing.T) {
	rep := NewReport("EX", "test report")
	rep.AddRow("col1", "col2")
	rep.AddRow("a", "bb")
	rep.Note("a note")
	rep.Check("something", true)
	s := rep.String()
	for _, want := range []string{"EX", "test report", "col1", "a note", "PASS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	rep.Check("bad", false)
	if rep.Passed() {
		t.Fatal("report with failing check passed")
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Fatal("FAIL not rendered")
	}
}

func TestReportNoChecksNotPassed(t *testing.T) {
	rep := NewReport("EX", "empty")
	if rep.Passed() {
		t.Fatal("empty report should not pass")
	}
}
