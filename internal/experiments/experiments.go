// Package experiments regenerates every figure and quantitative
// claim of the paper as a measured experiment (the E1–E24 index in
// EXPERIMENTS.md). Each experiment builds its own UDR topology, drives
// it, and emits a Report whose rows mirror the series the paper
// states; the few whose figures benchmark/ measures (benchmarked.go)
// have no driver and point there instead.
//
// Experiments run at a compressed time/size scale; each report
// records the scale used so EXPERIMENTS.md can state paper-vs-
// measured honestly.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks populations and durations for test/bench use.
	Quick bool
	// Seed drives all randomized choices.
	Seed int64
}

// Report is an experiment's result.
type Report struct {
	ID    string
	Title string

	mu    sync.Mutex
	rows  [][]string
	notes []string
	// Checks are named pass/fail assertions about the paper's claim
	// shape (who wins, direction of effects). Tests assert on them.
	checks map[string]bool
}

// NewReport creates an empty report.
func NewReport(id, title string) *Report {
	return &Report{ID: id, Title: title, checks: make(map[string]bool)}
}

// AddRow appends a table row.
func (r *Report) AddRow(cols ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows = append(r.rows, cols)
}

// Rowf appends a formatted single-column row.
func (r *Report) Rowf(format string, args ...any) {
	r.AddRow(fmt.Sprintf(format, args...))
}

// Note appends a free-form note.
func (r *Report) Note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Check records a named claim-shape assertion.
func (r *Report) Check(name string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks[name] = ok
}

// Checks returns a copy of the recorded assertions.
func (r *Report) Checks() map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]bool, len(r.checks))
	for k, v := range r.checks {
		out[k] = v
	}
	return out
}

// Passed reports whether every check passed (and at least one check
// exists).
func (r *Report) Passed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checks) == 0 {
		return false
	}
	for _, ok := range r.checks {
		if !ok {
			return false
		}
	}
	return true
}

// Rows returns a copy of the table rows.
func (r *Report) Rows() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, len(r.rows))
	copy(out, r.rows)
	return out
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	// Column widths.
	widths := map[int]int{}
	for _, row := range r.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range r.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	// Deterministic check output.
	names := make([]string, 0, len(r.checks))
	for n := range r.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		status := "PASS"
		if !r.checks[n] {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check: %-50s %s\n", n, status)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(ctx context.Context, opts Options) (*Report, error)

// entry describes a registered experiment.
type entry struct {
	id     string
	title  string
	source string // paper section / figure
	run    Runner
	// pointer, set instead of run, says where an experiment whose
	// figures benchmark/ measures is run and which tests assert its
	// claims.
	pointer string
}

var registry = map[string]entry{}

func register(id, title, source string, run Runner) {
	registry[id] = entry{id: id, title: title, source: source, run: run}
}

// registerPointer indexes an experiment that has no driver here.
func registerPointer(id, title, source, pointer string) {
	registry[id] = entry{id: id, title: title, source: source, pointer: pointer}
}

// Pointer returns where an experiment without a driver here is
// measured and asserted; ok is false for every other ID.
func Pointer(id string) (pointer string, ok bool) {
	e := registry[id]
	return e.pointer, e.pointer != ""
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		return idNum(out[i]) < idNum(out[j])
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Describe returns an experiment's title and paper source.
func Describe(id string) (title, source string, ok bool) {
	e, ok := registry[id]
	return e.title, e.source, ok
}

// Run executes one experiment by ID.
func Run(ctx context.Context, id string, opts Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if e.run == nil {
		return nil, fmt.Errorf("experiments: %s has no driver here:\n%s", id, e.pointer)
	}
	return e.run(ctx, opts)
}
