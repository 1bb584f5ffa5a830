package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// resultSet is the untraced runs of one commit: per workload, per
// metric, the values of every run.
type resultSet map[string]map[string][]float64

// loadResultSet reads one result file, or every *.json result file in
// a directory, and keeps the untraced runs.
func loadResultSet(path string) (resultSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	set := resultSet{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Trace != 0 {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", path)
	}
	return set, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the acceptance rule for this benchmark is written in.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; it
// needs at least two runs.
func spread(vals []float64) (float64, bool) {
	if len(vals) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals)), true
}

// compareSets prints, per workload and end-to-end metric, B's median
// against A's, the bound from BENCHMARK.json and a verdict: fail when B
// is worse than A by more than the bound; unresolved when it is not
// but either set's own spread is wider than the bound, so "no worse"
// cannot be told from noise; pass otherwise. It reports whether no
// pairing failed.
func compareSets(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := loadResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return false, err
	}
	pct := func(v float64, ok bool) string {
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*v)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tB worse by\tbound\tA spread\tB spread\truns\tverdict\t")
	allPass := true
	for _, wl := range bf.Workloads {
		for _, mt := range bf.EndToEnd {
			va, vb := a[wl.Name][mt.Name], b[wl.Name][mt.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%s\t-\t-\t%d/%d\tmissing\t\n", wl.Name, mt.Name,
					pct(mt.Bound, true), len(va), len(vb))
				allPass = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if mt.Better == "higher" {
				worse = -worse
			}
			sa, okA := spread(va)
			sb, okB := spread(vb)
			verdict := "pass"
			switch {
			case worse > mt.Bound:
				verdict = "FAIL"
				allPass = false
			case (okA && sa > mt.Bound) || (okB && sb > mt.Bound):
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\t%s\t%d/%d\t%s\t\n", wl.Name, mt.Name,
				ma, mb, pct(worse, true), pct(mt.Bound, true), pct(sa, okA), pct(sb, okB),
				len(va), len(vb), verdict)
		}
	}
	return allPass, tw.Flush()
}
