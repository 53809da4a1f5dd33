package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// loadResults reads every untraced -out result in dir, grouped by workload.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced results in %s", dir)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compare prints, per workload and end-to-end metric, each set's median and
// quartiles and whether B stays within the metric's bound of A. A metric
// whose spread (IQR over median) exceeds its bound in either set is
// unresolved: the runs cannot tell a change of that size from noise.
func compare(benchPath, dirA, dirB string, w io.Writer) error {
	def, err := loadBenchDef(benchPath)
	if err != nil {
		return err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-16s %27s %27s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "verdict")
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := ratio(b2-a2, a2)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
			case -worse > m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-16s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g] %+7.1f%%  %s (bound %.0f%%, %d vs %d runs)\n",
				wl, m.Name, a2, a1, a3, b2, b1, b3, 100*change, verdict, 100*m.Bound, len(va), len(vb))
		}
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
