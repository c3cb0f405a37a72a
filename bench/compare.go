package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is what the benchmark reads of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, for every workload and end-to-end metric, both
// values, b's difference from a as a share of a, and the bound; it
// reports false when any difference exceeds its bound in either
// direction — two runs of one commit must agree both ways — or when b
// failed a larger share of its calls than a.
func compareReports(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var sp spec
	var a, b report
	for path, v := range map[string]any{specPath: &sp, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	ok := true
	fmt.Fprintf(w, "a = %s\nb = %s\n%-15s %-12s %14s %14s %18s %6s\n", aPath, bPath, "workload", "metric", "a", "b", "(b-a)/a", "bound")
	for _, wl := range sp.Workloads {
		ra, inA := a.Workloads[wl.Name]
		rb, inB := b.Workloads[wl.Name]
		if !inA || !inB {
			fmt.Fprintf(w, "%-15s skipped: not in both files\n", wl.Name)
			continue
		}
		for _, em := range sp.EndToEnd {
			va, vb := ra.Metrics[em.Name].Value, rb.Metrics[em.Name].Value
			diff := ratio(vb-va, va)
			verdict := ""
			if diff > em.Bound || diff < -em.Bound {
				verdict = "worse"
				if (diff > 0) == (em.Better == "higher") {
					verdict = "better"
				}
				verdict = " EXCEEDS BOUND (" + verdict + ")"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %+10.2f%% of a %6.2f%s\n", wl.Name, em.Name, va, vb, 100*diff, em.Bound, verdict)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := ""
		if fb > fa {
			verdict = " EXCEEDS BOUND (any rise fails)"
			ok = false
		}
		fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %18s %6d%s\n", wl.Name, "fail_ratio", fa, fb, "", 0, verdict)
	}
	return ok, nil
}
