package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The cross-process workloads re-execute the running binary as their
// server; under go test that binary is this test.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := runChild(); err != nil {
			fmt.Fprintln(os.Stderr, "bench server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func names(m metrics) []string {
	var s []string
	for name := range m {
		s = append(s, name)
	}
	sort.Strings(s)
	return s
}

func specNames(ms []specMetric) []string {
	var s []string
	for _, m := range ms {
		s = append(s, m.Name)
	}
	sort.Strings(s)
	return s
}

// TestBenchmark runs every workload and the traced stage briefly. It
// asserts no timing: only that BENCHMARK.json and the program name the
// same workloads and metrics, that every result is verified, that the
// stamped legs account for the traced call exactly, and that no server
// process or socket directory outlives its workload.
func TestBenchmark(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
	}
	cfg := config{seed: 1, outDir: t.TempDir(), probe: 5 * time.Millisecond}
	skipped := map[string]bool{}

	for _, w := range workloads {
		p, setups, err := runWorkload(w, cfg, 200*time.Millisecond)
		if errors.Is(err, errSkipped) {
			skipped[w.name] = true
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if p.failed != 0 || p.attempted == 0 {
			t.Errorf("%s: %d of %d calls failed", w.name, p.failed, p.attempted)
		}
		m := endToEnd(p, median(setups))
		if got, want := names(m), specNames(sp.EndToEnd); !equal(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json has %v", w.name, got, want)
		}
		for name, v := range m {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, name, v.Value)
			}
		}
	}

	m, runs, err := runLayers(cfg, 100*time.Millisecond, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		if skipped[w.name] {
			continue
		}
		callerMetrics(m, runs[w.name].untraced, runs[w.name])
		if r := m["caller.trace_overhead_ratio"].Value; r <= 0 {
			t.Errorf("%s: caller.trace_overhead_ratio = %v", w.name, r)
		}
	}
	if len(skipped) == 0 {
		if got, want := names(m), specNames(sp.PerLayer); !equal(got, want) {
			t.Errorf("per-layer metrics differ from BENCHMARK.json:\n only emitted: %v\n only declared: %v", minus(got, want), minus(want, got))
		}
		// Both hold only off the race detector, which makes the pools
		// drop items.
		if v := m["lrpc.allocs_per_call"].Value; v != 0 && !raceEnabled {
			t.Errorf("lrpc.allocs_per_call = %v, want 0", v)
		}
		if v := m["astack.overflow_ratio"].Value; v != 0 && !raceEnabled {
			t.Errorf("astack.overflow_ratio = %v, want 0", v)
		}
	}
	for _, sm := range append(sp.EndToEnd, sp.PerLayer...) {
		if !valid.MatchString(sm.Name) || len(sm.Name) > 64 {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", sm.Name)
		}
	}

	for workload, call := range map[string]string{"shm-small": "ShmClient.Call", "tcp-small": "NetClient.Call"} {
		if skipped[workload] {
			continue
		}
		var spans []struct {
			Name           string
			Start          int64 `json:"start_ns"`
			End            int64 `json:"end_ns"`
			Parent         int
			OpID           int `json:"op_id"`
			legs, children int64
		}
		if err := readJSON(filepath.Join(cfg.outDir, "trace-"+workload+".json"), &spans); err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if s.Parent >= 0 && spans[s.Parent].Name == call {
				spans[s.Parent].legs += s.End - s.Start
				spans[s.Parent].children++
			}
		}
		calls := 0
		for _, s := range spans {
			if s.Name != call {
				continue
			}
			calls++
			if s.children != 3 || s.legs != s.End-s.Start {
				t.Fatalf("%s: op %d: %d legs sum to %d ns, the call took %d ns", workload, s.OpID, s.children, s.legs, s.End-s.Start)
			}
		}
		if calls == 0 {
			t.Errorf("%s: no traced calls in the span file", workload)
		}
	}

	// Nothing is left behind: every server's socket directory is gone.
	if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "server-*")); len(left) > 0 {
		t.Errorf("socket directories left behind: %v", left)
	}
}

// TestChildReaped checks the server process's whole life: READY
// handshake, a STATS answer, exit on stdin EOF, reaped by close.
func TestChildReaped(t *testing.T) {
	dir := t.TempDir()
	c, err := startChild(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.stats(); err != nil {
		t.Error(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if st := c.cmd.ProcessState; st == nil || !st.Exited() || st.ExitCode() != 0 {
		t.Errorf("server not reaped cleanly: %v", st)
	}
	if _, err := os.Stat(c.dir); !os.IsNotExist(err) {
		t.Errorf("socket directory %s still exists (%v)", c.dir, err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, callsPerS float64, failed uint64) string {
		m := metrics{}
		for _, n := range []string{"lat_p50_ns", "lat_p90_ns", "bytes_per_s", "setup_s"} {
			m.put(n, "", 1)
		}
		m.put("calls_per_s", "calls/s", callsPerS)
		rep := report{Workloads: map[string]result{}}
		for _, w := range workloads {
			rep.Workloads[w.name] = result{failed == 0, 1000, failed, m}
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0)
	for _, tc := range []struct {
		name string
		path string
		ok   bool
	}{
		{"within the bound", write("b.json", 1010, 0), true},
		{"slower than the bound", write("c.json", 500, 0), false},
		{"faster than the bound", write("d.json", 2000, 0), false},
		{"a failed call", write("e.json", 1000, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compareReports(&out, filepath.Join("..", "BENCHMARK.json"), base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare reported %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}

func equal(a, b []string) bool {
	return len(minus(a, b)) == 0 && len(minus(b, a)) == 0
}

// minus returns the names in a that are not in b.
func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var d []string
	for _, s := range a {
		if !in[s] {
			d = append(d, s)
		}
	}
	return d
}
