package main

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// committed are the artifacts at the repo root that `make benchcheck`
// gates.
var committed = []string{"BENCH_pr6.json", "BENCH_pr9.json", "BENCH_pr10.json"}

// writeArtifact writes blob to a fresh file and returns its path.
func writeArtifact(t *testing.T, blob string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCommittedArtifactsPass(t *testing.T) {
	for _, name := range committed {
		if err := check(filepath.Join("..", "..", name), defaults); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUnreadableArtifactsRefused: an artifact benchcheck cannot route is
// an error, never a gate failure and never a pass.
func TestUnreadableArtifactsRefused(t *testing.T) {
	for _, tc := range []struct {
		name, path, want string
	}{
		{"missing", filepath.Join(t.TempDir(), "absent.json"), "no such file"},
		{"not JSON", writeArtifact(t, "null_ns_per_op: 80"), "invalid character"},
		{"kindless", writeArtifact(t, `{"null_ns_per_op": 80, "calib_ns_per_op": 2}`), `no "bench" field`},
		{"unknown kind", writeArtifact(t, `{"bench": "throughput"}`), `unknown bench "throughput"`},
	} {
		err := check(tc.path, defaults)
		if err == nil || errors.Is(err, errFail) {
			t.Errorf("%s: err = %v, want a read error", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), filepath.Base(tc.path)) {
			t.Errorf("%s: err = %q, want the file and %q", tc.name, err, tc.want)
		}
	}
}

func TestChainSpeedupUnderFloorFails(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pr10.json"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"tcp_chain_speedup": [0-9.]+`)
	if !re.Match(blob) {
		t.Fatal("BENCH_pr10.json has no tcp_chain_speedup")
	}
	slow := re.ReplaceAll(blob, []byte(`"tcp_chain_speedup": 1.5`))
	err = check(writeArtifact(t, string(slow)), defaults)
	if !errors.Is(err, errFail) || !strings.Contains(err.Error(), "tcp chain speedup") {
		t.Errorf("err = %v, want a tcp chain speedup FAIL", err)
	}
}

// TestNoOrphanArtifacts: every BENCH_*.json at the repo root is gated by
// exactly one line of the Makefile's benchcheck recipe, and every file
// the recipe names exists.
func TestNoOrphanArtifacts(t *testing.T) {
	root := filepath.Join("..", "..")
	f, err := os.Open(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	artifact := regexp.MustCompile(`BENCH_\w+\.json`)
	gated := map[string]int{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "benchcheck:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		for _, name := range artifact.FindAllString(line, -1) {
			gated[name]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(gated) == 0 {
		t.Fatal("no benchcheck recipe in the Makefile")
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, path := range files {
		name := filepath.Base(path)
		onDisk[name] = true
		if n := gated[name]; n != 1 {
			t.Errorf("%s is checked by %d benchcheck recipe lines, want 1", name, n)
		}
	}
	for name := range gated {
		if !onDisk[name] {
			t.Errorf("the benchcheck recipe names %s, which does not exist", name)
		}
	}
}
