// Command bench is the repository's one repeatable benchmark of the call
// path: seven closed-loop workloads over the three wall-clock transports,
// end-to-end metrics measured with tracing off, and a per-layer budget
// measured from outside the program in a separate traced stage. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                       every workload, two rounds, then the traced stage
//	go run ./bench -workload shm-small   one workload
//	go run ./bench -workload shm-small -seed 7 -seconds 10 -trace 0|1
//	                                     one measured run; the last line of output is its JSON result
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type config struct {
	seed   int64
	outDir string
	// setupFor is how long a run keeps repeating set-up (at least once, at
	// most 200 times); setup_s is the median.
	setupFor time.Duration
	// probe is the length of each fixed probe of the traced stage; they
	// time one public function in a tight loop, so a short run already
	// holds thousands of samples.
	probe time.Duration
}

// hostInfo is the block every output starts with.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CalibNs    float64 `json:"calib_ns_per_op"`
	Seed       int64   `json:"seed"`
	RunLengths string  `json:"run_lengths"`
	Link       string  `json:"link"`
}

func host(cfg config, lengths string) hostInfo {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel += " " + strings.TrimSpace(string(b))
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, CalibNs: calibrate(cfg.probe), Seed: cfg.seed, RunLengths: lengths,
		Link: "loopback, not a real link",
	}
}

func (h hostInfo) print() {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s kernel=%q calib=%.3f ns/op seed=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CalibNs, h.Seed)
	fmt.Printf("runs: %s; closed loop, one caller; traffic crosses the host's %s\n", h.RunLengths, h.Link)
}

// bestQuarter is the mean of the best quarter of the windows. The shared
// host this runs on flips, for seconds to minutes at a time, between
// discrete speeds a quarter apart (README, "Measured spread"): a median
// over windows jumps by that quarter whenever the slow state's share of a
// run crosses one half, while the best quarter stays on the undisturbed
// state as long as a run sees it a quarter of the time, and as a mean it
// moves smoothly when it does not.
func bestQuarter(v []float64, higherIsBetter bool) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:(len(s)+3)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// endToEnd reduces a workload's run to the end-to-end metrics, all
// measured with tracing off. Rates and the median latency are what the
// host allows undisturbed: the best quarter of the windows. The 90th
// percentile is there to show disturbance, so it is taken over every
// sample of the run.
func endToEnd(p *pass, setupS float64) metrics {
	col := func(f func(*windowStats) float64) []float64 {
		v := make([]float64, len(p.wins))
		for i := range p.wins {
			v[i] = f(&p.wins[i])
		}
		return v
	}
	m := metrics{}
	m.put("calls_per_s", "calls/s", bestQuarter(col(func(w *windowStats) float64 { return w.CallsPerS }), true))
	m.put("lat_p50_ns", "ns", bestQuarter(col(func(w *windowStats) float64 { return w.P50Ns }), false))
	m.put("lat_p90_ns", "ns", quantile(p.latencies(), 0.9))
	m.put("bytes_per_s", "B/s", bestQuarter(col(func(w *windowStats) float64 { return w.BytesPerS }), true))
	m.put("setup_s", "s", setupS)
	return m
}

// writeWindows keeps the samples behind the reported numbers: every
// window, and the percentiles over all of the run's latency samples.
func writeWindows(dir, workload string, p *pass) error {
	lat := p.latencies()
	b, err := json.Marshal(struct {
		Samples int           `json:"samples"`
		P50Ns   float64       `json:"lat_p50_ns"`
		P90Ns   float64       `json:"lat_p90_ns"`
		P99Ns   float64       `json:"lat_p99_ns"`
		Windows []windowStats `json:"windows"`
	}{len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), p.wins})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "windows-"+workload+".json"), append(b, '\n'), 0o644)
}

// runWorkload sets the workload up (repeatedly, keeping the last),
// measures it untraced for dur, and cross-checks the servers' counters
// against the calls attempted. It returns the pass and how long each
// set-up took.
func runWorkload(w *workload, cfg config, dur time.Duration) (*pass, []float64, error) {
	var in *instance
	var setups []float64
	for start := time.Now(); in == nil || time.Since(start) < cfg.setupFor && len(setups) < 200; {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, err
			}
		}
		var took time.Duration
		var err error
		if in, took, err = setUp(w, cfg.seed, cfg.outDir, false); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
	}
	run := func() (*pass, error) {
		c0, err := in.counters()
		if err != nil {
			return nil, err
		}
		p := runPass(in.step, nil, dur)
		c1, err := in.counters()
		if err != nil {
			return p, err
		}
		return p, checkCounts(in, p, c0, c1)
	}
	p, err := run()
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return p, setups, err
}

// result is the last line a single measured run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %18.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runOne is a single measured run of one workload: end-to-end metrics
// with tracing off, or — traced — every per-layer metric. The traced
// stage drives all seven workloads briefly, because a layer's metric is
// a difference between workloads as often as a span inside one.
func runOne(w *workload, cfg config, seconds int, traced bool) (result, error) {
	res := result{}
	dur := time.Duration(seconds) * time.Second
	if !traced {
		p, setups, err := runWorkload(w, cfg, dur)
		if p == nil {
			return res, err
		}
		res.Attempted, res.Failed, res.Correct = p.attempted, p.failed, err == nil
		res.Metrics = endToEnd(p, median(setups))
		fmt.Printf("%s: %d calls, %d windows, %d latency samples\n", w.name, p.attempted, len(p.wins), len(p.lat))
		return res, errors.Join(err, writeWindows(cfg.outDir, w.name, p))
	}
	// Fourteen short passes, the fixed probes, and a longer untraced pass
	// of the named workload share the run.
	m, runs, err := runLayers(cfg, dur/20, w.name, dur/5)
	if err != nil {
		return res, err
	}
	lr := runs[w.name]
	if lr == nil {
		return res, errSkipped
	}
	callerMetrics(m, lr.untraced, lr)
	for _, r := range runs {
		res.Attempted += r.untraced.attempted + r.traced.attempted
		res.Failed += r.untraced.failed + r.traced.failed
	}
	res.Correct, res.Metrics = true, m
	return res, nil
}

// report is what a full run writes to <out>/result.json and -compare
// reads.
type report struct {
	Host      hostInfo          `json:"host"`
	Workloads map[string]result `json:"workloads"`
	Layers    metrics           `json:"layers"`
}

// runAll is the full run: rounds of every workload interleaved
// round-robin, so that drift in host speed hits every workload alike,
// then the traced stage.
func runAll(cfg config, seconds int) error {
	const rounds = 2
	length := func(w *workload) time.Duration {
		switch {
		case seconds > 0:
			return time.Duration(seconds) * time.Second
		case w.transport == "inproc":
			return 4 * time.Second
		}
		return 8 * time.Second
	}
	const tracedPer = 2 * time.Second
	lengths := fmt.Sprintf("%d rounds, in-process 4 s and cross-process 8 s each, traced stage 2×%v per workload", rounds, tracedPer)
	if seconds > 0 {
		lengths = fmt.Sprintf("%d rounds of %d s, traced stage 2×%v per workload", rounds, seconds, tracedPer)
	}
	rep := report{Host: host(cfg, lengths), Workloads: map[string]result{}}
	rep.Host.print()

	passes := map[string][]*pass{}
	setups := map[string][]float64{}
	var failure error
	for round := 0; round < rounds; round++ {
		for _, w := range workloads {
			p, took, err := runWorkload(w, cfg, length(w))
			if errors.Is(err, errSkipped) {
				continue
			}
			if p == nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err != nil {
				failure = errors.Join(failure, fmt.Errorf("%s: %w", w.name, err))
			}
			passes[w.name] = append(passes[w.name], p)
			setups[w.name] = append(setups[w.name], took...)
		}
	}
	layers, runs, err := runLayers(cfg, tracedPer, "", 0)
	if err != nil {
		return err
	}
	rep.Layers = layers
	for _, w := range workloads {
		if passes[w.name] == nil {
			fmt.Printf("\n%s: %v\n", w.name, errSkipped)
			continue
		}
		p := merge(passes[w.name])
		m := endToEnd(p, median(setups[w.name]))
		m.put("fail_ratio", "ratio", ratio(float64(p.failed), float64(p.attempted)))
		callerMetrics(m, p, runs[w.name])
		rep.Workloads[w.name] = result{p.failed == 0, p.attempted, p.failed, m}
		failure = errors.Join(failure, writeWindows(cfg.outDir, w.name, p))
		fmt.Printf("\n%s: %d calls attempted, %d failed, %d latency samples\n", w.name, p.attempted, p.failed, len(p.lat))
		printMetrics(m)
	}
	fmt.Printf("\nlayers (traced stage; spans in %s):\n", filepath.Join(cfg.outDir, "trace-<workload>.json"))
	printMetrics(layers)
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return failure
}

func main() {
	if os.Getenv(childEnv) == "1" {
		if err := runChild(); err != nil {
			fmt.Fprintln(os.Stderr, "bench server:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run one workload (default: all seven)")
	seed := flag.Int64("seed", 1, "seed of operand values, call order and bulk-size order")
	seconds := flag.Int("seconds", 0, "seconds measured per workload (default: 4 in-process, 8 cross-process)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace files, result.json and the server's socket")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareReports(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	// Every run repeats set-up so that setup_s is a median: for half a
	// second in each round of a full run, for a second in a single run.
	cfg := config{seed: *seed, outDir: *out, probe: 40 * time.Millisecond, setupFor: 500 * time.Millisecond}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name == "" {
		if err := runAll(cfg, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = 8
	}
	cfg.setupFor = time.Second
	host(cfg, fmt.Sprintf("%s for %d s, trace %d", w.name, *seconds, *trace)).print()
	res, err := runOne(w, cfg, *seconds, *trace == 1)
	if res.Metrics == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(res.Metrics)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}
