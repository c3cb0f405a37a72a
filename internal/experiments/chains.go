package experiments

// Server-side continuation chains: the cost of a depth-N dependent
// pipeline when the whole chain is shipped to the server's domain as
// one descriptor (CallChain — one frame, one doorbell, zero
// intermediate result transfers) against the same pipeline driven from
// the client as blocking sequential calls. The PR-10 acceptance rows
// are the shm and TCP speedup-vs-sequential numbers: the server-side
// chain must beat the client-driven pipeline by the floor
// cmd/benchcheck enforces (-min-chain-speedup), because every link it
// removes was a full cross-domain round trip.
//
// cmd/lrpcbench owns the process wiring (it re-execs itself as the
// serving process for shm and TCP); this file owns the served
// interface, the estimators, and the artifact schema (BENCH_pr10.json).

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lrpc"
)

// ChainDepth is the dependent-pipeline length of the chain experiment
// (A→B→C→D).
const ChainDepth = 4

// ChainInterfaceName is the name ChainInterface exports under.
const ChainInterfaceName = "Chain"

// chainNull is ChainInterface's one proc: no args, no results.
const chainNull = 0

// ChainInterface builds the export the chain rig serves on every
// transport: the one Null proc each link of the pipeline calls.
func ChainInterface() *lrpc.Interface {
	return &lrpc.Interface{
		Name: ChainInterfaceName,
		Procs: []lrpc.Proc{
			{Name: "Null", AStackSize: 64, NumAStacks: 16,
				Handler: func(c *lrpc.Call) { c.ResultsBuf(0) }},
		},
	}
}

// ChainClient is the slice of a client the chain rig needs; Binding,
// ShmClient, and NetClient all provide it.
type ChainClient interface {
	Call(proc int, args []byte) ([]byte, error)
	CallChain(ch *lrpc.Chain) ([]byte, error)
}

// ChainPoint is one transport's row: the same Depth-long dependent
// pipeline timed both ways — blocking sequential calls and one
// server-side CallChain submission. SpeedupVsSequential is
// SequentialNsPerChain over ChainNsPerChain, the acceptance number.
type ChainPoint struct {
	Transport            string  `json:"transport"`
	Depth                int     `json:"depth"`
	SequentialNsPerChain float64 `json:"sequential_ns_per_chain"`
	ChainNsPerChain      float64 `json:"chain_ns_per_chain"`
	SpeedupVsSequential  float64 `json:"speedup_vs_sequential"`
}

// ChainResult is the full chain artifact (BENCH_pr10.json). Bench is
// the artifact discriminator cmd/benchcheck sniffs ("chain").
type ChainResult struct {
	Bench        string  `json:"bench"`
	NumCPU       int     `json:"num_cpu"`
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
	// ShmChainSpeedup and TCPChainSpeedup are the per-transport
	// acceptance numbers: sequential-calls ns/chain over server-side
	// CallChain ns/chain at ChainDepth. ShmChainSpeedup is
	// zero when the shm transport is absent (non-Linux hosts).
	ShmChainSpeedup float64      `json:"shm_chain_speedup"`
	TCPChainSpeedup float64      `json:"tcp_chain_speedup"`
	Points          []ChainPoint `json:"points"`
}

// MeasureChain times one transport's Depth-long dependent pipeline
// both ways. Both arms run the same Depth Null handlers; what varies is
// who drives the links — the caller (blocking round trips) or the
// server's chain executor (one round trip total).
func MeasureChain(name string, c ChainClient, depth int) (ChainPoint, error) {
	p := ChainPoint{Transport: name, Depth: depth}

	seq := func() error {
		for i := 0; i < depth; i++ {
			if _, err := c.Call(chainNull, nil); err != nil {
				return err
			}
		}
		return nil
	}
	ch := lrpc.NewChain()
	for i := 0; i < depth; i++ {
		ch.Add(chainNull, nil)
	}
	chained := func() error {
		_, err := c.CallChain(ch)
		return err
	}

	var err error
	if p.SequentialNsPerChain, err = chainWindowNs(seq); err != nil {
		return p, fmt.Errorf("chain %s sequential: %w", name, err)
	}
	if p.ChainNsPerChain, err = chainWindowNs(chained); err != nil {
		return p, fmt.Errorf("chain %s server-side: %w", name, err)
	}
	if p.ChainNsPerChain > 0 {
		p.SpeedupVsSequential = p.SequentialNsPerChain / p.ChainNsPerChain
	}
	return p, nil
}

// FinishChainResult stamps the host fields and the per-transport
// acceptance numbers onto the measured rows.
func FinishChainResult(points []ChainPoint) ChainResult {
	r := ChainResult{
		Bench:        "chain",
		NumCPU:       runtime.NumCPU(),
		CalibNsPerOp: calibNsPerOp(),
		Points:       points,
	}
	for _, p := range points {
		switch p.Transport {
		case "shm":
			r.ShmChainSpeedup = p.SpeedupVsSequential
		case "tcp":
			r.TCPChainSpeedup = p.SpeedupVsSequential
		}
	}
	return r
}

// chainWindowNs estimates ns per chain, best-of-windows minimum: each
// window runs ~2 ms of chains and the best window wins, the standard
// latency estimator on shared hardware, where any one window can absorb
// a descheduling or a GC cycle.
func chainWindowNs(run func() error) (float64, error) {
	const (
		window  = 2 * time.Millisecond
		reps    = 50
		warmups = 8
	)
	for i := 0; i < warmups; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	best := math.MaxFloat64
	for rep := 0; rep < reps; rep++ {
		var chains int
		start := time.Now()
		var elapsed time.Duration
		for elapsed < window {
			if err := run(); err != nil {
				return 0, err
			}
			chains++
			elapsed = time.Since(start)
		}
		if ns := float64(elapsed.Nanoseconds()) / float64(chains); ns < best {
			best = ns
		}
	}
	return best, nil
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibNsPerOp times a fixed xorshift64 loop with the same best-of-short-
// windows minimum estimator — the artifact's record of how fast this
// host ran scalar code at the moment the chains were timed. The loop has
// no memory traffic and no branches that depend on data, so its speed
// tracks the host clock and nothing else.
func calibNsPerOp() float64 {
	const iters = 100_000
	const reps = 40
	best := math.MaxFloat64
	x := uint64(88172645463325252)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if ns := float64(time.Since(start).Nanoseconds()) / iters; ns < best {
			best = ns
		}
	}
	calibSink = x
	return best
}

// ChainTable renders the chain artifact for terminal output.
func ChainTable(r ChainResult) *Table {
	t := &Table{
		Title:  "Server-side chains: depth-" + us(float64(ChainDepth)) + " dependent pipeline (ns/chain, best-of-windows minimum)",
		Header: []string{"transport", "depth", "sequential", "CallChain", "speedup vs sequential"},
		Notes: []string{
			us(float64(r.NumCPU)) + " CPUs available; calibration " + us1(r.CalibNsPerOp) + " ns/op scalar loop",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Transport, us(float64(p.Depth)),
			us(p.SequentialNsPerChain), us(p.ChainNsPerChain),
			us1(p.SpeedupVsSequential) + "x",
		})
	}
	return t
}
