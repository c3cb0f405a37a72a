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
// The rig shape matches batching.go: cmd/lrpcbench owns the process
// wiring, this file owns the client-surface interface, the estimators,
// and the artifact schema (BENCH_pr10.json).

import (
	"fmt"
	"runtime"

	"lrpc"
)

// ChainDepth is the dependent-pipeline length of the chain experiment
// (A→B→C→D).
const ChainDepth = 4

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
			if _, err := c.Call(TransportNull, nil); err != nil {
				return err
			}
		}
		return nil
	}
	ch := lrpc.NewChain()
	for i := 0; i < depth; i++ {
		ch.Add(TransportNull, nil)
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
