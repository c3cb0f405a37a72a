package experiments

// Batched-submission latency: the amortized cost of a Null call when N
// submissions share one doorbell, across the three transports. The
// PR-7 acceptance row is the shm column: at batch 64 the amortized Null
// must beat the per-call Null by the floor cmd/benchcheck enforces
// (-min-batch-speedup), because a batch pays one futex doorbell and one
// bulk completion reap for the whole run of submissions instead of a
// park/wake pair per call.
//
// The rig shape matches transports.go: cmd/lrpcbench owns the process
// wiring, this file owns the client-surface interface, the estimators,
// and the artifact schema (BENCH_pr7.json).

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lrpc"
)

// BatchSizes is the artifact's sweep: per-call (1) and two batched
// points, the second deep enough to amortize the doorbell into noise.
var BatchSizes = []int{1, 8, 64}

// AsyncClient is the slice of a client the batching rig needs; Binding,
// ShmClient, and NetClient all provide it.
type AsyncClient interface {
	Call(proc int, args []byte) ([]byte, error)
	NewBatch() *lrpc.Batch
}

// BatchPoint is one (transport, batch size) row: amortized ns per Null
// call when BatchSize submissions ride one doorbell. BatchSize 1 is
// the synchronous per-call reference.
type BatchPoint struct {
	Transport   string  `json:"transport"`
	BatchSize   int     `json:"batch_size"`
	NullNsPerOp float64 `json:"null_ns_per_op"`
}

// BatchResult is the full batching artifact (BENCH_pr7.json). Bench is
// the artifact discriminator cmd/benchcheck sniffs ("batch").
type BatchResult struct {
	Bench        string  `json:"bench"`
	NumCPU       int     `json:"num_cpu"`
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
	// ShmBatchSpeedup is per-call shm Null over batch-64 amortized shm
	// Null — the PR-7 acceptance number. Zero when the shm transport is
	// absent (non-Linux hosts).
	ShmBatchSpeedup float64      `json:"shm_batch_speedup"`
	Points          []BatchPoint `json:"points"`
}

// MeasureBatch sweeps BatchSizes over one transport, returning a row
// per size. Size 1 goes through the synchronous path (the reference a
// batch must beat); larger sizes stage into one Batch and reap in bulk.
func MeasureBatch(name string, c AsyncClient) ([]BatchPoint, error) {
	var points []BatchPoint
	for _, size := range BatchSizes {
		var ns float64
		var err error
		if size <= 1 {
			ns, err = bestWindowNs(TransportNull, nil, c.Call)
		} else {
			ns, err = batchWindowNs(c, size)
		}
		if err != nil {
			return nil, fmt.Errorf("batch %s size %d: %w", name, size, err)
		}
		points = append(points, BatchPoint{Transport: name, BatchSize: size, NullNsPerOp: ns})
	}
	return points, nil
}

// batchWindowNs is bestWindowNs's batched twin: each probe submits
// `size` Null calls through one Batch (one doorbell, one bulk reap)
// and the amortized per-call minimum over the windows wins.
func batchWindowNs(c AsyncClient, size int) (float64, error) {
	const (
		window  = 2 * time.Millisecond
		reps    = 50
		warmups = 4
	)
	bt := c.NewBatch()
	run := func() error {
		bt.Reset()
		for i := 0; i < size; i++ {
			if _, err := bt.Call(TransportNull, nil); err != nil {
				return err
			}
		}
		return bt.Wait()
	}
	for i := 0; i < warmups; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	best := math.MaxFloat64
	for rep := 0; rep < reps; rep++ {
		var ops int
		start := time.Now()
		var elapsed time.Duration
		for elapsed < window {
			if err := run(); err != nil {
				return 0, err
			}
			ops += size
			elapsed = time.Since(start)
		}
		if ns := float64(elapsed.Nanoseconds()) / float64(ops); ns < best {
			best = ns
		}
	}
	return best, nil
}

// chainWindowNs estimates ns per chain, best-of-windows minimum.
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

// FinishBatchResult stamps the host fields and the shm acceptance
// number onto the measured points.
func FinishBatchResult(points []BatchPoint) BatchResult {
	r := BatchResult{
		Bench:        "batch",
		NumCPU:       runtime.NumCPU(),
		CalibNsPerOp: calibNsPerOp(),
		Points:       points,
	}
	var perCall, batched float64
	maxSize := 0
	for _, p := range points {
		if p.Transport != "shm" {
			continue
		}
		if p.BatchSize == 1 {
			perCall = p.NullNsPerOp
		} else if p.BatchSize > maxSize {
			maxSize, batched = p.BatchSize, p.NullNsPerOp
		}
	}
	if perCall > 0 && batched > 0 {
		r.ShmBatchSpeedup = perCall / batched
	}
	return r
}

// BatchTable renders the batching artifact for terminal output.
func BatchTable(r BatchResult) *Table {
	t := &Table{
		Title:  "Batched submission: amortized Null ns/op by batch size (best-of-windows minimum)",
		Header: []string{"transport", "batch", "Null ns/op"},
		Notes: []string{
			us(float64(r.NumCPU)) + " CPUs available; calibration " + us1(r.CalibNsPerOp) + " ns/op scalar loop",
		},
	}
	if r.ShmBatchSpeedup > 0 {
		t.Notes = append(t.Notes,
			"shm batch amortization: batched Null is "+us1(r.ShmBatchSpeedup)+"x cheaper than per-call")
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{p.Transport, us(float64(p.BatchSize)), us(p.NullNsPerOp)})
	}
	return t
}
