// Command benchcheck validates wall-clock benchmark artifacts.
//
// With two arguments it compares two throughput artifacts (as written
// by `lrpcbench -json throughput`) and fails — exit status 1 — when the
// Null-call latency has regressed more than the allowed percentage
// against the recorded baseline. A benchcmp for the one number the
// paper's Table 4 cares most about.
//
// With one argument it validates a cross-transport artifact (as
// written by `lrpcbench -json shm`, see BENCH_pr5.json) and fails when
// the shm-vs-TCP Null speedup is below the floor — the PR-5 acceptance
// gate: a round trip between two OS processes over shared memory must
// beat the same round trip over TCP loopback by at least that factor.
//
// A one-argument artifact whose "bench" field reads "failover" (as
// written by `lrpcbench -json failover`, see BENCH_pr6.json) is checked
// as a failover-convergence record instead: any double execution is an
// at-most-once violation and fails outright, the client must have made
// progress, and both convergence latencies must be present and under a
// generous ceiling.
//
// A one-argument artifact whose "bench" field reads "batch" (as written
// by `lrpcbench -json batch`, see BENCH_pr7.json) is checked as a
// batched-submission record: every swept point must carry a positive
// latency, and when the shm transport is present its batch-64 amortized
// Null must beat the per-call shm Null by the -min-batch-speedup floor
// — the PR-7 acceptance gate for doorbell batching.
//
// A one-argument artifact whose "bench" field reads "bulk" (as written
// by `lrpcbench -json bulk`, see BENCH_pr8.json) is checked as a
// bulk-bandwidth record: every point must carry positive bandwidth, and
// when the shm transport is present its bytes/sec must be at least
// -min-bulk-bandwidth times TCP's at every payload of 1 MiB and above —
// the PR-8 acceptance gate for the bulk-data plane.
//
// A one-argument artifact whose "bench" field reads "broker" (as
// written by `lrpcbench -json broker`, see BENCH_pr9.json) is checked
// as a multi-tenant isolation record: any double execution across the
// broker crash fails outright, the aggressor flood must not have moved
// the victim's p99 by more than -max-isolation-ratio, the victim must
// have reattached to the restarted broker within the convergence
// ceiling, and the broker must actually have shed aggressor traffic —
// the PR-9 acceptance gate for the broker plane.
//
// A one-argument artifact whose "bench" field reads "chain" (as written
// by `lrpcbench -json chain`, see BENCH_pr10.json) is checked as a
// continuation-chain record: every row must carry positive latencies,
// and the server-side depth-4 CallChain must beat the same pipeline
// issued as sequential calls by the -min-chain-speedup floor on TCP,
// and on shm when the shm transport is present — the PR-10 acceptance
// gate for the chain plane.
//
//	benchcheck [-max-regress 10] BASELINE.json CURRENT.json
//	benchcheck [-min-shm-speedup 5] TRANSPORTS.json
//	benchcheck [-max-converge-ms 30000] FAILOVER.json
//	benchcheck [-min-batch-speedup 3] BATCH.json
//	benchcheck [-min-bulk-bandwidth 1] BULK.json
//	benchcheck [-max-isolation-ratio 3] BROKER.json
//	benchcheck [-min-chain-speedup 2] CHAIN.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lrpc/internal/experiments"
)

func main() {
	maxRegress := flag.Float64("max-regress", 10, "maximum allowed Null ns/op regression, percent")
	minShmSpeedup := flag.Float64("min-shm-speedup", 5, "minimum shm-vs-TCP Null speedup for a transports artifact")
	maxConvergeMs := flag.Float64("max-converge-ms", 30000, "maximum failover/leader-kill convergence for a failover artifact, ms")
	minBatchSpeedup := flag.Float64("min-batch-speedup", 3, "minimum per-call-vs-batched shm Null speedup for a batch artifact")
	minBulkBandwidth := flag.Float64("min-bulk-bandwidth", 1, "minimum shm-over-TCP bytes/sec ratio at large payloads for a bulk artifact")
	maxIsolationRatio := flag.Float64("max-isolation-ratio", 3, "maximum victim p99 inflation under aggressor flood for a broker artifact")
	minChainSpeedup := flag.Float64("min-chain-speedup", 2, "minimum server-side-chain-vs-sequential-calls speedup for a chain artifact")
	flag.Parse()
	switch flag.NArg() {
	case 1:
		switch benchKind(flag.Arg(0)) {
		case "failover":
			checkFailover(flag.Arg(0), *maxConvergeMs)
		case "batch":
			checkBatch(flag.Arg(0), *minBatchSpeedup)
		case "bulk":
			checkBulk(flag.Arg(0), *minBulkBandwidth)
		case "broker":
			checkBroker(flag.Arg(0), *maxIsolationRatio, *maxConvergeMs)
		case "chain":
			checkChain(flag.Arg(0), *minChainSpeedup)
		default:
			checkTransports(flag.Arg(0), *minShmSpeedup)
		}
		return
	case 2:
	default:
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-max-regress N] BASELINE.json CURRENT.json")
		fmt.Fprintln(os.Stderr, "       benchcheck [-min-shm-speedup N] TRANSPORTS.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}

	// When both artifacts carry a calibration anchor (the per-iteration
	// time of a fixed scalar loop on the recording host), compare
	// Null/Calib ratios: that cancels host-speed differences between the
	// two recording moments — shared hardware, thermal throttling, noisy
	// neighbors — so the gate trips on code regressions, not on the
	// machine having a slow day. Artifacts predating the anchor fall back
	// to the absolute comparison.
	baseN, curN := base.NullNsPerOp, cur.NullNsPerOp
	unit := "ns/op"
	if base.CalibNsPerOp > 0 && cur.CalibNsPerOp > 0 {
		baseN /= base.CalibNsPerOp
		curN /= cur.CalibNsPerOp
		unit = "×calib"
		fmt.Printf("Null ns/op: baseline %.1f (calib %.3f), current %.1f (calib %.3f)\n",
			base.NullNsPerOp, base.CalibNsPerOp, cur.NullNsPerOp, cur.CalibNsPerOp)
	}
	delta := 100 * (curN - baseN) / baseN
	fmt.Printf("Null %s: baseline %.2f, current %.2f (%+.1f%%)\n",
		unit, baseN, curN, delta)
	for _, p := range cur.Points {
		fmt.Printf("GOMAXPROCS=%d: lrpc %.0f calls/s, global-lock %.0f calls/s, speedup %.2f\n",
			p.GOMAXPROCS, p.LRPCCallsPerSec, p.GlobalLockCallsPerSec, p.Speedup)
	}
	if delta > *maxRegress {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: Null latency regressed %.1f%% (limit %.0f%%)\n",
			delta, *maxRegress)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// checkTransports validates a cross-transport artifact: every recorded
// row must carry positive latencies, and when both same-machine
// transports are present the shm-vs-TCP Null speedup must clear the
// floor. Artifacts recorded on hosts without the shm plane (no "shm"
// row, speedup zero) pass with a notice, so the gate does not fail CI
// on platforms that cannot run the experiment.
func checkTransports(path string, minSpeedup float64) {
	var r experiments.TransportResult
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(r.Transports) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no transports recorded\n", path)
		os.Exit(2)
	}
	hasShm := false
	for _, p := range r.Transports {
		if p.NullNsPerOp <= 0 || p.AddNsPerOp <= 0 || p.BigInNsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: transport %q has a non-positive latency\n",
				path, p.Transport)
			os.Exit(1)
		}
		if p.Transport == "shm" {
			hasShm = true
		}
		fmt.Printf("%-8s Null %.0f ns/op, Add %.0f ns/op, BigIn(%dB) %.0f ns/op\n",
			p.Transport, p.NullNsPerOp, p.AddNsPerOp, r.BigInBytes, p.BigInNsPerOp)
	}
	if !hasShm {
		fmt.Println("benchcheck: ok (no shm row; platform without the shm plane)")
		return
	}
	fmt.Printf("shm speedup vs TCP loopback: %.2fx (floor %.1fx)\n", r.ShmSpeedupVsTCP, minSpeedup)
	if r.ShmSpeedupVsTCP < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: shm Null speedup %.2fx below floor %.1fx\n",
			r.ShmSpeedupVsTCP, minSpeedup)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// benchKind sniffs the "bench" discriminator so one-argument
// invocations route to the right validator. Errors return "" — the
// fallback validator reports them.
func benchKind(path string) string {
	blob, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var probe struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return ""
	}
	return probe.Bench
}

// checkBatch validates a batched-submission artifact: every swept point
// must carry a positive latency, and when the shm transport is present
// the per-call-over-batched Null speedup must clear the floor.
// Artifacts recorded on hosts without the shm plane (no shm rows,
// speedup zero) pass with a notice, matching the transports gate's
// platform policy.
func checkBatch(path string, minSpeedup float64) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r experiments.BatchResult
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(r.Points) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no batch points recorded\n", path)
		os.Exit(2)
	}
	hasShm := false
	for _, p := range r.Points {
		if p.NullNsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %s batch %d has a non-positive latency\n",
				path, p.Transport, p.BatchSize)
			os.Exit(1)
		}
		if p.Transport == "shm" {
			hasShm = true
		}
		fmt.Printf("%-8s batch %-3d Null %.0f ns/op\n", p.Transport, p.BatchSize, p.NullNsPerOp)
	}
	if !hasShm {
		fmt.Println("benchcheck: ok (no shm rows; platform without the shm plane)")
		return
	}
	fmt.Printf("shm batch amortization: %.2fx (floor %.1fx)\n", r.ShmBatchSpeedup, minSpeedup)
	if r.ShmBatchSpeedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: shm batch speedup %.2fx below floor %.1fx\n",
			r.ShmBatchSpeedup, minSpeedup)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// checkBulk validates a bulk-bandwidth artifact: every (transport,
// payload) point must carry positive bandwidth, and when the shm
// transport is present its bytes/sec must clear minRatio times TCP's at
// every payload of BulkLargeBytes and above. Artifacts recorded on
// hosts without the shm plane (no shm row, ratio zero) pass with a
// notice, matching the transports gate's platform policy.
func checkBulk(path string, minRatio float64) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r experiments.BulkResult
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(r.Transports) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no transports recorded\n", path)
		os.Exit(2)
	}
	hasShm := false
	for _, t := range r.Transports {
		if len(t.Points) == 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: transport %q has no points\n", path, t.Transport)
			os.Exit(1)
		}
		if t.Transport == "shm" {
			hasShm = true
		}
		for _, p := range t.Points {
			if p.NsPerOp <= 0 || p.BytesPerSec <= 0 {
				fmt.Fprintf(os.Stderr, "benchcheck: %s: %s at %d bytes has a non-positive measurement\n",
					path, t.Transport, p.PayloadBytes)
				os.Exit(1)
			}
			fmt.Printf("%-8s %9d B  %12.0f ns/op  %8.0f MiB/s\n",
				t.Transport, p.PayloadBytes, p.NsPerOp, p.BytesPerSec/(1<<20))
		}
	}
	if !hasShm {
		fmt.Println("benchcheck: ok (no shm row; platform without the shm plane)")
		return
	}
	fmt.Printf("shm over TCP at >= %d B payloads: %.2fx (floor %.1fx)\n",
		experiments.BulkLargeBytes, r.ShmOverTCPAtLarge, minRatio)
	if r.ShmOverTCPAtLarge < minRatio {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: shm bulk bandwidth %.2fx of TCP below floor %.1fx\n",
			r.ShmOverTCPAtLarge, minRatio)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// checkChain validates a continuation-chain artifact: every row must
// carry positive latencies for both arms, and the server-side
// CallChain must beat the sequential calls by the floor on TCP always,
// and on shm whenever the shm row is present.
// Artifacts recorded on hosts without the shm plane (no shm row,
// ShmChainSpeedup zero) pass the shm half with a notice, matching the
// transports gate's platform policy; the TCP half always gates.
func checkChain(path string, minSpeedup float64) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r experiments.ChainResult
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(r.Points) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no chain points recorded\n", path)
		os.Exit(2)
	}
	hasShm, hasTCP := false, false
	for _, p := range r.Points {
		if p.SequentialNsPerChain <= 0 || p.ChainNsPerChain <= 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %s chain row has a non-positive latency\n",
				path, p.Transport)
			os.Exit(1)
		}
		switch p.Transport {
		case "shm":
			hasShm = true
		case "tcp":
			hasTCP = true
		}
		fmt.Printf("%-8s depth %d: sequential %.0f ns, CallChain %.0f ns (%.2fx)\n",
			p.Transport, p.Depth, p.SequentialNsPerChain, p.ChainNsPerChain, p.SpeedupVsSequential)
	}
	if !hasTCP {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no tcp chain row recorded\n", path)
		os.Exit(1)
	}
	fmt.Printf("tcp chain speedup vs sequential calls: %.2fx (floor %.1fx)\n", r.TCPChainSpeedup, minSpeedup)
	if r.TCPChainSpeedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: tcp chain speedup %.2fx below floor %.1fx\n",
			r.TCPChainSpeedup, minSpeedup)
		os.Exit(1)
	}
	if !hasShm {
		fmt.Println("benchcheck: ok (no shm row; platform without the shm plane)")
		return
	}
	fmt.Printf("shm chain speedup vs sequential calls: %.2fx (floor %.1fx)\n", r.ShmChainSpeedup, minSpeedup)
	if r.ShmChainSpeedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: shm chain speedup %.2fx below floor %.1fx\n",
			r.ShmChainSpeedup, minSpeedup)
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}

// checkFailover validates a failover-convergence artifact: zero double
// executions (the at-most-once gate), client progress, and both
// convergence latencies recorded under the ceiling.
func checkFailover(path string, maxConvergeMs float64) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r experiments.FailoverResult
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	fmt.Printf("failover: %d replicas, %d servers, %d calls (%d failed), %d failovers\n",
		r.Replicas, r.Servers, r.CallsTotal, r.CallsFailed, r.Failovers)
	fmt.Printf("server-crash failover %.1f ms, leader-kill convergence %.1f ms (ceiling %.0f ms)\n",
		r.ServerCrashFailoverMs, r.LeaderKillConvergenceMs, maxConvergeMs)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	if r.DoubleExecutions != 0 {
		fail("%d call ids executed more than once (at-most-once violation)", r.DoubleExecutions)
	}
	if r.CallsTotal <= 0 || r.CallsFailed >= r.CallsTotal {
		fail("no client progress: %d calls, %d failed", r.CallsTotal, r.CallsFailed)
	}
	if r.ServerCrashFailoverMs <= 0 || r.ServerCrashFailoverMs > maxConvergeMs {
		fail("server-crash failover %.1f ms outside (0, %.0f]", r.ServerCrashFailoverMs, maxConvergeMs)
	}
	if r.LeaderKillConvergenceMs <= 0 || r.LeaderKillConvergenceMs > maxConvergeMs {
		fail("leader-kill convergence %.1f ms outside (0, %.0f]", r.LeaderKillConvergenceMs, maxConvergeMs)
	}
	fmt.Println("benchcheck: ok")
}

// checkBroker validates a multi-tenant isolation artifact: at-most-once
// across the broker crash is absolute (zero doubles), the aggressor
// must have been shed, the victim's p99 under flood must stay within
// the isolation ceiling, and the restart recovery must be bounded.
func checkBroker(path string, maxRatio, maxConvergeMs float64) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r experiments.BrokerIsolationResult
	if err := json.Unmarshal(blob, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	fmt.Printf("broker: victim p99 %.1f µs unloaded, %.1f µs under flood (ratio %.2fx, ceiling %.1fx)\n",
		r.VictimUnloadedP99us, r.VictimFloodP99us, r.IsolationRatio, maxRatio)
	fmt.Printf("aggressor %d calls / %d sheds; restart recovery %.1f ms, %d reattaches, %d victim calls (%d failed)\n",
		r.AggressorCalls, r.AggressorSheds, r.RestartRecoveryMs, r.Reattaches, r.VictimCalls, r.VictimFailed)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	if r.DoubleExecutions != 0 {
		fail("%d call ids executed more than once (at-most-once violation)", r.DoubleExecutions)
	}
	if r.VictimCalls <= 0 || r.VictimFailed >= r.VictimCalls {
		fail("no victim progress: %d calls, %d failed", r.VictimCalls, r.VictimFailed)
	}
	if r.IsolationRatio <= 0 || r.IsolationRatio > maxRatio {
		fail("isolation ratio %.2fx outside (0, %.1f] — the aggressor moved the victim's tail", r.IsolationRatio, maxRatio)
	}
	if r.AggressorSheds == 0 {
		fail("the broker never shed the aggressor (0 quota sheds of %d calls)", r.AggressorCalls)
	}
	if r.RestartRecoveryMs <= 0 || r.RestartRecoveryMs > maxConvergeMs {
		fail("restart recovery %.1f ms outside (0, %.0f]", r.RestartRecoveryMs, maxConvergeMs)
	}
	if r.Reattaches < 1 {
		fail("the victim never reattached to the restarted broker")
	}
	fmt.Println("benchcheck: ok")
}

func load(path string) (experiments.ThroughputResult, error) {
	var r experiments.ThroughputResult
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if r.NullNsPerOp <= 0 {
		return r, fmt.Errorf("%s: missing null_ns_per_op", path)
	}
	return r, nil
}
