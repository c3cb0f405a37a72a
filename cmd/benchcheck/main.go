// Command benchcheck validates the wall-clock artifacts of the rigs
// `go run ./bench` does not drive. It reads one artifact, routes it by
// its "bench" field, and exits 0 when every gate holds, 1 when a gate
// fails, and 2 when it cannot read the artifact: a missing file, bad
// JSON, no "bench" field, or a kind it does not know.
//
// A "failover" artifact (as written by `lrpcbench -json failover`, see
// BENCH_pr6.json) is a failover-convergence record: any double
// execution is an at-most-once violation and fails outright, the client
// must have made progress, and both convergence latencies must be
// present and under a generous ceiling.
//
// A "broker" artifact (as written by `lrpcbench -json broker`, see
// BENCH_pr9.json) is a multi-tenant isolation record: any double
// execution across the broker crash fails outright, the aggressor flood
// must not have moved the victim's p99 by more than
// -max-isolation-ratio, the victim must have reattached to the
// restarted broker within the convergence ceiling, and the broker must
// actually have shed aggressor traffic.
//
// A "chain" artifact (as written by `lrpcbench -json chain`, see
// BENCH_pr10.json) is a continuation-chain record: every row must carry
// positive latencies, and the server-side depth-4 CallChain must beat
// the same pipeline issued as sequential calls by the
// -min-chain-speedup floor on TCP, and on shm when the shm transport is
// present.
//
//	benchcheck [-max-converge-ms 30000] FAILOVER.json
//	benchcheck [-max-isolation-ratio 3] BROKER.json
//	benchcheck [-min-chain-speedup 2] CHAIN.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"lrpc/internal/experiments"
)

// errFail marks an artifact that was read but failed a gate (exit 1).
// Every other error means the artifact could not be read (exit 2).
var errFail = errors.New("FAIL")

// limits are the gates' thresholds, one flag each.
type limits struct {
	maxConvergeMs     float64
	maxIsolationRatio float64
	minChainSpeedup   float64
}

// defaults are the flags' default thresholds.
var defaults = limits{maxConvergeMs: 30000, maxIsolationRatio: 3, minChainSpeedup: 2}

func main() {
	var lim limits
	flag.Float64Var(&lim.maxConvergeMs, "max-converge-ms", defaults.maxConvergeMs, "maximum failover/leader-kill/restart convergence for a failover or broker artifact, ms")
	flag.Float64Var(&lim.maxIsolationRatio, "max-isolation-ratio", defaults.maxIsolationRatio, "maximum victim p99 inflation under aggressor flood for a broker artifact")
	flag.Float64Var(&lim.minChainSpeedup, "min-chain-speedup", defaults.minChainSpeedup, "minimum server-side-chain-vs-sequential-calls speedup for a chain artifact")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [flags] ARTIFACT.json")
		os.Exit(2)
	}
	err := check(flag.Arg(0), lim)
	switch {
	case err == nil:
		fmt.Println("benchcheck: ok")
	case errors.Is(err, errFail):
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
}

// check reads the artifact at path and runs the gates its "bench" field
// names.
func check(path string, lim limits) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	decode := func(r any) error {
		if err := json.Unmarshal(blob, r); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		return nil
	}
	var gate error
	switch probe.Bench {
	case "failover":
		var r experiments.FailoverResult
		if err := decode(&r); err != nil {
			return err
		}
		gate = checkFailover(r, lim.maxConvergeMs)
	case "broker":
		var r experiments.BrokerIsolationResult
		if err := decode(&r); err != nil {
			return err
		}
		gate = checkBroker(r, lim.maxIsolationRatio, lim.maxConvergeMs)
	case "chain":
		var r experiments.ChainResult
		if err := decode(&r); err != nil {
			return err
		}
		gate = checkChain(r, lim.minChainSpeedup)
	case "":
		return fmt.Errorf("%s: no \"bench\" field; want failover, broker or chain", path)
	default:
		return fmt.Errorf("%s: unknown bench %q; want failover, broker or chain", path, probe.Bench)
	}
	if gate != nil {
		return fmt.Errorf("%s: %w", path, gate)
	}
	return nil
}

// fail is a gate failure: errFail with the reason.
func fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFail, fmt.Sprintf(format, args...))
}

// checkChain gates a continuation-chain artifact: every row must carry
// positive latencies for both arms, and the server-side CallChain must
// beat the sequential calls by the floor on TCP always, and on shm
// whenever the shm row is present. Artifacts recorded on hosts without
// the shm plane (no shm row, ShmChainSpeedup zero) pass the shm half
// with a notice; the TCP half always gates.
func checkChain(r experiments.ChainResult, minSpeedup float64) error {
	if len(r.Points) == 0 {
		return errors.New("no chain points recorded")
	}
	hasShm, hasTCP := false, false
	for _, p := range r.Points {
		if p.SequentialNsPerChain <= 0 || p.ChainNsPerChain <= 0 {
			return fail("%s chain row has a non-positive latency", p.Transport)
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
		return fail("no tcp chain row recorded")
	}
	fmt.Printf("tcp chain speedup vs sequential calls: %.2fx (floor %.1fx)\n", r.TCPChainSpeedup, minSpeedup)
	if r.TCPChainSpeedup < minSpeedup {
		return fail("tcp chain speedup %.2fx below floor %.1fx", r.TCPChainSpeedup, minSpeedup)
	}
	if !hasShm {
		fmt.Println("benchcheck: no shm row; platform without the shm plane")
		return nil
	}
	fmt.Printf("shm chain speedup vs sequential calls: %.2fx (floor %.1fx)\n", r.ShmChainSpeedup, minSpeedup)
	if r.ShmChainSpeedup < minSpeedup {
		return fail("shm chain speedup %.2fx below floor %.1fx", r.ShmChainSpeedup, minSpeedup)
	}
	return nil
}

// checkFailover gates a failover-convergence artifact: zero double
// executions (the at-most-once gate), client progress, and both
// convergence latencies recorded under the ceiling.
func checkFailover(r experiments.FailoverResult, maxConvergeMs float64) error {
	fmt.Printf("failover: %d replicas, %d servers, %d calls (%d failed), %d failovers\n",
		r.Replicas, r.Servers, r.CallsTotal, r.CallsFailed, r.Failovers)
	fmt.Printf("server-crash failover %.1f ms, leader-kill convergence %.1f ms (ceiling %.0f ms)\n",
		r.ServerCrashFailoverMs, r.LeaderKillConvergenceMs, maxConvergeMs)
	switch {
	case r.DoubleExecutions != 0:
		return fail("%d call ids executed more than once (at-most-once violation)", r.DoubleExecutions)
	case r.CallsTotal <= 0 || r.CallsFailed >= r.CallsTotal:
		return fail("no client progress: %d calls, %d failed", r.CallsTotal, r.CallsFailed)
	case r.ServerCrashFailoverMs <= 0 || r.ServerCrashFailoverMs > maxConvergeMs:
		return fail("server-crash failover %.1f ms outside (0, %.0f]", r.ServerCrashFailoverMs, maxConvergeMs)
	case r.LeaderKillConvergenceMs <= 0 || r.LeaderKillConvergenceMs > maxConvergeMs:
		return fail("leader-kill convergence %.1f ms outside (0, %.0f]", r.LeaderKillConvergenceMs, maxConvergeMs)
	}
	return nil
}

// checkBroker gates a multi-tenant isolation artifact: at-most-once
// across the broker crash is absolute (zero doubles), the aggressor
// must have been shed, the victim's p99 under flood must stay within
// the isolation ceiling, and the restart recovery must be bounded.
func checkBroker(r experiments.BrokerIsolationResult, maxRatio, maxConvergeMs float64) error {
	fmt.Printf("broker: victim p99 %.1f µs unloaded, %.1f µs under flood (ratio %.2fx, ceiling %.1fx)\n",
		r.VictimUnloadedP99us, r.VictimFloodP99us, r.IsolationRatio, maxRatio)
	fmt.Printf("aggressor %d calls / %d sheds; restart recovery %.1f ms, %d reattaches, %d victim calls (%d failed)\n",
		r.AggressorCalls, r.AggressorSheds, r.RestartRecoveryMs, r.Reattaches, r.VictimCalls, r.VictimFailed)
	switch {
	case r.DoubleExecutions != 0:
		return fail("%d call ids executed more than once (at-most-once violation)", r.DoubleExecutions)
	case r.VictimCalls <= 0 || r.VictimFailed >= r.VictimCalls:
		return fail("no victim progress: %d calls, %d failed", r.VictimCalls, r.VictimFailed)
	case r.IsolationRatio <= 0 || r.IsolationRatio > maxRatio:
		return fail("isolation ratio %.2fx outside (0, %.1f] — the aggressor moved the victim's tail", r.IsolationRatio, maxRatio)
	case r.AggressorSheds == 0:
		return fail("the broker never shed the aggressor (0 quota sheds of %d calls)", r.AggressorCalls)
	case r.RestartRecoveryMs <= 0 || r.RestartRecoveryMs > maxConvergeMs:
		return fail("restart recovery %.1f ms outside (0, %.0f]", r.RestartRecoveryMs, maxConvergeMs)
	case r.Reattaches < 1:
		return fail("the victim never reattached to the restarted broker")
	}
	return nil
}
