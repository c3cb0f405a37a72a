// Command lrpcbench regenerates every table and figure of the paper's
// evaluation on the simulated Firefly, plus four wall-clock rigs on the
// real Go runtime for the shapes `go run ./bench` does not drive. With
// no arguments it runs every simulated experiment; otherwise pass any
// of: table1 figure1 table2 table3 table4 table5 figure2 ablations mix
// workday structure faults (simulated), failover chain broker tcpload
// (wall clock).
//
//	lrpcbench                 # all simulated experiments
//	lrpcbench table4 table5   # just Table 4 and Table 5
//	lrpcbench -cpus 5 -machine microvax figure2
//	lrpcbench -json failover > BENCH_pr6.json
//	lrpcbench -json broker > BENCH_pr9.json
//	lrpcbench -json chain > BENCH_pr10.json
//	lrpcbench -dur 2s tcpload
//
// The per-call latencies of the in-process, shm and TCP planes, batched
// submission and bulk bandwidth are `go run ./bench`'s workloads, not
// rigs here.
//
// The tcpload experiment drives the TCP server loop with the traffic a
// single closed-loop caller never produces — callers multiplexed on one
// connection, a short call beside a slow one, many connections, a
// broker relaying two tenants over one upstream connection — and reads
// each shape's call rate and latency percentiles.
//
// The chain experiment times the depth-4 dependent pipeline both ways
// per transport — in-process, shared memory between two OS processes,
// and TCP loopback between the same two processes, by re-execing this
// binary as the server side — as blocking sequential calls and as one
// server-side CallChain submission, and records the speedup of the
// server-side chain over the sequential calls, the artifact
// cmd/benchcheck's -min-chain-speedup gate reads. On platforms without
// the shm plane the shm row is omitted and its speedup reads zero.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"lrpc"
	"lrpc/internal/experiments"
	"lrpc/internal/machine"
)

// Environment markers for the re-exec'd server side of the chain
// experiment: the child serves the chain interface over both the shm
// socket named by lrpcbenchShmSock and a TCP loopback listener, prints
// "READY <tcpaddr>", and exits when its stdin closes.
const (
	lrpcbenchShmChild = "LRPCBENCH_SHM_CHILD"
	lrpcbenchShmSock  = "LRPCBENCH_SHM_SOCK"
)

// simulated are the experiments on the simulated Firefly, the default
// run; wallClock are the rigs on the real runtime, run only by name.
var (
	simulated = []string{"table1", "figure1", "table2", "table3", "table4", "table5", "figure2",
		"ablations", "mix", "workday", "structure", "faults"}
	wallClock = []string{"failover", "chain", "broker", "tcpload"}
)

func main() {
	if os.Getenv(lrpcbenchShmChild) == "1" {
		runChainServer()
		return
	}
	cpus := flag.Int("cpus", 4, "processor count for figure2")
	calls := flag.Int("calls", 1000, "calls per measurement")
	ops := flag.Int("ops", 1_000_000, "operations for the table1 activity models")
	sizes := flag.Int("sizes", 500_000, "calls for the figure1 size distribution")
	seed := flag.Int64("seed", 1, "workload seed")
	machineName := flag.String("machine", "cvax", "machine for figure2: cvax or microvax")
	dur := flag.Duration("dur", 500*time.Millisecond, "sample duration per tcpload shape")
	asJSON := flag.Bool("json", false, "emit the "+strings.Join(wallClock, ", ")+" results as JSON artifacts instead of tables")
	flag.Parse()

	which := flag.Args()
	if len(which) == 0 {
		which = simulated
	}

	cfg := machine.CVAXFirefly()
	if *machineName == "microvax" {
		cfg = machine.MicroVAXIIFirefly()
	}

	for _, w := range which {
		switch w {
		case "table1":
			fmt.Println(experiments.Table1Table(experiments.Table1(*ops, *seed)).Render())
		case "figure1":
			fmt.Println(experiments.Figure1Render(experiments.Figure1(*sizes, *seed)))
		case "table2":
			fmt.Println(experiments.Table2Table(experiments.Table2(5, *calls)).Render())
		case "table3":
			fmt.Println(experiments.Table3Table(experiments.Table3()).Render())
		case "table4":
			fmt.Println(experiments.Table4Table(experiments.Table4(5, *calls)).Render())
		case "table5":
			fmt.Println(experiments.Table5Table(experiments.Table5()).Render())
		case "figure2":
			fmt.Println(experiments.Figure2Table(experiments.Figure2(cfg, *cpus, *calls)).Render())
		case "ablations":
			fmt.Println(experiments.AblationTLBTable(experiments.AblationTLB()).Render())
			fmt.Println(experiments.AblationRegisterParamsTable(experiments.AblationRegisterParams(16), 16).Render())
			fmt.Println(experiments.AblationSharingTable(experiments.AblationAStackSharing()).Render())
			fmt.Println(experiments.AblationEStacksTable(experiments.AblationEStacks()).Render())
			fmt.Println(experiments.AblationCachingTable(experiments.AblationDomainCachingThroughput(*cpus, *calls)).Render())
		case "mix":
			fmt.Println(experiments.TrafficMixTable(experiments.TrafficMix(20_000, *seed)).Render())
		case "workday":
			fmt.Println(experiments.WorkdayTable(experiments.Workday(50_000, *seed)).Render())
		case "structure":
			fmt.Println(experiments.StructureTaxTable(experiments.StructureTax(10_000, *seed)).Render())
		case "faults":
			fmt.Println(experiments.FaultsTable(experiments.Faults(*calls, *seed)).Render())
		case "chain":
			r, err := runChainBench()
			emit(w, *asJSON, r, err, experiments.ChainTable)
		case "failover":
			r, err := experiments.Failover(*seed)
			emit(w, *asJSON, r, err, experiments.FailoverTable)
		case "tcpload":
			r, err := experiments.TCPLoad(*dur)
			emit(w, *asJSON, r, err, experiments.TCPLoadTable)
		case "broker":
			r, err := experiments.BrokerIsolation(*seed)
			emit(w, *asJSON, r, err, experiments.BrokerTable)
		default:
			fmt.Fprintf(os.Stderr, "lrpcbench: unknown experiment %q; valid: %s %s\n",
				w, strings.Join(simulated, " "), strings.Join(wallClock, " "))
			os.Exit(2)
		}
	}
}

// emit prints one wall-clock rig's result: the indented JSON artifact
// with -json, the rendered table otherwise. A rig error exits 1.
func emit[R any](name string, asJSON bool, r R, err error, table func(R) *experiments.Table) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpcbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	if !asJSON {
		fmt.Println(table(r).Render())
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
		os.Exit(1)
	}
}

// runChainBench is the parent role of the chain experiment: measure
// in-process, then spawn the server process and measure shm and TCP
// against it, each timing the depth-4 dependent pipeline both ways —
// sequential calls and one server-side CallChain submission.
func runChainBench() (experiments.ChainResult, error) {
	var points []experiments.ChainPoint
	measure := func(name string, c experiments.ChainClient) error {
		p, err := experiments.MeasureChain(name, c, experiments.ChainDepth)
		if err != nil {
			return err
		}
		points = append(points, p)
		return nil
	}

	// In-process reference: the chain executor with no boundary at all.
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.ChainInterface()); err != nil {
		return experiments.ChainResult{}, err
	}
	b, err := sys.Import(experiments.ChainInterfaceName)
	if err != nil {
		return experiments.ChainResult{}, err
	}
	if err := measure("inproc", b); err != nil {
		return experiments.ChainResult{}, err
	}

	// Server process: a real protection domain on the other side.
	exe, err := os.Executable()
	if err != nil {
		return experiments.ChainResult{}, err
	}
	dir, err := os.MkdirTemp("", "lrpcbench-chain-")
	if err != nil {
		return experiments.ChainResult{}, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "bench.sock")

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), lrpcbenchShmChild+"=1", lrpcbenchShmSock+"="+sock)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return experiments.ChainResult{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return experiments.ChainResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return experiments.ChainResult{}, err
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return experiments.ChainResult{}, fmt.Errorf("server handshake: %w", err)
	}
	tcpAddr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "READY"))
	if tcpAddr == "" {
		return experiments.ChainResult{}, fmt.Errorf("server handshake: %q", line)
	}

	if c, err := lrpc.DialShmOpts(sock, experiments.ChainInterfaceName, lrpc.ShmDialOptions{Spin: 8192}); err != nil {
		if !errors.Is(err, lrpc.ErrShmUnsupported) {
			return experiments.ChainResult{}, fmt.Errorf("dial shm: %w", err)
		}
		fmt.Fprintln(os.Stderr, "lrpcbench: shm transport unsupported on this platform; omitting row")
	} else {
		err := measure("shm", c)
		c.Close()
		if err != nil {
			return experiments.ChainResult{}, err
		}
	}

	nc, err := lrpc.DialInterface("tcp", tcpAddr, experiments.ChainInterfaceName)
	if err != nil {
		return experiments.ChainResult{}, fmt.Errorf("dial tcp: %w", err)
	}
	err = measure("tcp", nc)
	nc.Close()
	if err != nil {
		return experiments.ChainResult{}, err
	}

	return experiments.FinishChainResult(points), nil
}

// runChainServer is the child role of the chain experiment: one process
// exporting the chain interface over both same-machine planes, so the
// parent can time an identical pipeline through each.
func runChainServer() {
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.ChainInterface()); err != nil {
		fmt.Fprintf(os.Stderr, "lrpcbench child: %v\n", err)
		os.Exit(1)
	}
	tcpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpcbench child: %v\n", err)
		os.Exit(1)
	}
	go sys.ServeNetwork(tcpL)
	if sock := os.Getenv(lrpcbenchShmSock); sock != "" {
		shmL, err := lrpc.ListenShm(sock)
		if err != nil {
			// Non-Linux hosts have no shm plane; the parent copes with
			// the missing row.
			fmt.Fprintf(os.Stderr, "lrpcbench child: shm disabled: %v\n", err)
		} else {
			// A deep spin budget keeps the bench's round trips in the
			// yield-handoff regime (sched_yield alternation between the
			// two domains) instead of paying a futex sleep/wake context
			// switch per direction — the shm plane's best case, which is
			// what the artifact is meant to record.
			// One worker: a second would only add yield-alternation
			// noise to the single-caller measurement on a small host.
			go lrpc.NewShmServer(sys, lrpc.ShmServeOptions{Workers: 1, Spin: 8192}).Serve(shmL)
		}
	}
	fmt.Printf("READY %s\n", tcpL.Addr().String())
	os.Stdout.Sync()
	// Parent exit (or parent Close of our stdin pipe) ends the child.
	io.Copy(io.Discard, os.Stdin)
}
