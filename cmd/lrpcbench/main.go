// Command lrpcbench regenerates every table and figure of the paper's
// evaluation on the simulated Firefly, plus the wall-clock throughput
// rig on the real Go runtime. With no arguments it runs every simulated
// experiment; otherwise pass any of: table1 figure1 table2 table3 table4
// table5 figure2 ablations mix workday structure faults throughput
// failover batch bulk chain broker tcpload.
//
//	lrpcbench                 # all simulated experiments
//	lrpcbench table4 table5   # just Table 4 and Table 5
//	lrpcbench -cpus 5 -machine microvax figure2
//	lrpcbench -procs 4 -dur 500ms -json throughput > BENCH_pr2.json
//	lrpcbench -json shm > BENCH_pr5.json
//	lrpcbench -json failover > BENCH_pr6.json
//	lrpcbench -json batch > BENCH_pr7.json
//	lrpcbench -json bulk > BENCH_pr8.json
//	lrpcbench -json chain > BENCH_pr10.json
//	lrpcbench -dur 2s tcpload
//
// The tcpload experiment drives the TCP server loop with the traffic a
// single closed-loop caller never produces — callers multiplexed on one
// connection, a short call beside a slow one, many connections, a
// broker relaying two tenants over one upstream connection — and reads
// each shape's call rate and latency percentiles.
//
// The chain experiment times the depth-4 dependent pipeline both ways
// per transport — blocking sequential calls and one server-side
// CallChain submission — and records the speedup of the server-side
// chain over the sequential calls, the artifact cmd/benchcheck's
// -min-chain-speedup gate reads.
//
// The bulk experiment sweeps CallBulk payloads (4 KiB to 64 MiB)
// through the same three transports and records bytes/sec per size —
// the artifact cmd/benchcheck's -min-bulk-bandwidth gate reads.
//
// The batch experiment sweeps batched submission (amortized Null ns/op
// at batch sizes 1/8/64) across the same three transports, reusing the
// shm experiment's server child.
//
// The shm experiment measures the same three calls (Null, Add, BigIn)
// through three transports — in-process, shared memory between two OS
// processes, and TCP loopback between the same two processes — by
// re-execing this binary as the server side. On platforms without the
// shm plane the shm row is omitted and the speedup reads zero.
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

// Environment markers for the re-exec'd server side of the shm
// experiment: the child serves the Transport interface over both the
// shm socket named by lrpcbenchShmSock and a TCP loopback listener,
// prints "READY <tcpaddr>", and exits when its stdin closes.
const (
	lrpcbenchShmChild = "LRPCBENCH_SHM_CHILD"
	lrpcbenchShmSock  = "LRPCBENCH_SHM_SOCK"
)

func main() {
	if os.Getenv(lrpcbenchShmChild) == "1" {
		runTransportServer()
		return
	}
	cpus := flag.Int("cpus", 4, "processor count for figure2")
	calls := flag.Int("calls", 1000, "calls per measurement")
	ops := flag.Int("ops", 1_000_000, "operations for the table1 activity models")
	sizes := flag.Int("sizes", 500_000, "calls for the figure1 size distribution")
	seed := flag.Int64("seed", 1, "workload seed")
	machineName := flag.String("machine", "cvax", "machine for figure2: cvax or microvax")
	procs := flag.Int("procs", 4, "max GOMAXPROCS for the wall-clock throughput rig")
	dur := flag.Duration("dur", 500*time.Millisecond, "sample duration per throughput point")
	asJSON := flag.Bool("json", false, "emit throughput results as JSON (for BENCH_*.json)")
	flag.Parse()

	which := flag.Args()
	if len(which) == 0 {
		which = []string{"table1", "figure1", "table2", "table3", "table4", "table5", "figure2",
			"ablations", "mix", "workday", "structure", "faults"}
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
		case "throughput":
			r := experiments.WallClockThroughput(*procs, *dur)
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.ThroughputTable(r).Render())
			}
		case "shm":
			r, err := runTransportBench()
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: shm: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.TransportsTable(r).Render())
			}
		case "batch":
			r, err := runBatchBench()
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: batch: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.BatchTable(r).Render())
			}
		case "chain":
			r, err := runChainBench()
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: chain: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.ChainTable(r).Render())
			}
		case "bulk":
			r, err := runBulkBench()
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: bulk: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.BulkTable(r).Render())
			}
		case "failover":
			r, err := experiments.Failover(*seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: failover: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.FailoverTable(r).Render())
			}
		case "tcpload":
			r, err := experiments.TCPLoad(*dur)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: tcpload: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.TCPLoadTable(r).Render())
			}
		case "broker":
			r, err := experiments.BrokerIsolation(*seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbench: broker: %v\n", err)
				os.Exit(1)
			}
			if *asJSON {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "lrpcbench: %v\n", err)
					os.Exit(1)
				}
			} else {
				fmt.Println(experiments.BrokerTable(r).Render())
			}
		default:
			fmt.Fprintf(os.Stderr, "lrpcbench: unknown experiment %q\n", w)
			os.Exit(2)
		}
	}
}

// runBatchBench is the parent role of the batch experiment: the same
// three transports as runTransportBench (re-execing this binary as the
// serving process for shm and TCP), swept over batch sizes. The shm
// session dials with a slot count covering the deepest batch so staging
// never blocks on the pairwise allocation inside the measurement loop.
func runBatchBench() (experiments.BatchResult, error) {
	var points []experiments.BatchPoint
	measure := func(name string, c experiments.AsyncClient) error {
		ps, err := experiments.MeasureBatch(name, c)
		if err != nil {
			return err
		}
		points = append(points, ps...)
		return nil
	}

	// In-process reference: one dispatch pass per flush, no boundary.
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.TransportInterface()); err != nil {
		return experiments.BatchResult{}, err
	}
	b, err := sys.Import("Transport")
	if err != nil {
		return experiments.BatchResult{}, err
	}
	if err := measure("inproc", b); err != nil {
		return experiments.BatchResult{}, err
	}

	// Server process: a real protection domain on the other side.
	exe, err := os.Executable()
	if err != nil {
		return experiments.BatchResult{}, err
	}
	dir, err := os.MkdirTemp("", "lrpcbench-batch-")
	if err != nil {
		return experiments.BatchResult{}, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "bench.sock")

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), lrpcbenchShmChild+"=1", lrpcbenchShmSock+"="+sock)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return experiments.BatchResult{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return experiments.BatchResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return experiments.BatchResult{}, err
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return experiments.BatchResult{}, fmt.Errorf("server handshake: %w", err)
	}
	tcpAddr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "READY"))
	if tcpAddr == "" {
		return experiments.BatchResult{}, fmt.Errorf("server handshake: %q", line)
	}

	maxBatch := experiments.BatchSizes[len(experiments.BatchSizes)-1]
	if c, err := lrpc.DialShmOpts(sock, "Transport", lrpc.ShmDialOptions{
		Slots: maxBatch, Spin: 8192,
	}); err != nil {
		if !errors.Is(err, lrpc.ErrShmUnsupported) {
			return experiments.BatchResult{}, fmt.Errorf("dial shm: %w", err)
		}
		fmt.Fprintln(os.Stderr, "lrpcbench: shm transport unsupported on this platform; omitting row")
	} else {
		err := measure("shm", c)
		c.Close()
		if err != nil {
			return experiments.BatchResult{}, err
		}
	}

	nc, err := lrpc.DialInterface("tcp", tcpAddr, "Transport")
	if err != nil {
		return experiments.BatchResult{}, fmt.Errorf("dial tcp: %w", err)
	}
	err = measure("tcp", nc)
	nc.Close()
	if err != nil {
		return experiments.BatchResult{}, err
	}

	return experiments.FinishBatchResult(points), nil
}

// runChainBench is the parent role of the chain experiment: the same
// three transports as runBatchBench (re-execing this binary as the
// serving process for shm and TCP), each timing the depth-4 dependent
// pipeline both ways — sequential calls and one server-side CallChain
// submission.
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
	if _, err := sys.Export(experiments.TransportInterface()); err != nil {
		return experiments.ChainResult{}, err
	}
	b, err := sys.Import("Transport")
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

	if c, err := lrpc.DialShmOpts(sock, "Transport", lrpc.ShmDialOptions{Spin: 8192}); err != nil {
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

	nc, err := lrpc.DialInterface("tcp", tcpAddr, "Transport")
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

// runBulkBench is the parent role of the bulk experiment: the payload
// sweep of internal/experiments/bulk.go through the same three
// transports, re-execing this binary as the serving process for shm and
// TCP. The shm session dials with a bulk region comfortably above the
// largest payload so the sweep measures bandwidth, not allocator
// contention at the region boundary.
func runBulkBench() (experiments.BulkResult, error) {
	var transports []experiments.BulkTransport
	measure := func(name string, c experiments.BulkCaller) error {
		t, err := experiments.MeasureBulk(name, c)
		if err != nil {
			return err
		}
		transports = append(transports, t)
		return nil
	}

	// In-process reference: the by-reference path, no boundary at all.
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.BulkInterface()); err != nil {
		return experiments.BulkResult{}, err
	}
	b, err := sys.Import(experiments.BulkInterfaceName)
	if err != nil {
		return experiments.BulkResult{}, err
	}
	if err := measure("inproc", b); err != nil {
		return experiments.BulkResult{}, err
	}

	// Server process: a real protection domain on the other side.
	exe, err := os.Executable()
	if err != nil {
		return experiments.BulkResult{}, err
	}
	dir, err := os.MkdirTemp("", "lrpcbench-bulk-")
	if err != nil {
		return experiments.BulkResult{}, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "bench.sock")

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), lrpcbenchShmChild+"=1", lrpcbenchShmSock+"="+sock)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return experiments.BulkResult{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return experiments.BulkResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return experiments.BulkResult{}, err
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return experiments.BulkResult{}, fmt.Errorf("server handshake: %w", err)
	}
	tcpAddr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "READY"))
	if tcpAddr == "" {
		return experiments.BulkResult{}, fmt.Errorf("server handshake: %q", line)
	}

	maxPayload := experiments.BulkSizes[len(experiments.BulkSizes)-1]
	if c, err := lrpc.DialShmOpts(sock, experiments.BulkInterfaceName, lrpc.ShmDialOptions{
		Spin: 8192, BulkBytes: int64(maxPayload) + (16 << 20),
	}); err != nil {
		if !errors.Is(err, lrpc.ErrShmUnsupported) {
			return experiments.BulkResult{}, fmt.Errorf("dial shm: %w", err)
		}
		fmt.Fprintln(os.Stderr, "lrpcbench: shm transport unsupported on this platform; omitting row")
	} else {
		err := measure("shm", c)
		c.Close()
		if err != nil {
			return experiments.BulkResult{}, err
		}
	}

	nc, err := lrpc.DialInterface("tcp", tcpAddr, experiments.BulkInterfaceName)
	if err != nil {
		return experiments.BulkResult{}, fmt.Errorf("dial tcp: %w", err)
	}
	err = measure("tcp", nc)
	nc.Close()
	if err != nil {
		return experiments.BulkResult{}, err
	}

	return experiments.FinishBulkResult(transports), nil
}

// runTransportServer is the child role of the shm experiment: one
// process exporting the Transport interface over both same-machine
// planes, so the parent can time an identical round trip through each.
func runTransportServer() {
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.TransportInterface()); err != nil {
		fmt.Fprintf(os.Stderr, "lrpcbench child: %v\n", err)
		os.Exit(1)
	}
	if _, err := sys.Export(experiments.BulkInterface()); err != nil {
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

// runTransportBench is the parent role: measure in-process, then spawn
// the server process and measure shm and TCP against it.
func runTransportBench() (experiments.TransportResult, error) {
	var points []experiments.TransportPoint

	// In-process reference: same export shape, no protection boundary.
	sys := lrpc.NewSystem()
	if _, err := sys.Export(experiments.TransportInterface()); err != nil {
		return experiments.TransportResult{}, err
	}
	b, err := sys.Import("Transport")
	if err != nil {
		return experiments.TransportResult{}, err
	}
	p, err := experiments.MeasureTransport("inproc", b.Call)
	if err != nil {
		return experiments.TransportResult{}, err
	}
	points = append(points, p)

	// Server process: a real protection domain on the other side.
	exe, err := os.Executable()
	if err != nil {
		return experiments.TransportResult{}, err
	}
	dir, err := os.MkdirTemp("", "lrpcbench-shm-")
	if err != nil {
		return experiments.TransportResult{}, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "bench.sock")

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), lrpcbenchShmChild+"=1", lrpcbenchShmSock+"="+sock)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return experiments.TransportResult{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return experiments.TransportResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return experiments.TransportResult{}, err
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return experiments.TransportResult{}, fmt.Errorf("server handshake: %w", err)
	}
	tcpAddr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "READY"))
	if tcpAddr == "" {
		return experiments.TransportResult{}, fmt.Errorf("server handshake: %q", line)
	}

	if c, err := lrpc.DialShmOpts(sock, "Transport", lrpc.ShmDialOptions{Spin: 8192}); err != nil {
		if !errors.Is(err, lrpc.ErrShmUnsupported) {
			return experiments.TransportResult{}, fmt.Errorf("dial shm: %w", err)
		}
		fmt.Fprintln(os.Stderr, "lrpcbench: shm transport unsupported on this platform; omitting row")
	} else {
		p, err := experiments.MeasureTransport("shm", c.Call)
		c.Close()
		if err != nil {
			return experiments.TransportResult{}, err
		}
		points = append(points, p)
	}

	nc, err := lrpc.DialInterface("tcp", tcpAddr, "Transport")
	if err != nil {
		return experiments.TransportResult{}, fmt.Errorf("dial tcp: %w", err)
	}
	p, err = experiments.MeasureTransport("tcp", nc.Call)
	nc.Close()
	if err != nil {
		return experiments.TransportResult{}, err
	}
	points = append(points, p)

	return experiments.FinishTransportResult(points), nil
}
