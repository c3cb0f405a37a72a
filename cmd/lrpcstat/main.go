// Command lrpcstat is the observability companion to the lrpc runtime.
// It has three modes:
//
//	lrpcstat idl file.idl...
//	    The static interface census of the paper's section 2.2 over .idl
//	    definitions ("four out of five parameters were of fixed size
//	    known at compile time; ...").
//
//	lrpcstat metrics [-watch interval] URL
//	    Fetch the JSON snapshot a running system serves through
//	    System.MetricsHandler and render the live Table-2-style
//	    breakdown: per-interface call counters, dispatch/handler/copy
//	    percentiles, the residual facility overhead, the latency
//	    distribution, and the A-stack pool gauges. With -watch, refetch
//	    and redraw on the given interval.
//
//	lrpcstat demo [-calls n]
//	    Run an in-process workload with metrics and tracing enabled and
//	    render its snapshot: the zero-setup way to see what the
//	    observability layer reports.
//
//	lrpcstat tenants [-watch interval] ADDR
//	    Query a running broker (see Broker / cmd/lrpcbroker) with one
//	    stats call on its control interface and render the per-tenant
//	    table: policy in force, connections, in-flight gauge, calls,
//	    quota sheds, and reattach counts. With -watch, refetch and
//	    redraw on the given interval.
//
// For backward compatibility, invoking lrpcstat with .idl file arguments
// and no mode word selects the idl mode.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lrpc"
	"lrpc/internal/idl"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "idl":
		idlMode(args[1:])
	case "metrics":
		metricsMode(args[1:])
	case "demo":
		demoMode(args[1:])
	case "tenants":
		tenantsMode(args[1:])
	case "-h", "-help", "--help":
		usage()
	default:
		// Bare .idl arguments: the original invocation style.
		if strings.HasSuffix(args[0], ".idl") {
			idlMode(args)
			return
		}
		fmt.Fprintf(os.Stderr, "lrpcstat: unknown mode %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  lrpcstat idl file.idl...          static interface census (paper 2.2)
  lrpcstat metrics [-watch d] URL   render a running system's snapshot
  lrpcstat demo [-calls n]          run a demo workload and render it
  lrpcstat tenants [-watch d] ADDR  render a running broker's tenant table
`)
}

// --- metrics mode ---

func metricsMode(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	watch := fs.Duration("watch", 0, "refetch and redraw on this interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lrpcstat metrics [-watch interval] URL")
		os.Exit(2)
	}
	url := fs.Arg(0)
	for {
		sn, err := fetchSnapshot(url)
		if err != nil {
			fatal(err)
		}
		if *watch > 0 {
			fmt.Print("\033[H\033[2J") // clear between redraws
		}
		fmt.Printf("snapshot at %s\n\n%s", sn.TakenAt.Format(time.RFC3339), sn.Render())
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

func fetchSnapshot(url string) (lrpc.Snapshot, error) {
	var sn lrpc.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return sn, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sn, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return sn, fmt.Errorf("decoding snapshot from %s: %w", url, err)
	}
	return sn, nil
}

// --- tenants mode ---

func tenantsMode(args []string) {
	fs := flag.NewFlagSet("tenants", flag.ExitOnError)
	watch := fs.Duration("watch", 0, "refetch and redraw on this interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lrpcstat tenants [-watch interval] BROKER_ADDR")
		os.Exit(2)
	}
	addr := fs.Arg(0)
	for {
		info, tenants, err := lrpc.BrokerStats(addr, 5*time.Second)
		if err != nil {
			fatal(err)
		}
		if *watch > 0 {
			fmt.Print("\033[H\033[2J") // clear between redraws
		}
		fmt.Printf("broker %s  generation %d  policy v%d  %d tenants\n\n",
			addr, info.Generation, info.PolicyVersion, info.Tenants)
		fmt.Printf("%-16s %-9s %8s %6s %8s %9s %8s %7s %7s %6s %6s\n",
			"TENANT", "POLICY", "CONNS", "INFL", "CALLS", "ONEWAYS", "ERRORS", "SHEDS", "SUSP", "ADMIT", "REATT")
		for _, t := range tenants {
			pol := "open"
			switch {
			case t.Suspended:
				pol = "suspended"
			case t.RatePerSec > 0 || t.MaxConcurrent > 0:
				pol = fmt.Sprintf("%g/s c%d", t.RatePerSec, t.MaxConcurrent)
			}
			fmt.Printf("%-16s %-9s %8d %6d %8d %9d %8d %7d %7d %6d %6d\n",
				t.Tenant, pol, t.Conns, t.InFlight, t.Calls, t.OneWays,
				t.Errors, t.QuotaSheds, t.SuspendedRejects, t.Admits, t.Reattaches)
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// --- demo mode ---

func demoMode(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	calls := fs.Int("calls", 50_000, "calls to drive through the demo workload")
	fs.Parse(args)

	sys := lrpc.NewSystem()
	sys.EnableMetrics()
	log := lrpc.NewTraceLog(256)
	sys.SetTracer(log)

	if _, err := sys.Export(&lrpc.Interface{Name: "Arith", Procs: []lrpc.Proc{
		{Name: "Add", AStackSize: 8, Handler: func(c *lrpc.Call) {
			a := binary.LittleEndian.Uint32(c.Args()[0:4])
			b := binary.LittleEndian.Uint32(c.Args()[4:8])
			binary.LittleEndian.PutUint32(c.ResultsBuf(4), a+b)
		}},
		{Name: "Null", AStackSize: 8, Handler: func(c *lrpc.Call) {}},
	}}); err != nil {
		fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		fatal(err)
	}
	argbuf := make([]byte, 8)
	dst := make([]byte, 0, 16)
	for i := 0; i < *calls; i++ {
		binary.LittleEndian.PutUint32(argbuf[0:4], uint32(i))
		binary.LittleEndian.PutUint32(argbuf[4:8], 1)
		if _, err := b.CallAppend(i%2, argbuf, dst[:0]); err != nil {
			fatal(err)
		}
	}
	// One uncommon case so the trace log has something to show.
	b.Call(99, nil)

	fmt.Printf("demo workload: %d calls\n\n%s", *calls, sys.Snapshot().Render())
	if evs := log.Events(); len(evs) > 0 {
		fmt.Printf("\ntrace events (%d):\n", len(evs))
		for _, ev := range evs {
			fmt.Printf("  %s\n", ev)
		}
	}
}

// --- idl mode (the original census) ---

func idlMode(paths []string) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lrpcstat idl file.idl...")
		os.Exit(2)
	}

	var (
		interfaces, procs, params    int
		fixedParams, smallParams     int
		fixedOnlyProcs, small32Procs int
		astackBytes                  int
	)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		iface, err := idl.Parse(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", filepath.Base(path), err))
		}
		interfaces++
		procs += len(iface.Procs)
		fmt.Printf("%s: interface %s version %d, %d procedures\n",
			filepath.Base(path), iface.Name, iface.Version, len(iface.Procs))
		for i := range iface.Procs {
			p := &iface.Procs[i]
			all := append(append([]idl.Param{}, p.Params...), p.Results...)
			for _, pa := range all {
				params++
				if pa.Type.Fixed() {
					fixedParams++
					if pa.Type.FixedSize() <= 4 {
						smallParams++
					}
				}
			}
			if p.FixedOnly() {
				fixedOnlyProcs++
				if p.ArgBytes()+p.ResBytes() <= 32 {
					small32Procs++
				}
			}
			size := p.ArgBytes()
			if p.ResBytes() > size {
				size = p.ResBytes()
			}
			astackBytes += size
			fmt.Printf("  %-24s args %4dB  results %4dB  %s\n",
				p.Name, p.ArgBytes(), p.ResBytes(), procKind(p))
		}
	}

	fmt.Printf("\ncensus: %d interfaces, %d procedures, %d parameters\n", interfaces, procs, params)
	if params > 0 {
		fmt.Printf("fixed-size parameters:      %5.1f%%  (paper: ~80%%)\n", pct(fixedParams, params))
		fmt.Printf("parameters <= 4 bytes:      %5.1f%%  (paper: ~65%%)\n", pct(smallParams, params))
	}
	if procs > 0 {
		fmt.Printf("fixed-only procedures:      %5.1f%%  (paper: ~67%%)\n", pct(fixedOnlyProcs, procs))
		fmt.Printf("procedures <= 32 bytes:     %5.1f%%  (paper: ~60%%)\n", pct(small32Procs, procs))
		fmt.Printf("mean declared A-stack size: %d bytes\n", astackBytes/procs)
	}
}

func procKind(p *idl.Proc) string {
	switch {
	case p.Protected:
		return "protected"
	case !p.FixedOnly():
		return "variable-size"
	default:
		return "fixed-size"
	}
}

func pct(n, d int) float64 { return 100 * float64(n) / float64(d) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lrpcstat:", err)
	os.Exit(1)
}
