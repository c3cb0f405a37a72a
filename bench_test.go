// Benchmarks regenerating every table and figure of the paper plus the
// wall-clock comparison on the Go runtime.
//
// Simulated-plane benchmarks (BenchmarkTable*/BenchmarkFigure*) report the
// paper-comparable number as a custom metric, "sim_us/call" (simulated
// microseconds per call) or "sim_calls/s"; ns/op for those measures how
// fast the simulator itself runs and is not paper-comparable.
//
// Wall-clock benchmarks (BenchmarkWallClock*) report real ns/op on the Go
// runtime: LRPC's direct handoff versus the message-passing baseline's
// goroutine rendezvous, including the global-lock scaling collapse of
// Figure 2.
package lrpc_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"lrpc"
	"lrpc/internal/core"
	"lrpc/internal/experiments"
	"lrpc/internal/kernel"
	"lrpc/internal/machine"
	"lrpc/internal/msgrpc"
	"lrpc/internal/nameserver"
	"lrpc/internal/sim"
	"lrpc/internal/stats"
	"lrpc/internal/workload"
)

// --- Table 4 / Table 5: the four tests on the simulated C-VAX Firefly ---

// simLRPC measures b.N calls of the given Table 4 procedure on a fresh
// simulated rig and reports simulated microseconds per call.
func simLRPC(b *testing.B, procIdx int, caching bool) {
	eng := sim.New()
	cpus := 1
	if caching {
		cpus = 2
	}
	mach := machine.New(eng, machine.CVAXFirefly(), cpus)
	kern := kernel.New(mach, 1)
	rt := core.NewRuntime(kern, nameserver.New())
	client := kern.NewDomain("client", kernel.DomainConfig{Footprint: kernel.DefaultClientFootprint})
	server := kern.NewDomain("server", kernel.DomainConfig{Footprint: kernel.DefaultServerFootprint})
	if caching {
		kern.DomainCaching = true
		kern.ParkIdle(mach.CPUs[1], server)
	}
	iface := &core.Interface{
		Name: "Test",
		Procs: []core.Proc{
			{Name: "Null", Handler: func(c *core.ServerCall) { c.ResultsBuf(0) }},
			{Name: "Add", ArgValues: 2, ArgBytes: 8, ResValues: 1, ResBytes: 4,
				Handler: func(c *core.ServerCall) { copy(c.ResultsBuf(4), c.Args()[:4]) }},
			{Name: "BigIn", ArgValues: 1, ArgBytes: 200,
				Handler: func(c *core.ServerCall) { c.ResultsBuf(0) }},
			{Name: "BigInOut", ArgValues: 1, ArgBytes: 200, ResValues: 1, ResBytes: 200,
				Handler: func(c *core.ServerCall) { copy(c.ResultsBuf(200), c.Args()) }},
		},
	}
	if _, err := rt.Export(server, iface); err != nil {
		b.Fatal(err)
	}
	var args []byte
	switch procIdx {
	case 1:
		args = make([]byte, 8)
	case 2, 3:
		args = make([]byte, 200)
	}
	var per sim.Duration
	kern.Spawn("caller", client, mach.CPUs[0], func(th *kernel.Thread) {
		cb, err := rt.Import(th, "Test")
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := cb.Call(th, procIdx, args); err != nil {
				b.Error(err)
				return
			}
		}
		start := th.P.Now()
		for i := 0; i < b.N; i++ {
			if _, err := cb.Call(th, procIdx, args); err != nil {
				b.Error(err)
				return
			}
		}
		per = th.P.Now().Sub(start) / sim.Duration(b.N)
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(per.Microseconds(), "sim_us/call")
}

// simTaos measures b.N SRC RPC calls.
func simTaos(b *testing.B, procIdx int) {
	eng := sim.New()
	mach := machine.New(eng, machine.CVAXFirefly(), 1)
	kern := kernel.New(mach, 1)
	prof := msgrpc.SRCRPC()
	tr := msgrpc.NewTransport(mach, prof)
	client := kern.NewDomain("client", kernel.DomainConfig{Footprint: prof.ClientFootprint})
	server := kern.NewDomain("server", kernel.DomainConfig{Footprint: prof.ServerFootprint})
	svc := &msgrpc.Service{Name: "Test", Procs: []msgrpc.Proc{
		{Name: "Null", Handler: func(a []byte) []byte { return nil }},
		{Name: "Add", ArgValues: 2, ResValues: 1, Handler: func(a []byte) []byte { return a[:4] }},
		{Name: "BigIn", ArgValues: 1, Handler: func(a []byte) []byte { return nil }},
		{Name: "BigInOut", ArgValues: 1, ResValues: 1, Handler: func(a []byte) []byte {
			out := make([]byte, len(a))
			copy(out, a)
			return out
		}},
	}}
	srv := tr.Serve(server, svc)
	conn := tr.Connect(client, srv)
	var args []byte
	switch procIdx {
	case 1:
		args = make([]byte, 8)
	case 2, 3:
		args = make([]byte, 200)
	}
	var per sim.Duration
	kern.Spawn("caller", client, mach.CPUs[0], func(th *kernel.Thread) {
		for i := 0; i < 5; i++ {
			if _, err := conn.Call(th, procIdx, args); err != nil {
				b.Error(err)
				return
			}
		}
		start := th.P.Now()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Call(th, procIdx, args); err != nil {
				b.Error(err)
				return
			}
		}
		per = th.P.Now().Sub(start) / sim.Duration(b.N)
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(per.Microseconds(), "sim_us/call")
}

// BenchmarkTable4 regenerates Table 4: the four tests across LRPC/MP,
// LRPC and Taos (SRC RPC). Paper: 125/157/464 for Null through
// 219/227/636 for BigInOut.
func BenchmarkTable4(b *testing.B) {
	tests := []string{"Null", "Add", "BigIn", "BigInOut"}
	for idx, name := range tests {
		b.Run(name+"/LRPC_MP", func(b *testing.B) { simLRPC(b, idx, true) })
		b.Run(name+"/LRPC", func(b *testing.B) { simLRPC(b, idx, false) })
		b.Run(name+"/Taos", func(b *testing.B) { simTaos(b, idx) })
	}
}

// BenchmarkTable5 regenerates the Null-call breakdown; the total must be
// the 157 simulated microseconds of Table 5.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5()
		if r.TotalUs < 156 || r.TotalUs > 158 {
			b.Fatalf("Null total = %.1fus, want 157", r.TotalUs)
		}
		b.ReportMetric(r.TotalUs, "sim_us/call")
	}
}

// --- Table 2: the six-system Null comparison ---

// BenchmarkTable2 regenerates Table 2's Null (actual) column per system.
func BenchmarkTable2(b *testing.B) {
	systems := []struct {
		name string
		prof msgrpc.Profile
		cfg  machine.Config
	}{
		{"Accent_PERQ", msgrpc.AccentRPC(), machine.PERQ()},
		{"Taos_CVAX", msgrpc.SRCRPC(), machine.CVAXFirefly()},
		{"Mach_CVAX", msgrpc.MachRPC(), machine.CVAXMach()},
		{"V_68020", msgrpc.VRPC(), machine.M68020()},
		{"Amoeba_68020", msgrpc.AmoebaRPC(), machine.M68020()},
		{"DASH_68020", msgrpc.DASHRPC(), machine.M68020()},
	}
	for _, s := range systems {
		s := s
		b.Run(s.name, func(b *testing.B) {
			eng := sim.New()
			mach := machine.New(eng, s.cfg, 1)
			kern := kernel.New(mach, 1)
			tr := msgrpc.NewTransport(mach, s.prof)
			client := kern.NewDomain("client", kernel.DomainConfig{Footprint: s.prof.ClientFootprint})
			server := kern.NewDomain("server", kernel.DomainConfig{Footprint: s.prof.ServerFootprint})
			srv := tr.Serve(server, &msgrpc.Service{Name: "S", Procs: []msgrpc.Proc{
				{Name: "Null", Handler: func(a []byte) []byte { return nil }},
			}})
			conn := tr.Connect(client, srv)
			var per sim.Duration
			kern.Spawn("caller", client, mach.CPUs[0], func(th *kernel.Thread) {
				for i := 0; i < 3; i++ {
					if _, err := conn.Call(th, 0, nil); err != nil {
						b.Error(err)
						return
					}
				}
				start := th.P.Now()
				for i := 0; i < b.N; i++ {
					if _, err := conn.Call(th, 0, nil); err != nil {
						b.Error(err)
						return
					}
				}
				per = th.P.Now().Sub(start) / sim.Duration(b.N)
			})
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(per.Microseconds(), "sim_us/call")
		})
	}
}

// --- Table 3: copy operations ---

// BenchmarkTable3 regenerates the copy-operation table and asserts the
// paper's code sets each run.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		if rows[0].LRPC != "A" || rows[1].LRPC != "AE" || rows[2].LRPC != "F" {
			b.Fatalf("LRPC copies = %v", rows)
		}
		if rows[0].MP != "ABCE" || rows[2].MP != "BCF" {
			b.Fatalf("MP copies = %v", rows)
		}
		if rows[0].RMP != "ADE" || rows[2].RMP != "BF" {
			b.Fatalf("RMP copies = %v", rows)
		}
	}
}

// --- Figure 2: multiprocessor throughput ---

// BenchmarkFigure2 regenerates the throughput curve; the reported metric
// is aggregate simulated calls per second at each processor count.
func BenchmarkFigure2(b *testing.B) {
	for cpus := 1; cpus <= 4; cpus++ {
		cpus := cpus
		b.Run(fmt.Sprintf("LRPC/cpus-%d", cpus), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				pts := experiments.Figure2(machine.CVAXFirefly(), cpus, 400)
				rate = pts[cpus-1].LRPCMeasured
			}
			b.ReportMetric(rate, "sim_calls/s")
		})
	}
	b.Run("SRC/cpus-4", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			pts := experiments.Figure2(machine.CVAXFirefly(), 4, 400)
			rate = pts[3].SRCMeasured
		}
		b.ReportMetric(rate, "sim_calls/s")
	})
}

// --- Table 1 and Figure 1: workload models ---

// BenchmarkTable1 runs the three activity models; the metric is the
// cross-machine percentage of the Taos model (paper: 5.3%).
func BenchmarkTable1(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		res := workload.TaosModel().Run(rng, 200_000)
		pct = res.PercentCrossMachine()
	}
	b.ReportMetric(pct, "pct_cross_machine")
}

// BenchmarkFigure1 generates the call-size distribution; the metric is
// the fraction of calls under 200 bytes (paper: "a majority").
func BenchmarkFigure1(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pop := workload.NewPopulation(rng)
	var below200 float64
	for i := 0; i < b.N; i++ {
		sizes := pop.CallSizes(rng, 100_000)
		h := stats.NewHistogram(50, 36)
		for _, s := range sizes {
			h.Add(float64(s))
		}
		below200 = 100 * h.CumulativeBelow(200)
	}
	b.ReportMetric(below200, "pct_below_200B")
}

// --- Wall-clock benches: the shape on the real Go runtime ---

func wallSystem(b *testing.B) (*lrpc.System, *lrpc.Binding) {
	sys := lrpc.NewSystem()
	iface := &lrpc.Interface{
		Name: "Bench",
		Procs: []lrpc.Proc{
			{Name: "Null", AStackSize: 8, Handler: func(c *lrpc.Call) { c.ResultsBuf(0) }},
			{Name: "Add", AStackSize: 8, Handler: func(c *lrpc.Call) {
				a := binary.LittleEndian.Uint32(c.Args()[0:4])
				v := binary.LittleEndian.Uint32(c.Args()[4:8])
				binary.LittleEndian.PutUint32(c.ResultsBuf(4), a+v)
			}},
			{Name: "BigInOut", AStackSize: 200, NumAStacks: 64, Handler: func(c *lrpc.Call) {
				c.ResultsBuf(200)
			}},
		},
	}
	if _, err := sys.Export(iface); err != nil {
		b.Fatal(err)
	}
	bind, err := sys.Import("Bench")
	if err != nil {
		b.Fatal(err)
	}
	return sys, bind
}

// BenchmarkWallClockLRPC measures the real Go-runtime LRPC path: direct
// handoff on the calling goroutine.
func BenchmarkWallClockLRPC(b *testing.B) {
	_, bind := wallSystem(b)
	cases := []struct {
		name string
		proc int
		args []byte
	}{
		{"Null", 0, nil},
		{"Add", 1, make([]byte, 8)},
		{"BigInOut", 2, make([]byte, 200)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := bind.CallAppend(c.proc, c.args, buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = res
			}
		})
		b.Run(c.name+"-parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				var buf []byte
				for pb.Next() {
					res, err := bind.CallAppend(c.proc, c.args, buf[:0])
					if err != nil {
						b.Fatal(err)
					}
					buf = res
				}
			})
		})
	}
}

// BenchmarkWallClockScaling is the LRPC side of the Figure 2 analog on
// the real runtime: aggregate Null throughput at GOMAXPROCS 1..4 through
// the lock-free transfer path. The paper-comparable number is the
// "calls/s" metric; on a multi-core host it rises with the processor
// count. The global-lock side is the simulator's (lrpcbench figure2).
func BenchmarkWallClockScaling(b *testing.B) {
	maxProcs := 4
	if n := runtime.NumCPU(); n < maxProcs {
		maxProcs = n
	}
	for procs := 1; procs <= maxProcs; procs++ {
		procs := procs
		b.Run(fmt.Sprintf("LRPC/procs-%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, bind := wallSystem(b)
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := bind.Call(0, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "calls/s")
		})
	}
}

// BenchmarkWallClockMsgRPC measures the message-passing baseline: channel
// rendezvous with concrete server goroutines and the conventional copy
// complement. The gap to BenchmarkWallClockLRPC is the wall-clock analog
// of the paper's factor of three.
func BenchmarkWallClockMsgRPC(b *testing.B) {
	cfg := lrpc.MessageConfig{Workers: runtime.GOMAXPROCS(0)}
	b.Run("FullCopy/Null", func(b *testing.B) {
		sys, _ := wallSystem(b)
		mb, err := sys.ImportMessage("Bench", cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer mb.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mb.Call(0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullCopy/Null-parallel", func(b *testing.B) {
		sys, _ := wallSystem(b)
		mb, err := sys.ImportMessage("Bench", cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer mb.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := mb.Call(0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkWallClockNetwork measures the real TCP cross-machine path over
// loopback — the section 5.1 comparison point: orders of magnitude above
// the local direct-handoff call.
func BenchmarkWallClockNetwork(b *testing.B) {
	sys, _ := wallSystem(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetwork(l)
	c, err := lrpc.DialInterface("tcp", l.Addr().String(), "Bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	args := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(0, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkday runs the Taos-workday integration; the metric is the
// measured cross-machine percentage (paper: 5.3%).
func BenchmarkWorkday(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := experiments.Workday(5_000, 1)
		pct = r.PctRemote
	}
	b.ReportMetric(pct, "pct_cross_machine")
}

// BenchmarkStructureTax runs the three-structure comparison; the metric is
// the SRC-over-LRPC tax ratio.
func BenchmarkStructureTax(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.StructureTax(1_000, 11)
		ratio = rows[2].MeanOpUs / rows[1].MeanOpUs
	}
	b.ReportMetric(ratio, "src_over_lrpc")
}
