package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"lrpc"
	"lrpc/internal/shmring"
)

// metric is one reported number; metrics maps names to them.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name, unit string, v float64) { m[name] = metric{v, unit} }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerRun is what the traced stage keeps of one workload.
type layerRun struct {
	untraced, traced *pass
	tr               *tracer
}

// runLayers is the traced stage. Each workload is set up once and driven
// twice — untraced, then traced with spans written to
// dir/trace-<workload>.json — with the public counters of both processes
// read around each pass, and the fixed probes run on the same instance.
// Every layer is measured from outside: by timing calls into public
// functions, reading public counters, and differencing. extra lengthens
// the named workload's untraced pass, whose windows and tail feed the
// caller.* metrics.
func runLayers(cfg config, per time.Duration, named string, extra time.Duration) (metrics, map[string]*layerRun, error) {
	m := metrics{}
	runs := map[string]*layerRun{}
	for _, w := range workloads {
		in, _, err := setUp(w, cfg.seed, cfg.outDir, true)
		if errors.Is(err, errSkipped) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		lr, err := layersOf(m, in, cfg, per, w.name == named, extra)
		if cerr := in.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runs[w.name] = lr
	}
	p50 := func(name string) float64 {
		if lr := runs[name]; lr != nil {
			return quantile(lr.untraced.latencies(), 0.5)
		}
		return 0
	}
	m.put("metrics.on_overhead_ns", "ns", p50("inproc-metrics")-p50("inproc-small"))
	m.put("shm.over_inproc_ns", "ns", p50("shm-small")-m["lrpc.null_ns"].Value)
	m.put("net.over_loopback_ns", "ns", p50("tcp-small")-m["net.loopback_rtt_ns"].Value)
	if err := standaloneProbes(m, cfg.probe); err != nil {
		return nil, nil, err
	}
	return m, runs, nil
}

// checkCounts is the cross-check of the satellite: the serving export
// (and, over shm, the shm server) must have completed exactly the calls
// the caller attempted.
func checkCounts(in *instance, p *pass, before, after counters) error {
	if got := after.exportCalls - before.exportCalls; got != p.attempted {
		return fmt.Errorf("export completed %d calls, caller attempted %d", got, p.attempted)
	}
	if in.shm != nil {
		if got := after.shmServer.Calls - before.shmServer.Calls; got != p.attempted {
			return fmt.Errorf("shm server dispatched %d calls, caller attempted %d", got, p.attempted)
		}
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d calls failed or returned a wrong result", p.failed, p.attempted)
	}
	return nil
}

func layersOf(m metrics, in *instance, cfg config, per time.Duration, named bool, extra time.Duration) (*layerRun, error) {
	udur := per
	if named {
		udur += extra
	}
	c0, err := in.counters()
	if err != nil {
		return nil, err
	}
	u := runPass(in.step, nil, udur)
	c1, err := in.counters()
	if err != nil {
		return nil, err
	}
	if err := checkCounts(in, u, c0, c1); err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	t := runPass(in.step, tr, per)
	c2, err := in.counters()
	if err != nil {
		return nil, err
	}
	if err := checkCounts(in, t, c1, c2); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := tr.write(cfg.outDir, in.w.name); err != nil {
		return nil, err
	}

	calls := float64(u.attempted)
	allocs := math.Round(float64(c1.mallocs-c0.mallocs)/calls*1000) / 1000
	legs := func(layer string) {
		m.put(layer+".request_leg_ns", "ns", median(tr.durations(spanRequestLeg)))
		m.put(layer+".handler_ns", "ns", median(tr.durations(spanHandler)))
		m.put(layer+".reply_leg_ns", "ns", median(tr.durations(spanReplyLeg)))
	}
	perProc := func(layer string, block int, call func(int, []byte) ([]byte, error)) error {
		for p, name := range procNames {
			var ops []op
			for _, o := range in.ops {
				if o.proc == p {
					ops = append(ops, o)
				}
			}
			ns, err := timeCalls(ops, cfg.probe, block, func(o *op) ([]byte, error) { return call(o.proc, o.args) })
			if err != nil {
				return err
			}
			m.put(layer+"."+name+"_ns", "ns", ns)
		}
		return nil
	}

	switch in.w.name {
	case "inproc-small":
		m.put("lrpc.calls", "count", float64(c2.exportCalls-c1.exportCalls))
		m.put("lrpc.allocs_per_call", "count", allocs)
		if err := perProc("lrpc", 256, in.callAppend()); err != nil {
			return nil, err
		}
		var imports []int64
		for i := 0; i < 101; i++ {
			t0 := nanotime()
			if _, err := in.sys.Import(ifaceName); err != nil {
				return nil, err
			}
			imports = append(imports, nanotime()-t0)
		}
		m.put("lrpc.import_ns", "ns", median(imports))
		ns, err := timeCalls(in.ops, cfg.probe, 64, func(o *op) ([]byte, error) {
			f, err := in.bind.CallAsync(o.proc, o.args)
			if err != nil {
				return nil, err
			}
			return f.Wait()
		})
		if err != nil {
			return nil, err
		}
		m.put("async.future_roundtrip_ns", "ns", ns)
		pattern := make([]byte, maxBulk)
		h := lrpc.NewBulkIn(pattern)
		want := stridedSum([][]byte{pattern}, maxBulk)
		var bad error
		m.put("bulk.inproc_call_ns", "ns", timeBlocks(cfg.probe, 1, func() {
			res, err := in.bind.CallBulk(procBulkSum, nil, h)
			if err != nil || len(res) != 8 || le.Uint64(res) != want {
				bad = fmt.Errorf("in-process CallBulk: wrong result (%v)", err)
			}
		}))
		if bad != nil {
			return nil, bad
		}

	case "inproc-metrics":
		sn := c2.export
		m.put("lrpc.dispatch_p50_ns", "ns", float64(sn.Dispatch.Percentile(50)))
		m.put("lrpc.handler_p50_ns", "ns", float64(sn.Handler.Percentile(50)))
		m.put("lrpc.copy_p50_ns", "ns", float64(sn.Copy.Percentile(50)))
		a, b := c1.export.Pools, sn.Pools
		m.put("astack.checkouts", "count", float64(b.Checkouts-a.Checkouts))
		m.put("astack.overflows", "count", float64(b.Overflows-a.Overflows))
		m.put("astack.waits", "count", float64(b.Waits-a.Waits))
		m.put("astack.drops", "count", float64(b.Drops-a.Drops))
		m.put("astack.overflow_ratio", "ratio", ratio(float64(b.Overflows-a.Overflows), float64(b.Checkouts-a.Checkouts)))
		m.put("metrics.snapshot_ns", "ns", timeBlocks(cfg.probe, 16, func() { in.sys.Snapshot() }))

	case "inproc-async":
		m.put("async.stage_ns", "ns", median(tr.durations(spanStage))/16)
		m.put("async.flush_ns", "ns", median(tr.durations(spanFlush))/16)
		m.put("async.wait_ns", "ns", median(tr.durations(spanWait))/16)
		m.put("async.allocs_per_call", "count", allocs)

	case "shm-small":
		legs("shm")
		if err := perProc("shm", 1, in.shm.Call); err != nil {
			return nil, err
		}
		a, b := c0.shmClient, c1.shmClient
		spin, park := float64(b.SpinReplies-a.SpinReplies), float64(b.ParkReplies-a.ParkReplies)
		m.put("shm.spin_reply_ratio", "ratio", ratio(spin, spin+park))
		m.put("shm.park_replies", "count", park)
		m.put("shm.failures", "count", float64(b.Failures-a.Failures))
		m.put("shm.timeouts", "count", float64(b.Timeouts-a.Timeouts))
		m.put("shm.server_calls", "count", float64(c1.shmServer.Calls-c0.shmServer.Calls))
		m.put("shm.torn_doorbells", "count", float64(c1.shmServer.TornDoorbells-c0.shmServer.TornDoorbells))
		m.put("shm.cpu_ns_per_call_client", "ns", float64(c1.clientCPU-c0.clientCPU)/calls)
		m.put("shm.cpu_ns_per_call_server", "ns", float64(c1.serverCPU-c0.serverCPU)/calls)
		m.put("shm.allocs_per_call", "count", allocs)
		m.put("shm.dial_s", "s", float64(in.dialNs)/1e9)

	case "shm-batch":
		a, b := c0.shmClient, c1.shmClient
		m.put("shm.doorbells_per_call", "count", ratio(float64(b.Batches-a.Batches), float64(b.BatchedCalls-a.BatchedCalls)))

	case "shm-bulk":
		for _, size := range bulkSizes {
			for _, dir := range []string{"in", "out"} {
				ns := median(tr.durations(bulkSpan(dir, size)))
				m.put("bulk."+dir+"_"+size.name+"_bytes_per_s", "B/s", ratio(float64(size.bytes)*1e9, ns))
			}
		}
		m.put("bulk.warm_8m_ns", "ns", median(tr.durations(bulkSpan("in", bulkSizes[2]))))
		m.put("bulk.server_bulk_p50_ns", "ns", c2.bulkP50Ns)
		m.put("bulk.page_exhaust_retries", "count", float64(in.bulkRetries))
		// First touch: the first 8 MiB call of a fresh session faults in
		// the bulk region's pages on both sides.
		pattern := make([]byte, maxBulk)
		fillPattern(pattern, uint64(in.seed))
		want := stridedSum([][]byte{pattern}, maxBulk)
		var cold []int64
		for i := 0; i < 3; i++ {
			c, err := lrpc.DialShm(in.srv.sock, ifaceName)
			if err != nil {
				return nil, err
			}
			t0 := nanotime()
			res, err := c.CallBulk(procBulkSum, nil, lrpc.NewBulkIn(pattern))
			cold = append(cold, nanotime()-t0)
			c.Close()
			if err != nil || len(res) != 8 || le.Uint64(res) != want {
				return nil, fmt.Errorf("cold CallBulk: wrong result (%v)", err)
			}
		}
		m.put("bulk.cold_8m_ns", "ns", median(cold))

	case "tcp-small":
		legs("net")
		if err := perProc("net", 1, in.net.Call); err != nil {
			return nil, err
		}
		a, b := c0.net, c1.net
		m.put("net.failures", "count", float64(b.Failures-a.Failures))
		m.put("net.retries", "count", float64(b.Retries-a.Retries))
		m.put("net.reconnects", "count", float64(b.Reconnects-a.Reconnects))
		m.put("net.cpu_ns_per_call_client", "ns", float64(c1.clientCPU-c0.clientCPU)/calls)
		m.put("net.cpu_ns_per_call_server", "ns", float64(c1.serverCPU-c0.serverCPU)/calls)
		m.put("net.allocs_per_call", "count", allocs)
		m.put("net.dial_s", "s", float64(in.dialNs)/1e9)
		rtt, err := loopbackRTT(in, cfg.probe)
		if err != nil {
			return nil, err
		}
		m.put("net.loopback_rtt_ns", "ns", rtt)
	}
	return &layerRun{u, t, tr}, nil
}

// timeCalls cycles through ops for dur, timing blocks of block
// calls and checking every result; it returns the median ns per op.
func timeCalls(ops []op, dur time.Duration, block int, call func(*op) ([]byte, error)) (float64, error) {
	k, bad := 0, 0
	ns := timeBlocks(dur, block, func() {
		o := &ops[k]
		k = (k + 1) % len(ops)
		res, err := call(o)
		if ok, _, _ := o.check(res, false); err != nil || !ok {
			bad++
		}
	})
	if bad > 0 {
		return 0, fmt.Errorf("probe: %d calls failed or returned a wrong result", bad)
	}
	return ns, nil
}

// loopbackRTT is the kernel floor under tcp-small: the small mix's frame
// sizes, request and reply, through a plain net.Conn and an echo
// goroutine in the server process, with no lrpc code on either side.
func loopbackRTT(in *instance, dur time.Duration) (float64, error) {
	conn, err := net.Dial("tcp", in.srv.rawAddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	var ioErr error
	k := 0
	ns := timeBlocks(dur, 4, func() {
		o := &in.ops[k]
		k = (k + 1) % len(in.ops)
		// An lrpc request frame is 28 bytes plus the arguments (length,
		// call ID, the interface name, procedure word), a reply 13 plus
		// the results.
		n, reply := 20+len(o.args), 13+len(o.want)
		le.PutUint32(buf, uint32(n))
		le.PutUint32(buf[4:], uint32(reply))
		if _, err := conn.Write(buf[:8+n]); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(conn, buf[:reply]); err != nil {
			ioErr = err
		}
	})
	return ns, ioErr
}

// calibrate times a fixed scalar loop: the host-speed anchor to read the
// other numbers against.
func calibrate(dur time.Duration) float64 {
	x := uint64(88172645463325252)
	return timeBlocks(dur, 1<<16, func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibSink = x
	})
}

var calibSink uint64

// standaloneProbes measures the layers that need no workload: the shared
// ring on a private region, the hardware's copy rate, the host anchor.
func standaloneProbes(m metrics, dur time.Duration) error {
	m.put("caller.calib_ns_per_op", "ns", calibrate(dur))

	src, dst := make([]byte, maxBulk), make([]byte, maxBulk)
	fillPattern(src, 1)
	copy(dst, src) // fault the pages in before timing
	m.put("bulk.memcpy_bytes_per_s", "B/s", ratio(maxBulk*1e9, timeBlocks(dur, 1, func() { copy(dst, src) })))

	ring := func() (*shmring.Ring, error) {
		raw := make([]byte, shmring.Size(64)+64)
		off := (64 - int(uintptr(unsafe.Pointer(&raw[0]))%64)) % 64
		return shmring.Init(raw[off:off+shmring.Size(64)], 64)
	}
	r, err := ring()
	if err != nil {
		return err
	}
	m.put("shmring.push_pop_ns", "ns", timeBlocks(dur, 1024, func() {
		r.Push(1)
		r.Pop()
	}))
	batch := make([]uint64, 64)
	var reaps []int64
	for start := nanotime(); nanotime()-start < int64(dur); {
		for i := range batch {
			r.Push(uint64(i))
		}
		t0 := nanotime()
		n := r.PopBatch(batch)
		reaps = append(reaps, nanotime()-t0)
		if n != len(batch) {
			return fmt.Errorf("shmring probe: PopBatch reaped %d of %d", n, len(batch))
		}
	}
	m.put("shmring.popbatch_ns_per_entry", "ns", median(reaps)/float64(len(batch)))

	// 64 is the spin budget both ends of an shm session default to.
	for _, pp := range []struct {
		name string
		spin int
	}{{"shmring.pingpong_spin_ns", 64}, {"shmring.pingpong_park_ns", 0}} {
		ns, err := pingPong(ring, pp.spin, dur)
		if err != nil {
			return err
		}
		m.put(pp.name, "ns", ns)
	}
	return nil
}

// pingPong bounces a value between two locked OS threads through two
// rings, each side waiting with PopWait: the cost of the two wakes of a
// synchronous shm call, spinning or parked.
func pingPong(ring func() (*shmring.Ring, error), spin int, dur time.Duration) (float64, error) {
	ping, err := ring()
	if err != nil {
		return 0, err
	}
	pong, err := ring()
	if err != nil {
		return 0, err
	}
	const quantum = 50 * time.Millisecond // shm.go's park quantum
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := ping.PopWait(spin, quantum, stop.Load)
			if !ok {
				return
			}
			pong.Push(v)
			pong.Bump()
		}
	}()
	ns := timeBlocks(dur, 16, func() {
		ping.Push(1)
		ping.Bump()
		pong.PopWait(spin, quantum, nil)
	})
	stop.Store(true)
	ping.WakeAll()
	<-done
	return ns, nil
}

// callerMetrics are the benchmark's own loop for one workload: the tail
// (reported, not gated — on a shared two-core host it measures the
// scheduler), how far the windows of the pass spread, and what tracing
// cost.
func callerMetrics(m metrics, main *pass, lr *layerRun) {
	lat := main.latencies()
	m.put("caller.lat_p99_ns", "ns", quantile(lat, 0.99))
	m.put("caller.lat_p999_ns", "ns", quantile(lat, 0.999))
	m.put("caller.samples", "count", float64(len(lat)))
	rates := make([]float64, len(main.wins))
	for i, w := range main.wins {
		rates[i] = w.CallsPerS
	}
	m.put("caller.window_spread", "ratio", ratio(slices.Max(rates)-slices.Min(rates), median(rates)))
	m.put("caller.trace_overhead_ratio", "ratio",
		ratio(quantile(lr.traced.latencies(), 0.5), quantile(lr.untraced.latencies(), 0.5)))
}
