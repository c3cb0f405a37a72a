package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lrpc"
)

// Every workload is a closed loop with one caller goroutine, one
// session or connection and library-default options on both ends: a
// caller of this system waits for each reply, and the host has one core
// for it and one for the server process.
type workload struct {
	name string
	why  string
	// transport is "inproc", "shm" or "tcp"; the last two call the
	// re-executed server process.
	transport string
	// metrics turns System.EnableMetrics on in the serving domain: the
	// feature under test on inproc-metrics, not the benchmark's tracing.
	metrics bool
	// tracedMetrics turns it on for the traced pass only, where a layer
	// metric needs the export's histograms.
	tracedMetrics bool
	dial          lrpc.ShmDialOptions
	warmCalls     int
	step          func(in *instance) func(*tracer) stepResult
}

// inprocSmall times blocks of 256 calls, so that two clock reads do not
// dominate an 80-ns call.
func inprocSmall(in *instance) func(*tracer) stepResult {
	return smallStep(in, "Binding.CallAppend", in.callAppend(), 256, false)
}

var workloads = []*workload{
	{name: "inproc-small", transport: "inproc", warmCalls: 1000, step: inprocSmall,
		why: "Binding.CallAppend on the Table 4 mix: the lrpc+astack core does all the work, the 0-lock/0-alloc path no refactor may move"},
	{name: "inproc-metrics", transport: "inproc", metrics: true, warmCalls: 1000, step: inprocSmall,
		why: "the same calls with System.EnableMetrics on: a sampling change must win here without costing inproc-small"},
	{name: "inproc-async", transport: "inproc", warmCalls: 1000,
		why: "Binding.NewBatch of 16 calls, Flush, Wait, Reset: the async layer (future pool, batch staging) with no transport under it",
		step: func(in *instance) func(*tracer) stepResult {
			return batchStep(in, in.bind.NewBatch(), 16)
		}},
	{name: "shm-small", transport: "shm", warmCalls: 1000,
		why: "ShmClient.Call to a second process: doorbell, spin/park wake and reply demux are about 97% of the time",
		step: func(in *instance) func(*tracer) stepResult {
			return smallStep(in, "ShmClient.Call", in.shm.Call, 1, true)
		}},
	{name: "shm-batch", transport: "shm", warmCalls: 1000, dial: lrpc.ShmDialOptions{Slots: 64},
		why: "ShmClient.NewBatch of 64 calls per doorbell: coalesced submission and bulk reap, which a sync-wake change can hurt while shm-small improves",
		step: func(in *instance) func(*tracer) stepResult {
			return batchStep(in, in.shm.NewBatch(), 64)
		}},
	{name: "shm-bulk", transport: "shm", warmCalls: 12, tracedMetrics: true,
		why:  "ShmClient.CallBulk of 64 KiB, 1 MiB and 8 MiB, reads beside writes: page allocator, descriptor checks and copies, per-call cost diluted",
		step: bulkStep},
	{name: "tcp-small", transport: "tcp", warmCalls: 1000,
		why: "NetClient.Call over loopback: encode, write and the reader/demux handoff do the work, shm none",
		step: func(in *instance) func(*tracer) stepResult {
			return smallStep(in, "NetClient.Call", in.net.Call, 1, true)
		}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// errSkipped reports a workload whose transport this platform lacks.
var errSkipped = errors.New("skipped: no shared-memory plane on this platform")

// instance is one workload set up and warmed: the serving domain, the
// caller's binding to it, and the generated inputs.
type instance struct {
	w    *workload
	seed int64
	ops  []op

	sys  *lrpc.System // in-process serving domain
	exp  *lrpc.Export
	bind *lrpc.Binding

	srv *child // cross-process serving domain
	shm *lrpc.ShmClient
	net *lrpc.NetClient

	dialNs      int64 // DialShm or DialInterface alone
	bulkRetries int   // CallBulk retried after ErrNoAStacks (bulk pages exhausted)
	step        func(*tracer) stepResult
}

// setUp builds the workload from nothing to its first verified calls:
// spawn the server, listen, dial or bind, warm up. The returned duration
// is the workload's setup_s.
func setUp(w *workload, seed int64, dir string, traced bool) (in *instance, took time.Duration, err error) {
	start := time.Now()
	in = &instance{w: w, seed: seed, ops: genOps(seed)}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	metricsOn := w.metrics || traced && w.tracedMetrics
	if w.transport == "inproc" {
		if in.sys, in.exp, err = newServer(metricsOn); err != nil {
			return in, 0, err
		}
		if in.bind, err = in.sys.Import(ifaceName); err != nil {
			return in, 0, err
		}
	} else {
		if in.srv, err = startChild(dir, metricsOn); err != nil {
			return in, 0, err
		}
		t0 := time.Now()
		if w.transport == "tcp" {
			in.net, err = lrpc.DialInterface("tcp", in.srv.tcpAddr, ifaceName)
		} else if !in.srv.hasShm {
			err = errSkipped
		} else {
			in.shm, err = lrpc.DialShmOpts(in.srv.sock, ifaceName, w.dial)
		}
		if err != nil {
			return in, 0, err
		}
		in.dialNs = int64(time.Since(t0))
	}
	in.step = w.step(in)
	for calls := 0; calls < w.warmCalls; {
		r := in.step(nil)
		if r.failed > 0 {
			return in, 0, fmt.Errorf("%s: %d of %d warm-up calls failed", w.name, r.failed, r.calls)
		}
		calls += r.calls
	}
	return in, time.Since(start), nil
}

// close releases everything setUp acquired; the server process is
// reaped and its socket directory removed.
func (in *instance) close() error {
	var err error
	if in.shm != nil {
		err = in.shm.Close()
	}
	if in.net != nil {
		err = errors.Join(err, in.net.Close())
	}
	if in.srv != nil {
		err = errors.Join(err, in.srv.close())
	}
	return err
}

// callAppend is Binding.Call with a reused result buffer — CallAppend,
// the form TestCallZeroAllocs pins at zero allocations.
func (in *instance) callAppend() func(int, []byte) ([]byte, error) {
	buf := make([]byte, 0, 256)
	return func(proc int, args []byte) ([]byte, error) {
		return in.bind.CallAppend(proc, args, buf[:0])
	}
}

// counters is every public counter the layers expose, both sides of the
// call, read between passes and differenced.
type counters struct {
	exportCalls uint64
	export      lrpc.ExportSnapshot // in-process only
	bulkP50Ns   float64
	shmClient   lrpc.ShmClientStats
	shmServer   lrpc.ShmServerStats
	net         lrpc.NetClientStats
	clientCPU   int64
	serverCPU   int64
	mallocs     uint64
}

func (in *instance) counters() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.clientCPU = processCPUNs()
	if in.exp != nil {
		c.export = in.exp.MetricsSnapshot()
		c.exportCalls = c.export.Calls
		c.bulkP50Ns = float64(c.export.Bulk.Percentile(50))
	}
	if in.srv != nil {
		st, err := in.srv.stats()
		if err != nil {
			return c, fmt.Errorf("server stats: %w", err)
		}
		c.exportCalls, c.bulkP50Ns, c.shmServer, c.serverCPU = st.ExportCalls, st.BulkP50Ns, st.Shm, st.CPUNs
	}
	if in.shm != nil {
		c.shmClient = in.shm.Stats()
	}
	if in.net != nil {
		c.net = in.net.Stats()
	}
	return c, nil
}

// smallStep issues block calls of the small mix through call. Traced, it
// wraps each in a root span and a span around the public call; when
// stamped it calls the stamped twin and splits that span into the three
// legs, which sum to it exactly.
func smallStep(in *instance, callName string, call func(int, []byte) ([]byte, error), block int, stamped bool) func(*tracer) stepResult {
	k := 0
	next := func() *op {
		o := &in.ops[k]
		k = (k + 1) % len(in.ops)
		return o
	}
	root := in.w.name + "/op"
	spans := 2 // per traced call: the root and the public call, plus the three legs
	if stamped {
		spans = 5
	}
	return func(tr *tracer) stepResult {
		r := stepResult{calls: block}
		t0 := nanotime()
		for i := 0; i < block; i++ {
			o := next()
			if tr == nil {
				res, err := call(o.proc, o.args)
				if ok, _, _ := o.check(res, false); err != nil || !ok {
					r.failed++
					continue
				}
				r.bytes += o.payload()
				continue
			}
			proc := o.proc
			if stamped {
				proc += stampOff
			}
			s0 := unixNow()
			res, err := call(proc, o.args)
			s1 := unixNow()
			ok, entry, exit := o.check(res, stamped)
			if err != nil || !ok {
				r.failed++
				continue
			}
			r.bytes += o.payload()
			id, ok := tr.op(spans)
			if !ok {
				continue
			}
			parent := tr.add(root, s0, unixNow(), -1, id)
			parent = tr.add(callName, s0, s1, parent, id)
			if stamped {
				tr.add(spanRequestLeg, s0, entry, parent, id)
				tr.add(spanHandler, entry, exit, parent, id)
				tr.add(spanReplyLeg, exit, s1, parent, id)
			}
		}
		r.end = nanotime()
		r.latNs = r.end - t0
		return r
	}
}

// batchStep stages size calls on bt, submits them with one doorbell and
// reaps them; every entry's Result is checked. Traced, it flushes
// explicitly so staging, flush and wait each get a span.
func batchStep(in *instance, bt *lrpc.Batch, size int) func(*tracer) stepResult {
	k := 0
	root := in.w.name + "/op"
	staged := make([]*op, size)
	return func(tr *tracer) stepResult {
		r := stepResult{calls: size}
		var s0, s1, s2 int64
		if tr != nil {
			s0 = unixNow()
		}
		t0 := nanotime()
		for i := range staged {
			staged[i] = &in.ops[k]
			k = (k + 1) % len(in.ops)
			if _, err := bt.Call(staged[i].proc, staged[i].args); err != nil {
				// Not staged: it has no entry, and counts as failed.
				staged[i] = nil
			}
		}
		if tr != nil {
			s1 = unixNow()
			bt.Flush()
			s2 = unixNow()
		}
		bt.Wait()
		r.end = nanotime()
		r.latNs = r.end - t0
		entry := 0
		for _, o := range staged {
			if o == nil {
				r.failed++
				continue
			}
			res, err := bt.Result(entry)
			entry++
			if ok, _, _ := o.check(res, false); err != nil || !ok {
				r.failed++
				continue
			}
			r.bytes += o.payload()
		}
		bt.Reset()
		if id, ok := tr.op(4); ok {
			s3 := s0 + r.latNs
			parent := tr.add(root, s0, unixNow(), -1, id)
			tr.add(spanStage, s0, s1, parent, id)
			tr.add(spanFlush, s1, s2, parent, id)
			tr.add(spanWait, s2, s3, parent, id)
		}
		return r
	}
}

// bulkStep moves one payload per step: BulkIn sends a prefix of the
// seeded pattern and checks the server's strided checksum of it; BulkOut
// asks for the pattern back and checks 64 sampled bytes, cleared before
// the call so a transfer that never happened cannot pass.
func bulkStep(in *instance) func(*tracer) stepResult {
	seed := uint64(in.seed)
	pattern := make([]byte, maxBulk)
	fillPattern(pattern, seed)
	sink := make([]byte, maxBulk)
	rng := rand.New(rand.NewSource(in.seed))
	type plan struct {
		op      bulkOp
		size    int
		h       *lrpc.BulkHandle
		args    []byte
		want    uint64 // BulkIn: the checksum
		samples []int  // BulkOut: offsets checked
	}
	var plans []plan
	for _, o := range genBulkOps(in.seed) {
		p := plan{op: o, size: o.size.bytes}
		if o.out {
			p.h = lrpc.NewBulkOut(sink[:p.size])
			p.args = le.AppendUint64(le.AppendUint64(nil, seed), uint64(p.size))
			for i := 0; i < 64; i++ {
				p.samples = append(p.samples, rng.Intn(p.size))
			}
		} else {
			p.h = lrpc.NewBulkIn(pattern[:p.size])
			p.want = stridedSum([][]byte{pattern}, p.size)
		}
		plans = append(plans, p)
	}
	k := 0
	root := in.w.name + "/op"
	return func(tr *tracer) stepResult {
		p := &plans[k]
		k = (k + 1) % len(plans)
		proc := procBulkSum
		if p.op.out {
			proc = procBulkFill
			for _, off := range p.samples {
				sink[off] = ^pattern[off]
			}
		}
		r := stepResult{calls: 1}
		s0 := unixNow()
		t0 := nanotime()
		res, err := in.shm.CallBulk(proc, p.args, p.h)
		for try := 0; try < 3 && errors.Is(err, lrpc.ErrNoAStacks); try++ {
			in.bulkRetries++
			res, err = in.shm.CallBulk(proc, p.args, p.h)
		}
		r.end = nanotime()
		r.latNs = r.end - t0
		ok := err == nil && p.h.Transferred() == int64(p.size)
		if ok && p.op.out {
			for _, off := range p.samples {
				ok = ok && sink[off] == pattern[off]
			}
		} else if ok {
			ok = len(res) == 8 && le.Uint64(res) == p.want
		}
		if !ok {
			r.failed = 1
			return r
		}
		r.bytes = p.size
		if id, ok := tr.op(2); ok {
			parent := tr.add(root, s0, unixNow(), -1, id)
			tr.add(p.op.span(), s0, s0+r.latNs, parent, id)
		}
		return r
	}
}
