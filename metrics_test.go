package lrpc

// Tests for the observability layer (metrics.go) and the accounting /
// pool bugs fixed alongside it: histogram recording on every dispatch
// plane, tracer events for each uncommon case, the text/JSON/render
// surfaces, and regression tests for the four satellite bugs (call
// accounting under panics, ShareGroup combined sizing, the put/revoke
// race, duplicate procedure names).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Histograms and snapshots ---

func TestMetricsDisabledByDefault(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	if e.MetricsEnabled() {
		t.Error("metrics enabled before EnableMetrics")
	}
	if _, err := b.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	sn := e.MetricsSnapshot()
	if sn.Dispatch.Count != 0 || sn.Handler.Count != 0 || sn.Copy.Count != 0 {
		t.Errorf("histograms recorded while disabled: %+v", sn)
	}
	if sn.Calls != 1 {
		t.Errorf("coarse counters must still work: calls = %d", sn.Calls)
	}
	if sn.Pools.Checkouts != 0 {
		t.Errorf("pool gauges recorded while disabled: %+v", sn.Pools)
	}
}

func TestMetricsRecordAllPlanes(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics()
	if !e.MetricsEnabled() {
		t.Fatal("EnableMetrics did not reach the export")
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte{1, 2, 3, 4}
	// Direct plane.
	if _, err := b.Call(1, payload); err != nil {
		t.Fatal(err)
	}
	// Context plane.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if _, err := b.CallContext(ctx, 1, payload); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Message plane (reports its handler span through runHandler).
	mb, err := sys.ImportMessage("Arith", MessageConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Call(1, payload); err != nil {
		t.Fatal(err)
	}
	mb.Close()

	sn := e.MetricsSnapshot()
	// Two client-visible dispatch spans (direct + context; the message
	// plane measures only the handler), three handler spans.
	if sn.Dispatch.Count != 2 {
		t.Errorf("dispatch spans = %d, want 2", sn.Dispatch.Count)
	}
	if sn.Handler.Count != 3 {
		t.Errorf("handler spans = %d, want 3", sn.Handler.Count)
	}
	if sn.Copy.Count != 1 {
		t.Errorf("copy spans = %d, want 1 (direct plane only)", sn.Copy.Count)
	}
	if p50 := sn.Dispatch.Percentile(50); p50 <= 0 {
		t.Errorf("dispatch p50 = %v, want > 0", p50)
	}
	if sn.Dispatch.Mean() <= 0 || sn.Dispatch.Max() <= 0 {
		t.Errorf("degenerate dispatch stats: %+v", sn.Dispatch)
	}
	if sn.Pools.Checkouts < 2 {
		t.Errorf("pool checkouts = %d, want >= 2", sn.Pools.Checkouts)
	}
}

func TestEnableMetricsReachesExistingBindings(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith") // bound before enabling
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics()
	if _, err := b.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	sn := e.MetricsSnapshot()
	if sn.Pools.Checkouts == 0 {
		t.Error("pool gauges not installed on a pre-existing binding")
	}
	// And bindings imported after enabling record too.
	b2, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	before := e.MetricsSnapshot().Pools.Checkouts
	if _, err := b2.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.MetricsSnapshot().Pools.Checkouts; got != before+1 {
		t.Errorf("checkouts = %d, want %d", got, before+1)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h histogram
	// 100 spans of ~1µs (bucket [1024,2048)), 10 of ~1ms.
	for i := 0; i < 100; i++ {
		h.record(uint32(i), 1500*time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.record(uint32(i), 1500*time.Microsecond)
	}
	sn := h.snapshot()
	if sn.Count != 110 {
		t.Fatalf("count = %d, want 110", sn.Count)
	}
	p50 := sn.Percentile(50)
	if p50 < time.Microsecond || p50 > 2048*time.Nanosecond {
		t.Errorf("p50 = %v, want within [1.024µs, 2.048µs]", p50)
	}
	p99 := sn.Percentile(99)
	if p99 < time.Millisecond {
		t.Errorf("p99 = %v, want >= 1ms", p99)
	}
	if max := sn.Max(); max < p99 {
		t.Errorf("max %v < p99 %v", max, p99)
	}
	if empty := (HistogramSnapshot{}); empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

// TestMetricsSampling pins the sampling rule (DESIGN §5.9): every span
// of an export's first warmSpans invocations, then about one in
// sampleEvery, chosen so that no procedure of a periodic caller goes
// unseen, while the call counters and pool gauges stay exact.
func TestMetricsSampling(t *testing.T) {
	// within reports whether the timed calls among n past warm-up are
	// one in sampleEvery, give or take a quarter.
	within := func(timed, n uint64) bool {
		want := float64(n) / sampleEvery
		return float64(timed) >= 0.75*want && float64(timed) <= 1.25*want
	}

	t.Run("warm-up then one in 64", func(t *testing.T) {
		sys := NewSystem()
		sys.EnableMetrics()
		e, err := sys.Export(arithInterface())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Import("Arith")
		if err != nil {
			t.Fatal(err)
		}
		res := make([]byte, 0, 8)
		for i := 0; i < warmSpans; i++ {
			if _, err := b.CallAppend(2, nil, res); err != nil {
				t.Fatal(err)
			}
		}
		sn := e.MetricsSnapshot()
		for _, h := range []HistogramSnapshot{sn.Dispatch, sn.Handler, sn.Copy} {
			if h.Count != warmSpans {
				t.Fatalf("warm-up timed %d of %d calls, want all: %+v", h.Count, warmSpans, sn)
			}
		}
		const more = 64 << 10
		for i := 0; i < more; i++ {
			if _, err := b.CallAppend(2, nil, res); err != nil {
				t.Fatal(err)
			}
		}
		sn = e.MetricsSnapshot()
		t.Logf("timed %d of %d calls past warm-up", sn.Dispatch.Count-warmSpans, more)
		if timed := sn.Dispatch.Count - warmSpans; !within(timed, more) {
			t.Errorf("timed %d of %d calls past warm-up, want %d ± 25%%", timed, more, more/sampleEvery)
		}
		if sn.Handler.Count != sn.Dispatch.Count || sn.Copy.Count != sn.Dispatch.Count {
			t.Errorf("spans of one timed call disagree: dispatch %d, handler %d, copy %d",
				sn.Dispatch.Count, sn.Handler.Count, sn.Copy.Count)
		}
		if sn.Calls != warmSpans+more || sn.Pools.Checkouts != warmSpans+more {
			t.Errorf("calls %d, checkouts %d, want both exact: %d", sn.Calls, sn.Pools.Checkouts, warmSpans+more)
		}
	})

	t.Run("alternating procedures both timed", func(t *testing.T) {
		var timed [2]int
		count := func(i int) Handler {
			return func(c *Call) {
				if c.timed {
					timed[i]++
				}
			}
		}
		sys := NewSystem()
		sys.EnableMetrics()
		if _, err := sys.Export(&Interface{Name: "Alt", Procs: []Proc{
			{Name: "Even", Handler: count(0)},
			{Name: "Odd", Handler: count(1)},
		}}); err != nil {
			t.Fatal(err)
		}
		b, err := sys.Import("Alt")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmSpans; i++ {
			if _, err := b.CallAppend(i&1, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		timed = [2]int{}
		for i := 0; i < 64<<10; i++ {
			if _, err := b.CallAppend(i&1, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		total := timed[0] + timed[1]
		t.Logf("timed calls per procedure: %v", timed)
		for i, n := range timed {
			if 10*n < 3*total {
				t.Errorf("procedure %d got %d of %d timed calls, want at least 30%%", i, n, total)
			}
		}
	})

	t.Run("concurrent callers", func(t *testing.T) {
		sys := NewSystem()
		sys.EnableMetrics()
		e, err := sys.Export(arithInterface())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Import("Arith")
		if err != nil {
			t.Fatal(err)
		}
		const callers, each = 4, 20000
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := make([]byte, 0, 8)
				for i := 0; i < each; i++ {
					if _, err := b.CallAppend(2, nil, res); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		sn := e.MetricsSnapshot()
		const n = callers * each
		t.Logf("timed %d of %d calls", sn.Dispatch.Count, n)
		if timed := sn.Dispatch.Count - warmSpans; sn.Dispatch.Count < warmSpans || !within(timed, n-warmSpans) {
			t.Errorf("timed %d of %d calls, want %d + %d ± 25%%", sn.Dispatch.Count, n, warmSpans, (n-warmSpans)/sampleEvery)
		}
		if sn.Calls != n || sn.Pools.Checkouts != n {
			t.Errorf("calls %d, checkouts %d, want both exact: %d", sn.Calls, sn.Pools.Checkouts, n)
		}
	})
}

// --- Tracer ---

func TestTracerUncommonCaseEvents(t *testing.T) {
	sys := NewSystem()
	log := NewTraceLog(64)
	sys.SetTracer(log)

	e, err := sys.Export(&Interface{Name: "T", Procs: []Proc{
		{Name: "OK", AStackSize: 8, Handler: func(c *Call) { c.ResultsBuf(0) }},
		{Name: "Boom", AStackSize: 8, Handler: func(c *Call) { panic("boom") }},
		{Name: "Hang", AStackSize: 8, NumAStacks: 1, Handler: func(c *Call) {
			time.Sleep(20 * time.Millisecond)
			c.ResultsBuf(0)
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("T")
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Count(TraceBind); got != 1 {
		t.Errorf("bind events = %d, want 1", got)
	}

	// validate-fail: bad procedure index.
	if _, err := b.Call(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatal(err)
	}
	if got := log.Count(TraceValidateFail); got != 1 {
		t.Errorf("validate-fail events = %d, want 1", got)
	}

	// panic: contained handler panic.
	if _, err := b.Call(1, nil); !errors.Is(err, ErrCallFailed) {
		t.Fatal(err)
	}
	if got := log.Count(TracePanic); got != 1 {
		t.Errorf("panic events = %d, want 1", got)
	}

	// stack-wait: second caller parks on the exhausted single-stack pool.
	b.Policy = WaitForAStack
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Call(2, nil)
		}()
	}
	wg.Wait()
	if got := log.Count(TraceStackWait); got == 0 {
		t.Error("no stack-wait event from a parked caller")
	}

	// abandon: a deadline expires under a running handler.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := b.CallContext(ctx, 2, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
	if got := log.Count(TraceAbandon); got != 1 {
		t.Errorf("abandon events = %d, want 1", got)
	}

	// terminate.
	waitQuiesced(t, e)
	e.Terminate()
	if got := log.Count(TraceTerminate); got != 1 {
		t.Errorf("terminate events = %d, want 1", got)
	}

	// Removing the tracer stops the flow.
	sys.SetTracer(nil)
	if _, err := b.Call(99, nil); !errors.Is(err, ErrRevoked) {
		t.Fatal(err)
	}
	if got := log.Count(TraceValidateFail); got != 1 {
		t.Errorf("events after SetTracer(nil): validate-fail = %d, want 1", got)
	}

	for _, ev := range log.Events() {
		if ev.String() == "" {
			t.Error("empty event rendering")
		}
	}
}

func TestNetClientReconnectTraceEvent(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	log := NewTraceLog(16)
	var mu sync.Mutex
	var conns []net.Conn
	c, err := NewReconnectingClient("Arith", DialOptions{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			return conn, nil
		},
		CallTimeout:    2 * time.Second,
		BackoffInitial: time.Millisecond,
		Seed:           1,
		Tracer:         log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte{9, 9}
	if _, err := c.Call(1, payload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	conns[0].Close()
	mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if res, err := c.Call(1, payload); err == nil && bytes.Equal(res, payload) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered")
		}
	}
	if got := log.Count(TraceReconnect); got == 0 {
		t.Error("no reconnect trace event after a successful redial")
	}
}

func TestTraceLogRingWraps(t *testing.T) {
	log := NewTraceLog(4)
	for i := 0; i < 10; i++ {
		log.TraceEvent(TraceEvent{Kind: TraceBind, Iface: fmt.Sprintf("I%d", i)})
	}
	if got := log.Count(TraceBind); got != 10 {
		t.Errorf("count = %d, want 10 (counts survive overwrites)", got)
	}
	evs := log.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Iface != "I6" || evs[3].Iface != "I9" {
		t.Errorf("ring kept %v..%v, want I6..I9", evs[0].Iface, evs[3].Iface)
	}
}

// --- Surfaces: text, HTTP, render ---

func TestWriteMetricsText(t *testing.T) {
	sys := NewSystem()
	sys.EnableMetrics()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Call(2, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lrpc_calls_total{iface="Arith"} 10`,
		`lrpc_span_count{iface="Arith",span="dispatch"} 10`,
		`lrpc_span_ns{iface="Arith",span="dispatch",q="p50"}`,
		`lrpc_pool_checkouts_total{iface="Arith"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text export missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsHandlerJSONAndText(t *testing.T) {
	sys := NewSystem()
	sys.EnableMetrics()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(2, nil); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(sys.MetricsHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sn.Interfaces) != 1 || sn.Interfaces[0].Name != "Arith" {
		t.Fatalf("snapshot over HTTP: %+v", sn)
	}
	if sn.Interfaces[0].Dispatch.Count != 1 {
		t.Errorf("dispatch count over HTTP = %d, want 1", sn.Interfaces[0].Dispatch.Count)
	}

	resp, err = srv.Client().Get(srv.URL + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(body.String(), "lrpc_calls_total") {
		t.Errorf("text format missing counters:\n%s", body.String())
	}
}

func TestSnapshotRender(t *testing.T) {
	sys := NewSystem()
	sys.EnableMetrics()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := b.Call(2, nil); err != nil {
			t.Fatal(err)
		}
	}
	out := sys.Snapshot().Render()
	for _, want := range []string{"interface Arith", "dispatch", "p50", "pools:", "latency distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if empty := (Snapshot{}).Render(); !strings.Contains(empty, "no exported interfaces") {
		t.Errorf("empty render: %q", empty)
	}
}

// --- Satellite 1: completed-call accounting under panics ---

// TestCallsAccountingAgreesUnderPanics drives the same panicking
// workload through the direct plane, the context plane, and the network
// gateway, asserting Calls() counts only the non-panicked completions on
// every plane (CallContext used to count panicked activations too).
func TestCallsAccountingAgreesUnderPanics(t *testing.T) {
	mkSys := func() (*System, *Export) {
		sys := NewSystem()
		e, err := sys.Export(&Interface{Name: "Flaky", Procs: []Proc{
			{Name: "OK", AStackSize: 8, Handler: func(c *Call) { c.ResultsBuf(0) }},
			{Name: "Boom", AStackSize: 8, Handler: func(c *Call) { panic("boom") }},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return sys, e
	}
	const good, bad = 7, 3

	// Direct plane.
	sys, e := mkSys()
	b, err := sys.Import("Flaky")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < good; i++ {
		if _, err := b.Call(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bad; i++ {
		if _, err := b.Call(1, nil); !errors.Is(err, ErrCallFailed) {
			t.Fatalf("panic call: %v", err)
		}
	}
	if got := e.Calls(); got != good {
		t.Errorf("direct plane: Calls() = %d, want %d", got, good)
	}

	// Context plane (the regression: panicked activations were counted).
	sys, e = mkSys()
	b, err = sys.Import("Flaky")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dl, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for i := 0; i < good; i++ {
		if _, err := b.CallContext(dl, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bad; i++ {
		if _, err := b.CallContext(dl, 1, nil); !errors.Is(err, ErrCallFailed) {
			t.Fatalf("panic call: %v", err)
		}
	}
	if got := e.Calls(); got != good {
		t.Errorf("context plane: Calls() = %d, want %d", got, good)
	}

	// Network gateway (dispatches through Binding.Call server-side).
	sys, e = mkSys()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetwork(l)
	c, err := DialInterface("tcp", l.Addr().String(), "Flaky")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < good; i++ {
		if _, err := c.Call(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bad; i++ {
		if _, err := c.Call(1, nil); err == nil {
			t.Fatal("remote panic call succeeded")
		}
	}
	if got := e.Calls(); got != good {
		t.Errorf("net gateway: Calls() = %d, want %d", got, good)
	}
	if got := e.HandlerPanics(); got != bad {
		t.Errorf("net gateway: panics = %d, want %d", got, bad)
	}
}

// --- Satellite 2: ShareGroup combined capacity ---

// TestShareGroupCombinedCapacity: a two-member group must admit the
// combined number of concurrent calls under FailOnExhaustion (the pool
// used to be sized by the first declarer alone).
func TestShareGroupCombinedCapacity(t *testing.T) {
	sys := NewSystem()
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	blocker := func(c *Call) {
		entered <- struct{}{}
		<-hold
		c.ResultsBuf(0)
	}
	if _, err := sys.Export(&Interface{Name: "G", Procs: []Proc{
		{Name: "A", AStackSize: 8, NumAStacks: 2, ShareGroup: "g", Handler: blocker},
		{Name: "B", AStackSize: 8, NumAStacks: 3, ShareGroup: "g", Handler: blocker},
	}}); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("G")
	if err != nil {
		t.Fatal(err)
	}
	b.Policy = FailOnExhaustion

	const combined = 5 // 2 + 3
	errs := make(chan error, combined)
	for i := 0; i < combined; i++ {
		proc := i % 2
		go func() {
			_, err := b.Call(proc, nil)
			errs <- err
		}()
	}
	// All five concurrent calls must be admitted (the group's combined
	// provisioning), so all five handlers enter.
	for i := 0; i < combined; i++ {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d concurrent calls admitted", i, combined)
		}
	}
	// A sixth concurrent call exceeds the combined provisioning.
	if _, err := b.Call(0, nil); !errors.Is(err, ErrNoAStacks) {
		t.Errorf("6th concurrent call: %v, want ErrNoAStacks", err)
	}
	close(hold)
	for i := 0; i < combined; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted call failed: %v", err)
		}
	}
}

// --- Satellite 3: put/revoke race ---

// TestPutRevokeRaceDrains hammers concurrent checkin/revoke: whatever
// the interleaving, a revoked pool must end up empty (a checkin that
// raced past the revoked check used to strand its stack in the ring).
func TestPutRevokeRaceDrains(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		p := newAStackPool(16, 4)
		bufs := make([]*astackBuf, 0, 4)
		for i := 0; i < 4; i++ {
			b, err := p.get(AllocateAStack, nil, uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, b)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, b := range bufs {
			wg.Add(1)
			go func(i int, b *astackBuf) {
				defer wg.Done()
				<-start
				p.put(b, uint32(i))
			}(i, b)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.revoke()
		}()
		close(start)
		wg.Wait()
		// After the dust settles the pool is dead: nothing may remain
		// checked in, now or later.
		for p.ring.pop() != nil {
			t.Fatalf("iter %d: stack stranded in a revoked pool", iter)
		}
	}
}

// --- Satellite 4: duplicate procedure names ---

func TestExportRejectsDuplicateProcNames(t *testing.T) {
	sys := NewSystem()
	_, err := sys.Export(&Interface{Name: "Dup", Procs: []Proc{
		{Name: "P", AStackSize: 8, Handler: func(c *Call) {}},
		{Name: "Q", AStackSize: 8, Handler: func(c *Call) {}},
		{Name: "P", AStackSize: 8, Handler: func(c *Call) {}},
	}})
	if err == nil {
		t.Fatal("duplicate procedure name accepted")
	}
	for _, want := range []string{"Dup", `"P"`, "twice"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if _, err := sys.Import("Dup"); !errors.Is(err, ErrNotExported) {
		t.Errorf("rejected interface half-registered: %v", err)
	}
}
