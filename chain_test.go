package lrpc

// Behavior tests for the continuation-chain plane: descriptor and
// failure-record wire round-trips, the server-side executor's data flow
// and vouch semantics (panic at stage K, deadline expiry between
// stages, Terminate mid-chain), the chain path over TCP (status-4
// replies included), the async and transparent-binding surfaces, and
// the broker's per-stage quota charging. The shm chain tests live in
// shm_linux_test.go; the SIGKILL-mid-chain harness in
// internal/faultinject.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// chainIface is the pipeline fixture: Echo passes its arguments
// through, Inc increments every byte (so data flow across stages is
// observable), Boom panics, Slow parks long enough for a deadline to
// expire between stages.
func chainIface() *Interface {
	return &Interface{
		Name: "Pipe",
		Procs: []Proc{
			{Name: "Echo", Handler: func(c *Call) {
				args := c.Args()
				copy(c.ResultsBuf(len(args)), args)
			}},
			{Name: "Inc", Handler: func(c *Call) {
				args := c.Args()
				out := c.ResultsBuf(len(args))
				for i, b := range args {
					out[i] = b + 1
				}
			}},
			{Name: "Boom", Handler: func(c *Call) { panic("boom at this stage") }},
			{Name: "Slow", Handler: func(c *Call) {
				time.Sleep(60 * time.Millisecond)
				args := c.Args()
				copy(c.ResultsBuf(len(args)), args)
			}},
		},
	}
}

func chainBinding(t *testing.T) (*Binding, *Export) {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(chainIface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Pipe")
	if err != nil {
		t.Fatal(err)
	}
	return b, exp
}

func TestChainDescriptorRoundTrip(t *testing.T) {
	ch := NewChain().
		Add(0, []byte("head")).
		AddSlice(1, []byte("p"), 2, 3).
		AddSlice(7, nil, 1, -1)
	if err := ch.check(); err != nil {
		t.Fatal(err)
	}
	desc := appendChain(nil, ch.stages)
	stages, err := parseChain(desc)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("parsed %d stages, want 3", len(stages))
	}
	if stages[0].Proc != 0 || string(stages[0].Prefix) != "head" || stages[0].Off != 0 || stages[0].Len != -1 {
		t.Fatalf("stage 0 = %+v", stages[0])
	}
	if stages[1].Proc != 1 || string(stages[1].Prefix) != "p" || stages[1].Off != 2 || stages[1].Len != 3 {
		t.Fatalf("stage 1 = %+v", stages[1])
	}
	if stages[2].Proc != 7 || len(stages[2].Prefix) != 0 || stages[2].Off != 1 || stages[2].Len != -1 {
		t.Fatalf("stage 2 = %+v", stages[2])
	}
	// The canonical-form invariant: accepted input re-encodes to the
	// exact bytes parsed.
	if re := appendChain(nil, stages); !bytes.Equal(re, desc) {
		t.Fatalf("re-encode differs:\n  in  %x\n  out %x", desc, re)
	}
}

func TestChainDescriptorRejections(t *testing.T) {
	good := appendChain(nil, NewChain().Add(1, []byte("x")).Add(2, nil).stages)
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte("NOPE"), good[4:]...),
		"zero stages":    {0x4C, 0x42, 0x43, 0x31, 0, 0},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0xFF),
	}
	// A head stage that slices a previous result is non-canonical.
	headSlice := append([]byte(nil), good...)
	headSlice[chainHdrSize+4] = 3 // stage 0 off = 3
	cases["head slices"] = headSlice
	for name, blob := range cases {
		if _, err := parseChain(blob); err == nil {
			t.Errorf("%s: descriptor accepted", name)
		}
	}
	if _, err := parseChain(good); err != nil {
		t.Fatalf("canonical descriptor rejected: %v", err)
	}
}

func TestChainErrorWire(t *testing.T) {
	for _, sentinel := range wireSentinels {
		ce := &ChainError{Stage: 3, Executed: 4, Err: sentinel}
		back := parseFailure(appendFailure(nil, ce, 0), true)
		var got *ChainError
		if !errors.As(back, &got) {
			t.Fatalf("%v: decoded to %T", sentinel, back)
		}
		if got.Stage != 3 || got.Executed != 4 || !errors.Is(got, sentinel) {
			t.Fatalf("%v round-tripped to %+v", sentinel, got)
		}
	}
	// An unclassified error degrades to RemoteError text but keeps the
	// stage vouch.
	ce := &ChainError{Stage: 1, Executed: 1, Err: errors.New("handler-specific detail")}
	back := parseFailure(appendFailure(nil, ce, 0), true)
	var got *ChainError
	if !errors.As(back, &got) || got.Stage != 1 || got.Executed != 1 ||
		!strings.Contains(got.Err.Error(), "handler-specific detail") {
		t.Fatalf("plain error round-tripped to %v", back)
	}
	// Executed == 0 is the replay-safe classification.
	if !errors.Is(&ChainError{Stage: 0, Executed: 0, Err: ErrOverload}, ErrNotExecuted) {
		t.Error("Executed == 0 chain error does not match ErrNotExecuted")
	}
	if errors.Is(&ChainError{Stage: 2, Executed: 2, Err: ErrOverload}, ErrNotExecuted) {
		t.Error("mid-chain error must not match ErrNotExecuted (stages 0-1 ran)")
	}
	// Truncation bound for shm slots: the encoded body never exceeds
	// maxLen and still parses.
	long := &ChainError{Stage: 2, Executed: 3, Err: errors.New(strings.Repeat("x", 500))}
	body := appendFailure(nil, long, 64)
	if len(body) > 64 {
		t.Fatalf("bounded encode is %d bytes", len(body))
	}
	if back := parseFailure(body, true); !errors.As(back, &got) || got.Stage != 2 {
		t.Fatalf("truncated body decoded to %v", back)
	}
	// A plain call's record is cut the same way: 12 header bytes, 52 of text.
	var re *RemoteError
	if back := parseFailure(appendFailure(nil, long.Err, 64), false); !errors.As(back, &re) || len(re.Msg) != 52 {
		t.Fatalf("truncated plain record decoded to %#v", back)
	}
	// Malformed bodies degrade to RemoteError, never a dropped error.
	for _, blob := range [][]byte{nil, {1, 2, 3}, appendFailure(nil, &ChainError{Stage: 200, Executed: 9}, 0)} {
		var re *RemoteError
		if err := parseFailure(blob, true); !errors.As(err, &re) {
			t.Errorf("malformed body %x decoded to %v", blob, err)
		}
	}
}

func TestChainInProcess(t *testing.T) {
	b, exp := chainBinding(t)
	// Echo("ab") → Inc → Inc: data must flow stage to stage.
	out, err := b.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil).Add(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "cd" {
		t.Fatalf("chain result %q, want \"cd\"", out)
	}
	// A mid-chain prefix prepends to the sliced previous result.
	out, err = b.CallChain(NewChain().Add(0, []byte("tail")).Add(0, []byte("head-")))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "head-tail" {
		t.Fatalf("prefixed chain result %q", out)
	}
	if exp.Chains() != 2 || exp.ChainStages() != 5 {
		t.Fatalf("chain counters %d/%d, want 2/5", exp.Chains(), exp.ChainStages())
	}
	if exp.Calls() != 5 {
		t.Fatalf("stages must count as calls: %d, want 5", exp.Calls())
	}
}

func TestChainSlicing(t *testing.T) {
	b, _ := chainBinding(t)
	// Slice [2:5] of "abcdefg" → "cde", then Inc → "def".
	out, err := b.CallChain(NewChain().Add(0, []byte("abcdefg")).AddSlice(0, nil, 2, 3).Add(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "def" {
		t.Fatalf("sliced chain result %q, want \"def\"", out)
	}
	// A slice beyond the previous result fails that stage with the
	// prior stages vouched as executed.
	_, err = b.CallChain(NewChain().Add(0, []byte("ab")).AddSlice(0, nil, 5, -1))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 1 || !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("out-of-range slice: %v", err)
	}
	_, err = b.CallChain(NewChain().Add(0, []byte("ab")).AddSlice(0, nil, 0, 3))
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 1 {
		t.Fatalf("over-long slice: %v", err)
	}
}

func TestChainShapeRejections(t *testing.T) {
	b, _ := chainBinding(t)
	if _, err := b.CallChain(NewChain()); !errors.Is(err, ErrBadProcedure) {
		t.Errorf("empty chain: %v", err)
	}
	deep := NewChain()
	for i := 0; i <= MaxChainStages; i++ {
		deep.Add(0, nil)
	}
	if _, err := b.CallChain(deep); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-deep chain: %v", err)
	}
	if _, err := b.CallChain(NewChain().Add(-1, nil)); !errors.Is(err, ErrBadProcedure) {
		t.Errorf("negative proc: %v", err)
	}
}

func TestChainPanicAtStageK(t *testing.T) {
	b, exp := chainBinding(t)
	_, err := b.CallChain(NewChain().Add(0, []byte("a")).Add(2, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("panic mid-chain: %v", err)
	}
	// The handler ran (Executed = Stage+1): side effects are possible,
	// the stage is not retryable, and the whole chain is not
	// ErrNotExecuted.
	if ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("panic vouch stage %d executed %d, want 1/2", ce.Stage, ce.Executed)
	}
	if !errors.Is(err, ErrCallFailed) {
		t.Errorf("panic did not classify as ErrCallFailed: %v", err)
	}
	if errors.Is(err, ErrNotExecuted) {
		t.Error("panic mid-chain must not vouch non-execution")
	}
	if exp.HandlerPanics() != 1 {
		t.Errorf("panic counter %d, want 1", exp.HandlerPanics())
	}
	// The export survives (ContainPanic) and the next chain runs clean.
	if out, err := b.CallChain(NewChain().Add(0, []byte("ok"))); err != nil || string(out) != "ok" {
		t.Fatalf("chain after contained panic: %q, %v", out, err)
	}
}

func TestChainStageZeroNeverRan(t *testing.T) {
	b, _ := chainBinding(t)
	// A bad procedure at stage 0 fails before anything executes: the
	// whole chain is replay-safe.
	_, err := b.CallChain(NewChain().Add(99, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 0 || ce.Executed != 0 {
		t.Fatalf("bad head proc: %v", err)
	}
	if !errors.Is(err, ErrBadProcedure) || !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("head failure classification: %v", err)
	}
}

func TestChainDeadlineBetweenStages(t *testing.T) {
	b, _ := chainBinding(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// Slow (60 ms) outlives the deadline; the executor must finish it
	// (a running stage is never abandoned) and then refuse stage 1 with
	// a not-executed vouch for the remainder.
	_, err := b.CallChainContext(ctx, NewChain().Add(3, []byte("x")).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("deadline mid-chain: %v", err)
	}
	if ce.Stage != 1 || ce.Executed != 1 {
		t.Fatalf("deadline vouch stage %d executed %d, want 1/1", ce.Stage, ce.Executed)
	}
	if !errors.Is(err, ErrCallTimeout) {
		t.Errorf("deadline did not classify as ErrCallTimeout: %v", err)
	}
	if errors.Is(err, ErrNotExecuted) {
		t.Error("stage 0 ran; the chain must not vouch non-execution")
	}
}

func TestChainTerminateMidChain(t *testing.T) {
	sys := NewSystem()
	var exp *Export
	iface := &Interface{
		Name: "Dying",
		Procs: []Proc{
			{Name: "Echo", Handler: func(c *Call) {
				args := c.Args()
				copy(c.ResultsBuf(len(args)), args)
			}},
			{Name: "Die", Handler: func(c *Call) {
				exp.Terminate()
				c.ResultsBuf(0)
			}},
		},
	}
	var err error
	exp, err = sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Dying")
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := b.CallChain(NewChain().Add(0, []byte("a")).Add(1, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(cerr, &ce) {
		t.Fatalf("terminate mid-chain: %v", cerr)
	}
	// The Die stage ran (Executed = Stage+1); the chain stops there —
	// stage 2 is vouched never-run.
	if ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("terminate vouch stage %d executed %d, want 1/2", ce.Stage, ce.Executed)
	}
	if !errors.Is(cerr, ErrCallFailed) {
		t.Errorf("terminate mid-chain classification: %v", cerr)
	}
	// A fresh chain against the terminated export never starts.
	_, cerr = b.CallChain(NewChain().Add(0, nil))
	if !errors.As(cerr, &ce) || ce.Executed != 0 || !errors.Is(cerr, ErrNotExecuted) {
		t.Fatalf("chain against terminated export: %v", cerr)
	}
}

func TestChainAsyncInProcess(t *testing.T) {
	b, _ := chainBinding(t)
	f, err := b.CallChainAsync(NewChain().Add(0, []byte("ab")).Add(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Wait()
	if err != nil || string(out) != "bc" {
		t.Fatalf("async chain = %q, %v", out, err)
	}
	f, err = b.CallChainAsync(NewChain().Add(0, []byte("a")).Add(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait()
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("async chain failure: %v", err)
	}
}

// TestChainAsyncAbandonLeavesOrphan: a chain future abandoned while a
// stage's handler is pinned leaves the running chain an orphan, as an
// abandoned CallAsync does, and the reaper closes its books once the
// chain returns.
func TestChainAsyncAbandonLeavesOrphan(t *testing.T) {
	sys := NewSystem()
	iface, gate := gatedInterface("Gated")
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Gated")
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.CallChainAsync(NewChain().Add(0, nil).Add(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.WaitContext(ctx); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("abandoned chain: got %v, want ErrCallTimeout", err)
	}
	if a, so, eo := e.Abandoned(), sys.Orphans(), e.Orphans(); a != 1 || so != 1 || eo != 1 {
		t.Fatalf("Abandoned %d, System.Orphans %d, Export.Orphans %d; want 1, 1, 1 while a stage is pinned", a, so, eo)
	}
	close(gate)
	waitFor(t, func() bool {
		reaped, _ := sys.ReapOrphans()
		return reaped == 1
	})
	if got := sys.Orphans(); got != 0 {
		t.Errorf("Orphans after reap = %d, want 0", got)
	}
}

// TestChainTransparentBinding: the chain entry points are the chosen
// plane's own, promoted through the binding — in process and over TCP
// here, over shm in TestShmTransparentBindingThreeWay.
func TestChainTransparentBinding(t *testing.T) {
	b, _ := chainBinding(t)
	remote, err := DialInterface("tcp", startChainNet(t), "Pipe")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for name, tb := range map[string]*TransparentBinding{"local": BindLocal(b), "tcp": BindRemote(remote)} {
		out, err := tb.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil))
		if err != nil || string(out) != "bc" {
			t.Fatalf("%s transparent chain = %q, %v", name, out, err)
		}
		out, err = tb.CallChainContext(context.Background(), NewChain().Add(0, []byte("ab")).Add(1, nil))
		if err != nil || string(out) != "bc" {
			t.Fatalf("%s transparent chain under a context = %q, %v", name, out, err)
		}
		f, err := tb.CallChainAsync(NewChain().Add(0, []byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := f.Wait(); err != nil || string(out) != "x" {
			t.Fatalf("%s transparent async chain = %q, %v", name, out, err)
		}
	}
}

func startChainNet(t *testing.T) string {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(chainIface()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go sys.ServeNetwork(l)
	return l.Addr().String()
}

func TestChainTCP(t *testing.T) {
	addr := startChainNet(t)
	c, err := DialInterface("tcp", addr, "Pipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil).Add(1, nil))
	if err != nil || string(out) != "cd" {
		t.Fatalf("tcp chain = %q, %v", out, err)
	}
	// A mid-chain panic crosses the wire as a status-4 frame and
	// rebuilds the full vouch on the client.
	_, err = c.CallChain(NewChain().Add(0, []byte("a")).Add(2, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("tcp chain panic: %v", err)
	}
	if !errors.Is(err, ErrCallFailed) || errors.Is(err, ErrNotExecuted) {
		t.Fatalf("tcp chain panic classification: %v", err)
	}
	// A head-stage failure keeps its replay-safe classification across
	// the wire — the vouch the failover layers act on.
	_, err = c.CallChain(NewChain().Add(99, nil).Add(0, nil))
	if !errors.As(err, &ce) || ce.Executed != 0 ||
		!errors.Is(err, ErrBadProcedure) || !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("tcp head failure: %v", err)
	}
}

func TestChainTCPAsync(t *testing.T) {
	addr := startChainNet(t)
	c, err := DialInterface("tcp", addr, "Pipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.CallChainAsync(NewChain().Add(0, []byte("ab")).Add(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Wait()
	if err != nil || string(out) != "bc" {
		t.Fatalf("tcp async chain = %q, %v", out, err)
	}
	f, err = c.CallChainAsync(NewChain().Add(0, []byte("a")).Add(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait()
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("tcp async chain failure: %v", err)
	}
}

func TestChainMetricsSurface(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(chainIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Pipe")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CallChain(NewChain().Add(0, []byte("x")).Add(1, nil)); err != nil {
		t.Fatal(err)
	}
	sn := sys.Snapshot()
	if len(sn.Interfaces) != 1 || sn.Interfaces[0].Chains != 1 || sn.Interfaces[0].ChainStages != 2 {
		t.Fatalf("snapshot chain counters %+v", sn.Interfaces)
	}
	if r := sn.Interfaces[0].Render(); !strings.Contains(r, "chains 1") ||
		!strings.Contains(r, "stages 2") {
		t.Fatalf("render omits chain counters:\n%s", r)
	}
	var buf bytes.Buffer
	if err := sys.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if text := buf.String(); !strings.Contains(text, "lrpc_chains_total") ||
		!strings.Contains(text, "lrpc_chain_stages_total") {
		t.Fatalf("metrics text omits chain counters:\n%s", text)
	}
}

// TestBrokerChainRelay: a chain submitted through the broker executes
// upstream as one unit, and a mid-chain failure relays the full vouch
// back to the tenant.
func TestBrokerChainRelay(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(chainIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Pipe")
	if err != nil {
		t.Fatal(err)
	}
	bk := NewBroker(BrokerOptions{})
	bk.SetUpstream("Pipe", LocalUpstream(b))
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })

	s, err := SuperviseBroker(BrokerTenantOpts{
		Tenant: "team-a", Service: "Pipe", BrokerAddrs: []string{addr},
		Net: DialOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	out, err := s.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil))
	if err != nil || string(out) != "bc" {
		t.Fatalf("brokered chain = %q, %v", out, err)
	}
	_, err = s.CallChain(NewChain().Add(0, []byte("a")).Add(2, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 || !errors.Is(err, ErrCallFailed) {
		t.Fatalf("brokered chain failure: %v", err)
	}
	_, tenants := bk.Snapshot()
	if len(tenants) != 1 || tenants[0].Calls != 2 {
		t.Fatalf("tenant snapshot %+v", tenants)
	}
}

// TestBrokerChainUpstreamTimeoutVouch: a chain whose upstream call
// timed out at the broker may have run every stage at the backend, and
// the tenant's record says so: the timeout's class, stage 1 of 2, both
// possibly executed — never a vouch that the later stage did not run.
func TestBrokerChainUpstreamTimeoutVouch(t *testing.T) {
	up, err := DialInterface("tcp", startChainNet(t), "Pipe")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { up.Close() })
	bk := NewBroker(BrokerOptions{ForwardTimeout: 20 * time.Millisecond})
	bk.SetUpstream("Pipe", up)
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	s, err := SuperviseBroker(BrokerTenantOpts{
		Tenant: "team-a", Service: "Pipe", BrokerAddrs: []string{addr},
		Net: DialOptions{CallTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, err = s.CallChain(NewChain().Add(0, []byte("a")).Add(3, nil)) // Echo, then Slow
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 ||
		!errors.Is(err, ErrCallTimeout) || errors.Is(err, ErrNotExecuted) {
		t.Fatalf("chain timed out upstream = %v, want stage 1 with 2 possibly executed", err)
	}
}

// TestBrokerChainQuotaCharging: the broker charges a chain's full
// stage count against the tenant's token bucket before relaying — a
// depth-4 chain spends four tokens, and a chain deeper than the burst
// can never be admitted.
func TestBrokerChainQuotaCharging(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	if err := bk.SetPolicy(&BrokerPolicy{
		AllowUnknown: true,
		Tenants: map[string]TenantPolicy{
			"metered": {RatePerSec: 0.001, Burst: 4},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s := brokerTenant(t, addr, "metered", "")

	// Burst 4, depth-4 chain (all Null): one chain drains the bucket.
	depth4 := NewChain().Add(2, nil).Add(2, nil).Add(2, nil).Add(2, nil)
	if _, err := s.CallChain(depth4); err != nil {
		t.Fatalf("first depth-4 chain within burst: %v", err)
	}
	_, err := s.CallChain(depth4)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second depth-4 chain: %v, want ErrQuotaExceeded", err)
	}
	if !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("quota shed lost its non-execution vouch: %v", err)
	}
	// A single call would still cost 1 > 0 remaining tokens: also shed.
	if _, err := s.Call(2, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("single call after chain drained the bucket: %v", err)
	}
	_, tenants := bk.Snapshot()
	if len(tenants) != 1 || tenants[0].QuotaSheds < 2 {
		t.Fatalf("tenant snapshot %+v", tenants)
	}

	// Deeper than the burst: never admissible, vouched not-executed —
	// the documented bound of per-stage charging, not a retry race.
	if err := bk.SetPolicy(&BrokerPolicy{
		AllowUnknown: true,
		Tenants: map[string]TenantPolicy{
			"capped": {RatePerSec: 1000, Burst: 2},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s2 := brokerTenant(t, addr, "capped", "")
	_, err = s2.CallChain(depth4)
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("chain deeper than burst: %v", err)
	}
}

// TestBrokerChainMalformedDescriptor: a garbage chain frame is refused
// at the broker (a refusal, executed 0) without charging or reaching the
// upstream.
func TestBrokerChainMalformedDescriptor(t *testing.T) {
	_, addr := startBrokerRig(t, BrokerOptions{})
	s := brokerTenant(t, addr, "team-a", "")
	// Drive the raw client so the descriptor bypasses Chain.check.
	nc := s.Client()
	_, err := nc.call(context.Background(), wireFlagChain, []byte("not a chain"), nil)
	if err == nil || !strings.Contains(err.Error(), "chain") {
		t.Fatalf("malformed descriptor through broker: %v", err)
	}
}
