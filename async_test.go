package lrpc

// Tests for the asynchronous call plane (async.go, net_async.go): future
// lifecycle and misuse, batched submission on the in-process and TCP
// planes, one-way at-most-once accounting, and the seeded hammers
// racing Future.Wait against Terminate and pooled reuse. The
// shared-memory plane's tests live in async_linux_test.go and
// internal/faultinject (peer-kill needs a second process).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

func addArgs(a, b uint32) []byte {
	args := make([]byte, 8)
	binary.LittleEndian.PutUint32(args[0:4], a)
	binary.LittleEndian.PutUint32(args[4:8], b)
	return args
}

func TestCallAsyncRoundTrip(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.CallAsync(0, addArgs(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Err peeks without collecting; Wait afterwards still returns results.
	if err := f.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if !f.Done() {
		t.Fatal("future not Done after Err returned")
	}
	out, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(out); got != 42 {
		t.Fatalf("async Add = %d, want 42", got)
	}
	// Submission errors are synchronous: no future escapes.
	if _, err := b.CallAsync(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("bad proc CallAsync = %v, want ErrBadProcedure", err)
	}
}

func TestFutureDoubleWaitReturnsSpent(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.CallAsync(2, nil) // Null
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	// The future went back to the pool on first Wait; a second Wait (or
	// Err) must fail descriptively, never hand out another call's
	// results.
	if _, err := f.Wait(); !errors.Is(err, ErrFutureSpent) {
		t.Fatalf("second Wait = %v, want ErrFutureSpent", err)
	}
	if err := f.Err(); !errors.Is(err, ErrFutureSpent) {
		t.Fatalf("Err after Wait = %v, want ErrFutureSpent", err)
	}
}

func TestBatchInprocess(t *testing.T) {
	sys := NewSystem()
	exp, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	bt := b.NewBatch()
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := bt.Call(0, addArgs(uint32(i), uint32(i))); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if err := bt.OneWay(2, nil); err != nil { // Null, fire-and-forget
		t.Fatal(err)
	}
	if bt.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", bt.Len(), n+1)
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		out, err := bt.Result(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(out); got != uint32(2*i) {
			t.Fatalf("entry %d = %d, want %d", i, got, 2*i)
		}
	}
	// A bad staging fails eagerly and stages nothing.
	if _, err := bt.Call(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("staged bad proc = %v, want ErrBadProcedure", err)
	}
	// Reset and reuse.
	bt.Reset()
	if bt.Len() != 0 {
		t.Fatalf("Len after Reset = %d", bt.Len())
	}
	if _, err := bt.Call(0, addArgs(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
	if out, _ := bt.Result(0); binary.LittleEndian.Uint32(out) != 3 {
		t.Fatal("reused batch returned wrong result")
	}
	if exp.OneWayDrops() != 0 {
		t.Fatalf("OneWayDrops = %d for a clean one-way", exp.OneWayDrops())
	}
}

func TestCallOneWayInprocess(t *testing.T) {
	var ran int
	sys := NewSystem()
	exp, err := sys.Export(&Interface{Name: "Count", Procs: []Proc{
		{Name: "Inc", Handler: func(c *Call) { ran++; c.ResultsBuf(0) }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Count")
	if err != nil {
		t.Fatal(err)
	}
	// In-process one-way runs on the caller's thread: exactly once,
	// synchronously, outcome returned directly.
	if err := b.CallOneWay(0, nil); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("handler ran %d times, want 1", ran)
	}
	if err := b.CallOneWay(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("bad one-way = %v", err)
	}
	if exp.OneWayDrops() != 0 {
		t.Fatalf("in-process one-way errors return to the caller, drops = %d", exp.OneWayDrops())
	}
}

func TestFutureWaitContextAbandons(t *testing.T) {
	hold := make(chan struct{})
	sys := NewSystem()
	log := NewTraceLog(16)
	sys.SetTracer(log)
	exp, err := sys.Export(&Interface{Name: "Slow", Procs: []Proc{
		{Name: "Hold", Handler: func(c *Call) { <-hold; c.ResultsBuf(0) }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Slow")
	if err != nil {
		t.Fatal(err)
	}
	f, err := b.CallAsync(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.WaitContext(ctx); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("abandoned wait = %v, want ErrCallTimeout", err)
	}
	// The abandonment is accounted exactly like CallContext's: counter
	// and trace event, with the still-running handler as an orphan.
	if got := exp.MetricsSnapshot().Abandoned; got != 1 {
		t.Fatalf("Abandoned = %d, want 1", got)
	}
	if log.Count(TraceAbandon) != 1 {
		t.Fatalf("TraceAbandon count = %d", log.Count(TraceAbandon))
	}
	close(hold) // let the orphaned handler finish; complete recycles the future
	// The plane stays healthy after the abandonment.
	if _, err := b.Call(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFutureWaitVsTerminateHammer races Wait/WaitContext collectors
// against Terminate: every future must resolve (success, ErrCallFailed,
// or ErrRevoked) and no goroutine may wedge on a doomed future.
func TestFutureWaitVsTerminateHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		sys := NewSystem()
		e, err := sys.Export(arithInterface())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Import("Arith")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		const callers = 8
		delay := time.Duration(rng.Intn(200)) * time.Microsecond
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					f, err := b.CallAsync(2, nil)
					if err != nil {
						if !errors.Is(err, ErrRevoked) {
							panic(fmt.Sprintf("CallAsync: %v", err))
						}
						return
					}
					if _, err := f.Wait(); err != nil &&
						!errors.Is(err, ErrCallFailed) && !errors.Is(err, ErrRevoked) &&
						!errors.Is(err, ErrOverload) {
						panic(fmt.Sprintf("Wait: %v", err))
					}
				}
			}()
		}
		time.Sleep(delay)
		e.Terminate()
		wg.Wait()
	}
}

// startAsyncNetServer is startServer returning the export too, so tests
// can assert server-side one-way accounting.
func startAsyncNetServer(t *testing.T) (addr string, exp *Export, stop func()) {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sys.ServeNetwork(l)
	return l.Addr().String(), exp, func() { l.Close() }
}

func TestNetAsyncRoundTrip(t *testing.T) {
	addr, _, stop := startAsyncNetServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Pipelined singles: submit all, collect all.
	const n = 10
	futs := make([]*Future, n)
	for i := range futs {
		f, err := c.CallAsync(0, addArgs(uint32(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		out, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(out); got != uint32(i+1) {
			t.Fatalf("future %d = %d", i, got)
		}
	}
	if st := c.Stats(); st.AsyncCalls != n {
		t.Fatalf("AsyncCalls = %d, want %d", st.AsyncCalls, n)
	}
}

func TestNetBatchCoalesces(t *testing.T) {
	addr, _, stop := startAsyncNetServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bt := c.NewBatch()
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := bt.Call(0, addArgs(uint32(i), uint32(i))); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		out, err := bt.Result(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(out); got != uint32(2*i) {
			t.Fatalf("entry %d = %d", i, got)
		}
	}
	st := c.Stats()
	if st.BatchedCalls != n {
		t.Fatalf("BatchedCalls = %d, want %d", st.BatchedCalls, n)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Fatalf("Batches = %d, want coalescing (1..%d flushes for %d calls)", st.Batches, n, n)
	}
}

func TestNetOneWayAtMostOnce(t *testing.T) {
	addr, exp, stop := startAsyncNetServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A clean one-way executes and sends no reply frame; a hostile
	// one-way (bad proc) is dropped and counted server-side — and in
	// neither case may a stray reply frame desynchronize the client.
	if err := c.CallOneWay(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CallOneWay(99, nil); err != nil {
		t.Fatal(err) // submission succeeds; the execution error is the server's to drop
	}
	// A sync call right behind them still pairs with its own reply.
	out, err := c.Call(0, addArgs(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(out) != 42 {
		t.Fatalf("Add after one-ways = %d", binary.LittleEndian.Uint32(out))
	}
	waitFor(t, func() bool { return exp.OneWayDrops() == 1 })
	if st := c.Stats(); st.OneWays != 2 {
		t.Fatalf("OneWays = %d, want 2", st.OneWays)
	}
}

func TestNetAsyncConnLoss(t *testing.T) {
	addr, _, stop := startAsyncNetServer(t)
	c, err := DialInterfaceOpts("tcp", addr, "Arith", DialOptions{RedialAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Park a future on a held reply by killing the server with the
	// request in flight: the future must resolve with ErrConnClosed, not
	// hang, and the in-flight window slot must come back.
	f, err := c.CallAsync(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Wait() // harmless if the reply won the race
	stop()
	for i := 0; i < 100; i++ {
		f, err := c.CallAsync(2, nil)
		if err != nil {
			break // submission failed synchronously: acceptable resolution
		}
		if _, werr := f.Wait(); werr != nil {
			break
		}
	}
	// The client must not wedge: a fresh async submission fails (or
	// succeeds if the listener's backlog still answers) within bounds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if f, err := c.CallAsync(2, nil); err == nil {
			f.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("async submission wedged after connection loss")
	}
}

func TestTransparentBindingAsyncLadder(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	tb := BindLocal(b)
	f, err := tb.CallAsync(0, addArgs(20, 22))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Wait()
	if err != nil || binary.LittleEndian.Uint32(out) != 42 {
		t.Fatalf("ladder CallAsync = %v, %v", out, err)
	}
	if err := tb.CallOneWay(2, nil); err != nil {
		t.Fatal(err)
	}
	bt := tb.NewBatch()
	if _, err := bt.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCallZeroAllocsWithAsyncEnabled pins the tentpole constraint: with
// async traffic warmed up on the same binding (futures pooled, batches
// built), the synchronous fast path still allocates nothing.
func TestCallZeroAllocsWithAsyncEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts not meaningful")
	}
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	args := addArgs(40, 2)
	// Exercise the async plane first: CallAsync, a batch, a chain.
	for i := 0; i < 16; i++ {
		f, err := b.CallAsync(0, args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	bt := b.NewBatch()
	for i := 0; i < 8; i++ {
		if _, err := bt.Call(2, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
	// Warm the sync path, then assert it still allocates nothing.
	for i := 0; i < 16; i++ {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("sync Call with async enabled allocates %.1f objects/op, want 0", allocs)
	}
}
