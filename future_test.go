package lrpc

// Tests for the Future's completion handshake (DESIGN §5.13: the token
// goes only to a parked waiter) and for the in-process Batch's entry
// list and per-flush result arena.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitParked spins until f's waiter has parked on its channel. It
// reports a waiter that never parks with Errorf, so it may run on any
// goroutine, and returns either way so a completion still follows.
func waitParked(t *testing.T, f *Future) {
	deadline := time.Now().Add(10 * time.Second)
	for f.state.Load() != futParked {
		if time.Now().After(deadline) {
			t.Errorf("waiter never parked: state %d", f.state.Load())
			return
		}
		runtime.Gosched()
	}
}

// TestFutureSignalsOnlyParkedWaiter pins the handshake: a completion
// nobody waits for sends no token, a parked waiter is woken by one, a
// cancellation racing the completion ends collected or abandoned and
// never strands a token, and Err or await leave the result for exactly
// one Wait.
func TestFutureSignalsOnlyParkedWaiter(t *testing.T) {
	res := []byte("result")

	t.Run("complete before Wait", func(t *testing.T) {
		f := newFuture()
		f.complete(res, nil)
		if n := len(f.ch); n != 0 {
			t.Fatalf("completion with no waiter left %d tokens", n)
		}
		if !f.Done() {
			t.Fatal("completed future not Done")
		}
		if out, err := f.Wait(); err != nil || !bytes.Equal(out, res) {
			t.Fatalf("Wait = %q, %v", out, err)
		}
	})

	t.Run("parked waiter is woken", func(t *testing.T) {
		f := newFuture()
		type outcome struct {
			out []byte
			err error
		}
		got := make(chan outcome, 1)
		go func() {
			out, err := f.Wait()
			got <- outcome{out, err}
		}()
		waitParked(t, f)
		f.complete(res, nil)
		timer := time.NewTimer(10 * time.Second)
		defer timer.Stop()
		select {
		case o := <-got:
			if o.err != nil || !bytes.Equal(o.out, res) {
				t.Fatalf("Wait = %q, %v", o.out, o.err)
			}
		case <-timer.C:
			t.Fatal("a waiter parked before complete was never woken")
		}
	})

	t.Run("cancel races complete", func(t *testing.T) {
		const rounds = 10000
		var collected, abandoned int
		for i := 0; i < rounds; i++ {
			f := newFuture()
			if n := len(f.ch); n != 0 {
				t.Fatalf("round %d: pooled future came back holding %d tokens", i, n)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			spawn := func(fn func()) {
				wg.Add(1)
				go func() { defer wg.Done(); fn() }()
			}
			complete := func() { f.complete(res, nil) }
			// Three orders: completion first, cancellation first, and
			// both left to race the waiter.
			switch i % 3 {
			case 0:
				complete()
				spawn(cancel)
			case 1:
				cancel()
				spawn(complete)
			default:
				spawn(cancel)
				spawn(complete)
			}
			out, err := f.WaitContext(ctx)
			switch {
			case err == nil && bytes.Equal(out, res):
				collected++
			case errors.Is(err, ErrCallTimeout) && out == nil:
				abandoned++
			default:
				t.Fatalf("round %d: WaitContext = %q, %v", i, out, err)
			}
			wg.Wait()
			cancel()
		}
		if collected == 0 || abandoned == 0 {
			t.Fatalf("collected %d, abandoned %d: want both outcomes", collected, abandoned)
		}
		t.Logf("%d rounds: %d collected, %d abandoned", rounds, collected, abandoned)
	})

	t.Run("Err then Wait", func(t *testing.T) {
		for _, parked := range []bool{false, true} {
			f := newFuture()
			boom := errors.New("boom")
			if parked {
				go func() {
					waitParked(t, f)
					f.complete(res, boom)
				}()
			} else {
				f.complete(res, boom)
			}
			if err := f.Err(); err != boom {
				t.Fatalf("parked=%v: Err = %v", parked, err)
			}
			if out, err := f.Wait(); err != boom || !bytes.Equal(out, res) {
				t.Fatalf("parked=%v: Wait = %q, %v", parked, out, err)
			}
			if _, err := f.Wait(); !errors.Is(err, ErrFutureSpent) {
				t.Fatalf("parked=%v: second Wait = %v, want ErrFutureSpent", parked, err)
			}
		}
	})

	// The NetClient.call shape: await under a deadline, then whoever
	// claims the call settles it, then Wait collects.
	t.Run("await then settle then Wait", func(t *testing.T) {
		stop := make(chan struct{})
		close(stop)
		// The caller's claim wins: it settles the call itself.
		f := newFuture()
		if f.await(stop) {
			t.Fatal("await on a pending future reported completion after stop")
		}
		f.complete(nil, ErrCallTimeout)
		if _, err := f.Wait(); err != ErrCallTimeout {
			t.Fatalf("Wait after own settle = %v", err)
		}
		// The reader's claim wins: the settlement arrives while Wait is
		// parked.
		f = newFuture()
		if f.await(stop) {
			t.Fatal("await on a pending future reported completion after stop")
		}
		go func() {
			waitParked(t, f)
			f.complete(res, nil)
		}()
		if out, err := f.Wait(); err != nil || !bytes.Equal(out, res) {
			t.Fatalf("Wait after reader's settle = %q, %v", out, err)
		}
		if _, err := f.Wait(); !errors.Is(err, ErrFutureSpent) {
			t.Fatalf("second Wait = %v, want ErrFutureSpent", err)
		}
		// Completed before await: await reports it, Wait collects it.
		f = newFuture()
		f.complete(res, nil)
		if !f.await(stop) {
			t.Fatal("await on a completed future reported stop")
		}
		if out, err := f.Wait(); err != nil || !bytes.Equal(out, res) {
			t.Fatalf("Wait = %q, %v", out, err)
		}
	})

	// The waiter's stop fires between complete's two CASes: complete saw
	// it parked, then finds it backed out to pending, and must still
	// deliver rather than recycle the record the waiter holds.
	t.Run("back-out between complete's CASes", func(t *testing.T) {
		f := newFuture()
		stop := make(chan struct{})
		backedOut, resume := make(chan struct{}), make(chan struct{})
		got := make(chan error, 1)
		go func() {
			if f.await(stop) {
				t.Error("await reported completion before complete ran")
			}
			close(backedOut)
			<-resume
			out, err := f.Wait()
			if err == nil && !bytes.Equal(out, res) {
				err = errors.New("Wait returned a stranger's result")
			}
			got <- err
		}()
		waitParked(t, f)
		var once sync.Once
		hook := func(g *Future) {
			if g == f {
				once.Do(func() { close(stop); <-backedOut })
			}
		}
		completeBetweenCAS.Store(&hook)
		f.complete(res, nil)
		completeBetweenCAS.Store(nil)
		// The waiter still holds f: complete must have left it ready
		// for collection, not recycled it in the pending state.
		if st := f.state.Load(); st != futReady {
			t.Errorf("state after complete = %d, want futReady (%d)", st, futReady)
		}
		close(resume)
		timer := time.NewTimer(10 * time.Second)
		defer timer.Stop()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("Wait after a back-out inside complete = %v", err)
			}
		case <-timer.C:
			t.Fatal("Wait never returned: complete recycled a future its waiter held")
		}
	})
}

// newArithBatch imports Arith and returns an in-process batch over it.
func newArithBatch(t testing.TB) *Batch {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	return b.NewBatch()
}

// TestBatchResultsOwned pins the ownership of results that share one
// flush's arena: they outlive Reset and the next flush, an append to
// one never reaches its neighbour, and an empty result is nil.
func TestBatchResultsOwned(t *testing.T) {
	bt := newArithBatch(t)
	const n = 8
	echo := func(k, i int) []byte { return bytes.Repeat([]byte{byte(16*k + i)}, 1+i%3) }
	flush := func(k int) [][]byte {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := bt.Call(1, echo(k, i)); err != nil { // Echo
				t.Fatal(err)
			}
		}
		if _, err := bt.Call(2, nil); err != nil { // Null
			t.Fatal(err)
		}
		if err := bt.Wait(); err != nil {
			t.Fatal(err)
		}
		res := make([][]byte, n)
		for i := range res {
			res[i], _ = bt.Result(i)
			if !bytes.Equal(res[i], echo(k, i)) {
				t.Fatalf("flush %d entry %d = %v, want %v", k, i, res[i], echo(k, i))
			}
		}
		if out, err := bt.Result(n); err != nil || out != nil {
			t.Fatalf("flush %d: Null result = %#v, %v; want nil", k, out, err)
		}
		bt.Reset()
		return res
	}
	flush(0) // sizes the arena the later flushes share
	prev := flush(1)
	for k := 2; k < 5; k++ {
		cur := flush(k)
		for i := range prev {
			if !bytes.Equal(prev[i], echo(k-1, i)) {
				t.Fatalf("flush %d entry %d changed to %v after Reset and the next flush", k-1, i, prev[i])
			}
		}
		for i := 0; i+1 < n; i++ {
			grown := append(cur[i], 0xEE, 0xEE, 0xEE, 0xEE)
			if !bytes.Equal(cur[i+1], echo(k, i+1)) || !bytes.Equal(grown[:len(cur[i])], echo(k, i)) {
				t.Fatalf("flush %d: appending to entry %d changed entry %d to %v", k, i, i+1, cur[i+1])
			}
		}
		prev = cur
	}
}

// TestBatchResetFlushesStaged pins that Reset strands no future: an
// entry staged but never flushed runs at Reset, and its future resolves.
func TestBatchResetFlushesStaged(t *testing.T) {
	bt := newArithBatch(t)
	f, err := bt.Call(0, addArgs(40, 2)) // Add
	if err != nil {
		t.Fatal(err)
	}
	bt.Reset()
	if bt.Len() != 0 {
		t.Fatalf("Len after Reset = %d", bt.Len())
	}
	if !f.Done() {
		t.Fatal("an entry staged before Reset was not flushed by it")
	}
	if out, err := f.Wait(); err != nil || !bytes.Equal(out, addArgs(42, 0)[:4]) {
		t.Fatalf("Wait = %v, %v", out, err)
	}
}

// TestBatchAllocs pins the in-process batch's allocations: a flush of
// 16 small calls allocates its results once, and nothing at all when
// every result is empty.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts not meaningful")
	}
	for _, tc := range []struct {
		name string
		proc int
		args []byte
		max  float64
	}{
		{"Add", 0, addArgs(40, 2), 1},
		{"Null", 2, nil, 0},
	} {
		bt := newArithBatch(t)
		run := func() {
			for i := 0; i < 16; i++ {
				if _, err := bt.Call(tc.proc, tc.args); err != nil {
					t.Fatal(err)
				}
			}
			if err := bt.Wait(); err != nil {
				t.Fatal(err)
			}
			bt.Reset()
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(200, run); allocs > tc.max {
			t.Errorf("%s: a 16-call batch allocates %.2f objects per flush, want ≤ %.0f", tc.name, allocs, tc.max)
		}
	}
}
