package lrpc

// Tests for the lock-free call transfer path: zero-allocation assertions
// for the in-band fast path, and race hammers proving the atomic
// revocation plane keeps the paper's section 5.3 semantics — in-flight
// calls surface ErrCallFailed, new calls and woken pool waiters surface
// ErrRevoked — under concurrent Call, Terminate, and Import.

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCallZeroAllocs asserts the tentpole property: a call with in-band
// arguments and results performs zero heap allocations — no binding
// table lookup, no fresh channels, no per-call Call struct.
func TestCallZeroAllocs(t *testing.T) {
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
	args := make([]byte, 8)
	binary.LittleEndian.PutUint32(args[0:4], 40)
	binary.LittleEndian.PutUint32(args[4:8], 2)

	// Warm the per-P caches (stack pool, call pool).
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
		t.Errorf("Null Call allocates %.1f objects/op, want 0", allocs)
	}

	buf := make([]byte, 0, 16)
	if allocs := testing.AllocsPerRun(200, func() {
		res, err := b.CallAppend(0, args, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(res); got != 42 {
			t.Fatalf("Add = %d", got)
		}
	}); allocs != 0 {
		t.Errorf("Add CallAppend allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCallZeroAllocsWithMetrics asserts the observability layer's
// when-on contract: with the recorder installed AND a tracer hooked up,
// the successful fast path still allocates nothing — histograms are
// atomic adds into pre-sized stripes, and trace events exist only on
// uncommon paths, so no event is constructed here. The measured calls
// come after the sampling warm-up, so they cross both the timed and the
// untimed branch.
func TestCallZeroAllocsWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts not meaningful")
	}
	sys := NewSystem()
	sys.EnableMetrics()
	sys.SetTracer(NewTraceLog(64))
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	args := make([]byte, 8)
	for i := 0; i < 2*warmSpans; i++ {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Call(2, args); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Null Call with metrics on allocates %.1f objects/op, want 0", allocs)
	}
	if sn := e.MetricsSnapshot(); sn.Dispatch.Count == 0 || sn.Handler.Count == 0 {
		t.Errorf("recorder saw nothing: %+v", sn)
	}
}

// TestCallPathTakesNoLocks turns the mutex profiler all the way up and
// hammers the call path from several goroutines, metrics enabled: no
// contended mutex may have Binding.CallAppend in its stack outside the
// deliberate getSlow fallback. (Contention-based, so it can only catch a
// lock that actually contended — but any mutex added to the fast path
// would contend under this hammer.)
func TestCallPathTakesNoLocks(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	sys := NewSystem()
	sys.EnableMetrics()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	// One call before the hammer: a fresh pool's sync.Pool front-end sizes
	// its per-P array under a global mutex on first use, and four
	// goroutines arriving there together contend on it (1 run in 60) —
	// a one-time initialisation, not a lock on the call path.
	if _, err := b.Call(2, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := make([]byte, 8)
			for i := 0; i < 5000; i++ {
				if _, err := b.Call(2, args); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	n, _ := runtime.MutexProfile(nil)
	records := make([]runtime.BlockProfileRecord, n+64)
	n, _ = runtime.MutexProfile(records)
	for _, r := range records[:n] {
		frames := runtime.CallersFrames(r.Stack())
		var stack []string
		onFastPath, viaSlowPath := false, false
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if strings.Contains(f.Function, "lrpc.(*Binding).CallAppend") {
				onFastPath = true
			}
			if strings.Contains(f.Function, "getSlow") {
				viaSlowPath = true
			}
			if !more {
				break
			}
		}
		if onFastPath && !viaSlowPath {
			t.Errorf("contended mutex on the call fast path:\n  %s", strings.Join(stack, "\n  "))
		}
	}
}

// TestCallByNameUsesIndex checks the Export-time name index resolves like
// the procedure list (first declaration wins) and misses cleanly.
func TestCallByNameUsesIndex(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"Add": 0, "Echo": 1, "Null": 2} {
		if got, ok := b.exp.nameIdx[name]; !ok || got != want {
			t.Errorf("nameIdx[%q] = %d,%v want %d", name, got, ok, want)
		}
	}
	if _, err := b.CallByName("Nope", nil); !errors.Is(err, ErrBadProcedure) {
		t.Errorf("unknown name: %v", err)
	}
	if raceEnabled {
		return
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 16; i++ {
		if _, err := b.CallByName("Null", payload); err != nil {
			t.Fatal(err)
		}
	}
	// The name lookup must not reintroduce a per-call allocation.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := b.CallByName("Null", payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CallByName allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentCallTerminateImport hammers the three planes the atomics
// must keep consistent: callers in flight, a terminator revoking the
// export, and importers racing the revocation. Run under -race this
// proves the lock-free path is data-race free; the error assertions prove
// the section 5.3 semantics survive.
func TestConcurrentCallTerminateImport(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
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
		start := make(chan struct{})
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf(format, args...)
		}
		callOK := func(err error) bool {
			return err == nil || errors.Is(err, ErrRevoked) || errors.Is(err, ErrCallFailed)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				args := make([]byte, 8)
				for i := 0; i < 300; i++ {
					if _, err := b.Call(0, args); !callOK(err) {
						fail("caller: unexpected error %v", err)
						return
					}
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					nb, err := sys.Import("Arith")
					if err != nil {
						if !errors.Is(err, ErrNotExported) {
							fail("importer: %v", err)
						}
						return
					}
					if _, err := nb.Call(2, nil); !callOK(err) {
						fail("imported call: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
			e.Terminate()
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		// After the dust settles the revocation must be total.
		if _, err := b.Call(0, make([]byte, 8)); !errors.Is(err, ErrRevoked) {
			t.Fatalf("iter %d: post-terminate call: %v, want ErrRevoked", iter, err)
		}
		if n := b.Outstanding(); n != 0 {
			t.Fatalf("iter %d: %d stacks leaked", iter, n)
		}
		_ = e
	}
}

// TestTerminateWakesParkedWaiters pins the waiter half of section 5.3:
// a caller parked on an exhausted pool under WaitForAStack must be woken
// by Terminate and fail with ErrRevoked, while the call holding the stack
// completes its handler and surfaces ErrCallFailed.
func TestTerminateWakesParkedWaiters(t *testing.T) {
	sys := NewSystem()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	iface := &Interface{Name: "Slow", Procs: []Proc{{
		Name: "Hold", AStackSize: 8, NumAStacks: 1,
		Handler: func(c *Call) {
			entered <- struct{}{}
			<-release
			c.ResultsBuf(0)
		},
	}}}
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Slow")
	if err != nil {
		t.Fatal(err)
	}
	b.Policy = WaitForAStack

	first := make(chan error, 1)
	go func() { _, err := b.Call(0, nil); first <- err }()
	<-entered

	second := make(chan error, 1)
	go func() { _, err := b.Call(0, nil); second <- err }()
	// Wait until the second caller is actually parked on the pool.
	deadline := time.Now().Add(2 * time.Second)
	for b.pools[0].waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}

	e.Terminate()
	select {
	case err := <-second:
		if !errors.Is(err, ErrRevoked) {
			t.Errorf("parked waiter: %v, want ErrRevoked", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter not woken by Terminate")
	}
	close(release)
	if err := <-first; !errors.Is(err, ErrCallFailed) {
		t.Errorf("in-flight call: %v, want ErrCallFailed", err)
	}
	if n := b.Outstanding(); n != 0 {
		t.Errorf("%d stacks leaked", n)
	}
}

// TestOverflowStackReturnsToFullPool exercises the bounded ring's drop
// path: overflow stacks minted beyond the provisioned count are let go
// when they come home to a full pool, keeping memory bounded.
func TestOverflowStackReturnsToFullPool(t *testing.T) {
	sys := NewSystem()
	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	iface := &Interface{Name: "Burst", Procs: []Proc{{
		Name: "Hold", AStackSize: 8, NumAStacks: 2,
		Handler: func(c *Call) {
			entered <- struct{}{}
			<-hold
			c.ResultsBuf(0)
		},
	}}}
	if _, err := sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Burst")
	if err != nil {
		t.Fatal(err)
	}
	// Force the pool strict so checkins go to the bounded ring (the
	// front-end would otherwise absorb overflow without bound checks).
	b.pools[0].strict.Store(true)

	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Call(0, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < burst; i++ {
		<-entered
	}
	if n := b.Outstanding(); n != burst {
		t.Fatalf("Outstanding = %d during burst, want %d", n, burst)
	}
	close(hold)
	wg.Wait()
	if n := b.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after burst, want 0", n)
	}
	// The ring kept at most its rounded-up capacity; most overflow
	// stacks were dropped for the GC rather than retained.
	if free := b.pools[0].free(); free > len(b.pools[0].ring.slots) {
		t.Fatalf("pool retained %d stacks, ring capacity %d", free, len(b.pools[0].ring.slots))
	}
}
