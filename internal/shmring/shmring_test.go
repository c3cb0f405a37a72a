package shmring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// aligned returns a 64-byte-aligned region of length n, standing in for
// the mmap'd (page-aligned) segment the real transport uses.
func aligned(n int) []byte {
	b := make([]byte, n+63)
	off := (64 - int(uintptr(unsafe.Pointer(&b[0])))&63) & 63
	return b[off : off+n : off+n]
}

func TestCapForAndSize(t *testing.T) {
	cases := []struct{ n, c int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024}}
	for _, tc := range cases {
		if got := CapFor(tc.n); got != tc.c {
			t.Errorf("CapFor(%d) = %d, want %d", tc.n, got, tc.c)
		}
	}
	if Size(3) != slotsOff+4*slotBytes {
		t.Errorf("Size(3) = %d", Size(3))
	}
}

func TestInitAttachRoundTrip(t *testing.T) {
	region := aligned(Size(8))
	prod, err := Init(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The peer's view: same bytes, separately constructed (the two-mapping
	// case collapses to one mapping inside a single test process).
	cons, err := Attach(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if !prod.Push(i * 3) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if prod.Push(99) {
		t.Fatal("push succeeded on a full ring")
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := cons.Pop()
		if !ok || v != i*3 {
			t.Fatalf("pop %d = %d,%v; want %d,true", i, v, ok, i*3)
		}
	}
	if _, ok := cons.Pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

func TestAttachRejectsMismatch(t *testing.T) {
	region := aligned(Size(8))
	if _, err := Init(region, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(region, 16); err == nil {
		t.Fatal("Attach accepted a capacity that does not match the region")
	}
	if _, err := Attach(region[:16], 8); err == nil {
		t.Fatal("Attach accepted a truncated region")
	}
	if _, err := Init(region[4:], 4); err == nil {
		t.Fatal("Init accepted a misaligned region")
	}
}

// TestConcurrentTransfer drives producers against PopWait consumers and
// checks every value arrives exactly once — under -race this also
// certifies the atomics provide the ordering the protocol claims.
func TestConcurrentTransfer(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 2000
	)
	region := aligned(Size(64))
	r, err := Init(region, 64)
	if err != nil {
		t.Fatal(err)
	}
	var seen [producers * perProd]atomic.Uint32
	var done atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := r.PopWait(32, time.Millisecond, done.Load)
				if !ok {
					return
				}
				seen[v].Add(1)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(p*perProd + i)
				for !r.Push(v) {
					Yield()
				}
				r.Bump()
			}
		}(p)
	}
	pwg.Wait()
	// Drain: wait until every value landed, then stop the consumers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for i := range seen {
			total += int(seen[i].Load())
		}
		if total == len(seen) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d values arrived", total, len(seen))
		}
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	r.WakeAll()
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d delivered %d times", i, n)
		}
	}
}

// TestPopWaitWake pins the park/wake path: a consumer parked past its
// spin budget must be woken promptly by a producer's Bump.
func TestPopWaitWake(t *testing.T) {
	region := aligned(Size(4))
	r, err := Init(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 1)
	go func() {
		v, _ := r.PopWait(1, 100*time.Millisecond, nil)
		got <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	r.Push(42)
	r.Bump()
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("woke with %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer never woke after Bump")
	}
}

// TestPopWaitParksUntilWoken: a consumer parked with wait 0 keeps no
// timer — it calls stop no more while it lies parked — and the WakeAll
// that follows stop turning true ends its wait.
func TestPopWaitParksUntilWoken(t *testing.T) {
	r, err := Init(aligned(Size(4)), 4)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	var stopped atomic.Bool
	stop := func() bool {
		calls.Add(1)
		return stopped.Load()
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := r.PopWait(1, 0, stop)
		done <- ok
	}()
	for deadline := time.Now().Add(5 * time.Second); r.waiters.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the consumer never parked")
		}
	}
	parked := calls.Load()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := calls.Load(); n != parked {
			t.Fatalf("the parked consumer called stop %d more times: its wait re-arms", n-parked)
		}
	}
	stopped.Store(true)
	r.WakeAll()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("PopWait on an empty ring returned a value")
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("the parked consumer still waits 100ms after stop and WakeAll")
	}
}

// withBudget runs f with the probe budget set to n.
func withBudget(t *testing.T, n time.Duration, f func()) {
	t.Helper()
	old := probeBudget
	probeBudget = n
	defer func() { probeBudget = old }()
	f()
}

// TestProbeClaimsNothing: a probe that finds a value leaves it in the
// ring for the Pop that follows.
func TestProbeClaimsNothing(t *testing.T) {
	r, err := Init(aligned(Size(4)), 4)
	if err != nil {
		t.Fatal(err)
	}
	withBudget(t, time.Microsecond, func() {
		if Probe(r.ready) {
			t.Fatal("probe of an empty ring reported a value")
		}
		r.Push(7)
		if !Probe(r.ready) || !r.ready() {
			t.Fatal("probe missed the value in the ring")
		}
	})
	if v, ok := r.Pop(); !ok || v != 7 {
		t.Fatalf("pop after probe = %d,%v; want 7,true", v, ok)
	}
	if r.ready() {
		t.Fatal("ready on a drained ring")
	}
}

// TestPopWaitSpinZeroNeverProbes: spin 0 parks at once, so a budget no
// probe could finish still lets PopWait reach its second stop check.
func TestPopWaitSpinZeroNeverProbes(t *testing.T) {
	r, err := Init(aligned(Size(4)), 4)
	if err != nil {
		t.Fatal(err)
	}
	withBudget(t, 1<<62, func() {
		var calls atomic.Int32
		stop := func() bool { return calls.Add(1) >= 2 }
		done := make(chan bool, 1)
		go func() {
			_, ok := r.PopWait(0, time.Millisecond, stop)
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Fatal("PopWait on an empty ring returned a value")
			}
		case <-time.After(time.Second):
			// Unblock the probe so the budget can be restored.
			r.Push(1)
			<-done
			t.Fatal("PopWait(0, …) probed instead of parking")
		}
	})
}

// TestPopWaitProbeCatchesPush: a value pushed while the consumer is in
// its probe phase is returned by the probe, before any yield or park —
// stop, checked once before the probe and once before a park, is
// called once.
func TestPopWaitProbeCatchesPush(t *testing.T) {
	r, err := Init(aligned(Size(4)), 4)
	if err != nil {
		t.Fatal(err)
	}
	withBudget(t, 1<<62, func() {
		var calls atomic.Int32
		entered := make(chan struct{})
		stop := func() bool {
			if calls.Add(1) == 1 {
				close(entered)
			}
			return false
		}
		got := make(chan uint64, 1)
		go func() {
			v, _ := r.PopWait(1, time.Hour, stop)
			got <- v
		}()
		<-entered
		time.Sleep(5 * time.Millisecond) // the consumer is probing now
		r.Push(42)
		r.Bump()
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("PopWait = %d, want 42", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the probing consumer never saw the push")
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("stop called %d times, want 1: the push was not taken by the probe", n)
		}
		if w := r.waiters.Load(); w != 0 {
			t.Fatalf("waiters = %d after a probe hit", w)
		}
	})
}

// TestProbeBudgetFollowsCPUs: loads are spent only where the peer can
// run beside this process.
func TestProbeBudgetFollowsCPUs(t *testing.T) {
	if (probeBudget == 0) != (runtime.NumCPU() == 1) {
		t.Fatalf("probe budget %v with NumCPU %d", probeBudget, runtime.NumCPU())
	}
	if probeTime(1) != 0 || probeTime(2) == 0 {
		t.Fatalf("probeTime(1) = %v, probeTime(2) = %v", probeTime(1), probeTime(2))
	}
	if Spare() != runtime.NumCPU()-1 {
		t.Fatalf("Spare() = %d with NumCPU %d", Spare(), runtime.NumCPU())
	}
}

// TestProbeIsBoundedByTime: a probe that never sees its condition gives
// up once its budget has passed on the clock, and not before, however
// slow its loads are (the race detector instruments each one): with
// loads of at least 20 µs a 2 ms budget ends within 100 loads and one
// stride, where a probe bounded by a count of loads makes that count.
func TestProbeIsBoundedByTime(t *testing.T) {
	const budget, load = 2 * time.Millisecond, 20 * time.Microsecond
	limit := int(budget/load) + probeStride
	withBudget(t, budget, func() {
		loads := 0
		slow := func() bool {
			loads++
			for t0 := time.Now(); time.Since(t0) < load; {
			}
			return loads > limit
		}
		t0 := time.Now()
		if Probe(slow) {
			t.Fatalf("probe with a %v budget made more than %d loads of %v", budget, limit, load)
		}
		if took := time.Since(t0); took < budget {
			t.Fatalf("probe with a %v budget gave up after %v", budget, took)
		}
	})
	withBudget(t, 0, func() {
		if Probe(func() bool { t.Error("probe with a zero budget loaded"); return true }) {
			t.Fatal("probe with a zero budget reported true")
		}
	})
}
