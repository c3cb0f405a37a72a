//go:build linux

package lrpc

// Integration tests for the shared-memory plane. Client and server run
// in one test process here — the segment, rings, fd passing, and futex
// protocol are identical to the two-process case (the same bytes reach
// both sides through the same mmap) — while the genuinely two-process
// scenarios (peer kill mid-call) live in internal/faultinject, which
// can re-exec the test binary.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func shmTestIface(name string, hold chan struct{}) *Interface {
	return &Interface{
		Name: name,
		Procs: []Proc{
			{Name: "Echo", Handler: func(c *Call) {
				args := c.Args()
				buf := c.ResultsBuf(len(args))
				copy(buf, args)
			}},
			{Name: "Null", Handler: func(c *Call) { c.ResultsBuf(0) }},
			{Name: "Hold", Handler: func(c *Call) {
				if hold != nil {
					<-hold
				}
				c.ResultsBuf(0)
			}},
			{Name: "Big", Handler: func(c *Call) {
				// Results deliberately exceed any small slot: 64 KiB.
				buf := c.ResultsBuf(64 << 10)
				for i := range buf {
					buf[i] = byte(i)
				}
			}},
		},
	}
}

// startShm exports iface on a fresh system and serves it on a socket in
// t's temp dir, returning the server, the socket path, and the export.
func startShm(t *testing.T, iface *Interface, opts ShmServeOptions) (*ShmServer, string, *Export) {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "lrpc.sock")
	l, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewShmServer(sys, opts)
	go sv.Serve(l)
	t.Cleanup(func() { sv.Close() })
	return sv, sock, exp
}

// freeSlots counts the slots on c's free stack. It walks the links, so
// it reads true only while no call takes or returns a slot; a walk that
// races one stops past the slot count rather than follow a stale link
// forever.
func freeSlots(c *ShmClient) int {
	n := 0
	for i := uint32(c.freeTop.Load()); i != 0 && n <= c.Slots(); i = c.freeNext[i-1].Load() {
		n++
	}
	return n
}

func TestShmRoundTrip(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("payload %d", i))
		out, err := c.Call(0, msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(out) != string(msg) {
			t.Fatalf("call %d echoed %q", i, out)
		}
	}
	if out, err := c.Call(1, nil); err != nil || len(out) != 0 {
		t.Fatalf("Null = %v, %v", out, err)
	}
	st := c.Stats()
	if st.Calls != 101 || st.Failures != 0 {
		t.Fatalf("client stats %+v", st)
	}
}

func TestShmBindErrors(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	if _, err := DialShm(sock, "NoSuch"); !errors.Is(err, ErrNotExported) {
		t.Fatalf("dial of unexported name = %v, want ErrNotExported", err)
	}
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("bad proc = %v, want ErrBadProcedure", err)
	}
	big := make([]byte, c.SlotSize()+1)
	if _, err := c.Call(0, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized args = %v, want ErrTooLarge", err)
	}
	// Results that cannot fit the pairwise slot surface as the size
	// exception too — the shm plane has no out-of-band channel.
	if _, err := c.Call(3, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized results = %v, want ErrTooLarge", err)
	}
	// A bind refused by the Admit hook with a broker refusal keeps its
	// sentinel, and its text crosses once, not re-prefixed.
	_, gated, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Admit: func(tenant, _ string) error {
		return notAdmitted("tenant %q", tenant)
	}})
	_, err = DialShmOpts(gated, "Shm", ShmDialOptions{Tenant: "x"})
	if want := `lrpc: remote: lrpc: tenant not admitted: tenant "x"`; !errors.Is(err, ErrNotAdmitted) || err.Error() != want {
		t.Fatalf("refused bind = %v, want ErrNotAdmitted and %q", err, want)
	}
}

func TestShmConcurrent(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 4})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// More callers than slots: the extras queue on the free list.
	const callers, per = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, 64)
			for i := 0; i < per; i++ {
				msg := fmt.Sprintf("g%d-i%d", g, i)
				out, err := c.CallAppend(0, []byte(msg), dst[:0])
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
					return
				}
				if string(out) != msg {
					errs <- fmt.Errorf("caller %d call %d echoed %q", g, i, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestShmTerminateRevokes(t *testing.T) {
	_, sock, exp := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	exp.Terminate()
	if _, err := c.Call(1, nil); !errors.Is(err, ErrRevoked) {
		t.Fatalf("call after Terminate = %v, want ErrRevoked", err)
	}
}

func TestShmCleanDetachStats(t *testing.T) {
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shmWaitFor(t, time.Second, func() bool {
		st := sv.Stats()
		return st.ActiveSessions == 0 && st.CleanDetaches == 1 &&
			st.SegmentsReclaimed == 1 && st.SegmentBytes == 0
	}, func() string { return fmt.Sprintf("%+v", sv.Stats()) })
}

func TestShmServerCloseRevokesClient(t *testing.T) {
	tl := NewTraceLog(16)
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Tracer: tl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	shmWaitFor(t, time.Second, func() bool {
		_, err := c.Call(1, nil)
		return errors.Is(err, ErrRevoked)
	}, func() string { return "calls still succeeding after server close" })
	if c.Stats().PeerCrashed {
		t.Fatal("clean server shutdown classified as a peer crash")
	}
}

// TestShmCloseWakesParkedDemux: the reply demultiplexer, parked on the
// futex for a parked caller, keeps no timer; the server's close wakes it
// (markDead's WakeAll), so it exits, the caller fails and the
// segment is unmapped while the server's handler still runs.
func TestShmCloseWakesParkedDemux(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	sv, sock, _ := startShm(t, shmTestIface("Shm", hold), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Spin: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(2, nil) // Hold: blocked until the test returns
		done <- err
	}()
	buf := make([]byte, 1<<20)
	shmWaitFor(t, 5*time.Second, func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "(*ShmClient).demux") && strings.Contains(g, "shmring.futexWait") {
				return true
			}
		}
		return false
	}, func() string { return "the demultiplexer never parked on the futex" })
	sv.Close()
	if err := <-done; !errors.Is(err, ErrCallFailed) {
		t.Fatalf("parked call across the server's close = %v, want ErrCallFailed", err)
	}
	shmWaitFor(t, 5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.unmapped
	}, func() string { return "the segment is still mapped: the demultiplexer never woke" })
}

func TestShmTornDoorbell(t *testing.T) {
	tornEvery := 3
	var n int
	var mu sync.Mutex
	faults := func() ShmFault {
		mu.Lock()
		defer mu.Unlock()
		n++
		return ShmFault{TornDoorbell: n%tornEvery == 0}
	}
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		out, err := c.Call(0, []byte("x"))
		if err != nil || string(out) != "x" {
			t.Fatalf("call %d under torn doorbells = %q, %v", i, out, err)
		}
	}
	shmWaitFor(t, time.Second, func() bool { return sv.Stats().TornDoorbells >= 20 },
		func() string { return fmt.Sprintf("%+v", sv.Stats()) })
}

func TestShmAbandonRecyclesSlot(t *testing.T) {
	hold := make(chan struct{})
	_, sock, exp := startShm(t, shmTestIface("Shm", hold), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, 2, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("held call = %v, want ErrCallTimeout", err)
	}
	// The single slot is still owned by the abandoned call; release the
	// handler and the orphan watcher must hand it back.
	close(hold)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(1, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after abandon = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot never recycled after the abandoned handler returned")
	}
	shmWaitFor(t, time.Second, func() bool { return exp.Active() == 0 },
		func() string { return fmt.Sprintf("active=%d", exp.Active()) })
}

func TestShmSupervisorRecovers(t *testing.T) {
	iface := shmTestIface("Shm", nil)
	sv1, sock, exp1 := startShm(t, iface, ShmServeOptions{})
	dial := func() (*ShmClient, error) { return DialShm(sock, "Shm") }
	sup, err := SuperviseShm(dial, SupervisorOpts{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the first server outright and bring up a successor on the
	// same socket path: the next calls ride a fresh segment. A call
	// posted before the client has read the server's bye would land in a
	// dying session and fail as "may have executed" — the contract, but
	// not the recovery under test — so wait for the client to see it.
	old := sup.Client()
	exp1.Terminate()
	sv1.Close()
	select {
	case <-old.dead:
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the server's shutdown")
	}
	sys2 := NewSystem()
	if _, err := sys2.Export(iface); err != nil {
		t.Fatal(err)
	}
	l2, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := NewShmServer(sys2, ShmServeOptions{})
	go sv2.Serve(l2)
	defer sv2.Close()
	if _, err := sup.Call(1, nil); err != nil {
		t.Fatalf("supervised call after server replacement = %v", err)
	}
	if sup.Rebinds() == 0 {
		t.Fatal("supervisor recovered without recording a rebind")
	}
}

func TestShmTransparentBindingThreeWay(t *testing.T) {
	iface := shmTestIface("Shm", nil)
	_, sock, _ := startShm(t, iface, ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tb := BindShm(c)
	if tb.Remote() || !tb.SameMachine() {
		t.Fatalf("BindShm classified as remote=%v sameMachine=%v", tb.Remote(), tb.SameMachine())
	}
	out, err := tb.Call(0, []byte("via shm"))
	if err != nil || string(out) != "via shm" {
		t.Fatalf("three-way shm call = %q, %v", out, err)
	}
	out, err = tb.CallChainContext(context.Background(), NewChain().Add(0, []byte("chained")).Add(0, nil))
	if err != nil || string(out) != "chained" {
		t.Fatalf("three-way shm chain under a context = %q, %v", out, err)
	}
	// And the in-process arm still wins when present.
	sysL := NewSystem()
	if _, err := sysL.Export(shmTestIface("Local", nil)); err != nil {
		t.Fatal(err)
	}
	bl, err := sysL.Import("Local")
	if err != nil {
		t.Fatal(err)
	}
	lb := BindLocal(bl)
	if lb.SameMachine() || lb.Remote() {
		t.Fatal("BindLocal misclassified")
	}
	if out, err := lb.Call(0, []byte("local")); err != nil || string(out) != "local" {
		t.Fatalf("three-way local call = %q, %v", out, err)
	}
}

// shmChainIface is the chain fixture for the shm plane: Echo, Inc
// (observable data flow), Boom (panic mid-chain), Big (results that
// cannot fit a small slot).
func shmChainIface() *Interface {
	return &Interface{
		Name: "ShmPipe",
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
			{Name: "Boom", Handler: func(c *Call) { panic("boom") }},
			{Name: "Big", Handler: func(c *Call) {
				buf := c.ResultsBuf(64 << 10)
				for i := range buf {
					buf[i] = byte(i)
				}
			}},
		},
	}
}

func TestShmChainRoundTrip(t *testing.T) {
	_, sock, exp := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One descriptor, one doorbell, three stages in the server's domain.
	out, err := c.CallChain(NewChain().Add(0, []byte("ab")).Add(1, nil).Add(1, nil))
	if err != nil || string(out) != "cd" {
		t.Fatalf("shm chain = %q, %v", out, err)
	}
	// Slicing works across the slot boundary too.
	out, err = c.CallChain(NewChain().Add(0, []byte("abcdefg")).AddSlice(1, nil, 2, 3))
	if err != nil || string(out) != "def" {
		t.Fatalf("shm sliced chain = %q, %v", out, err)
	}
	if exp.Chains() != 2 || exp.ChainStages() != 5 {
		t.Fatalf("server chain counters %d/%d, want 2/5", exp.Chains(), exp.ChainStages())
	}
	if st := c.Stats(); st.Chains != 2 {
		t.Fatalf("client stats %+v", st)
	}
	// The slot that carried a chain descriptor recycles cleanly into a
	// plain call: the direction word must not leak into the next
	// occupant.
	if out, err := c.Call(0, []byte("plain")); err != nil || string(out) != "plain" {
		t.Fatalf("plain call after chain = %q, %v", out, err)
	}
}

func TestShmChainVouchAcrossSlot(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A panic at stage 1 crosses the slot as a structured chain error
	// (code 7) and rebuilds the full vouch.
	_, err = c.CallChain(NewChain().Add(0, []byte("a")).Add(2, nil).Add(0, nil))
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("shm chain panic: %v", err)
	}
	if !errors.Is(err, ErrCallFailed) || errors.Is(err, ErrNotExecuted) {
		t.Fatalf("shm chain panic classification: %v", err)
	}
	// A head-stage failure keeps the replay-safe classification.
	_, err = c.CallChain(NewChain().Add(99, nil).Add(0, nil))
	if !errors.As(err, &ce) || ce.Executed != 0 ||
		!errors.Is(err, ErrBadProcedure) || !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("shm head failure: %v", err)
	}
	// A final result that cannot fit the slot surfaces as the size
	// exception with every stage vouched executed (the work ran; only
	// the reply could not cross).
	_, err = c.CallChain(NewChain().Add(0, nil).Add(3, nil))
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 ||
		!errors.Is(err, ErrTooLarge) || errors.Is(err, ErrNotExecuted) {
		t.Fatalf("oversized chain result: %v, want stage 1 with 2 executed", err)
	}
	// A descriptor that cannot fit the slot is refused client-side.
	huge := NewChain().Add(0, make([]byte, c.SlotSize()))
	if _, err := c.CallChain(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized descriptor: %v", err)
	}
}

func TestShmChainAsync(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{})
	c, err := DialShm(sock, "ShmPipe")
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
		t.Fatalf("shm async chain = %q, %v", out, err)
	}
	f, err = c.CallChainAsync(NewChain().Add(0, []byte("a")).Add(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait()
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
		t.Fatalf("shm async chain failure: %v", err)
	}
	// Async chains and async calls share the completion plane.
	af, err := c.CallAsync(0, []byte("mix"))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := af.Wait(); err != nil || string(out) != "mix" {
		t.Fatalf("async call after async chain = %q, %v", out, err)
	}
}

func TestShmChainConcurrent(t *testing.T) {
	_, sock, _ := startShm(t, shmChainIface(), ShmServeOptions{Workers: 4})
	c, err := DialShmOpts(sock, "ShmPipe", ShmDialOptions{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := []byte{byte(g)}
			for i := 0; i < 50; i++ {
				out, err := c.CallChain(NewChain().Add(0, seed).Add(1, nil).Add(1, nil))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d chain %d: %w", g, i, err)
					return
				}
				if len(out) != 1 || out[0] != byte(g)+2 {
					errs <- fmt.Errorf("goroutine %d chain %d = %v", g, i, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// shmWaitFor polls cond until it holds or the deadline passes.
func shmWaitFor(t *testing.T, d time.Duration, cond func() bool, state func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", state())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- the reply protocol: slot state word first, ring hints on demand ---

// shmStallIface is Echo with a handler that stays on its processor for
// the microseconds named in the argument's last four bytes, so replies
// land at a seeded spread of instants around the moment a Spin: 1
// caller leaves its window.
func shmStallIface(name string) *Interface {
	return &Interface{
		Name: name,
		Procs: []Proc{{Name: "StallEcho", Handler: func(c *Call) {
			args := c.Args()
			stall := time.Duration(binary.LittleEndian.Uint32(args[len(args)-4:])) * time.Microsecond
			for t0 := time.Now(); time.Since(t0) < stall; {
			}
			copy(c.ResultsBuf(len(args)), args)
		}}},
	}
}

// TestShmNoLostWake: callers with a one-yield spin window (Spin: 1)
// race the server's reply on every call. On a multi-CPU host the window
// opens with the load probe (shmring.Probe, a few µs), so with the seeded
// 0–40 µs stalls replies land on both sides of the moment a caller
// leaves its window. Whichever side gets there first, the call must
// return its own result before the deadline, accounted as exactly one
// spin or park reply, and both regimes must occur where the caller and
// the server run side by side: a test whose replies all land inside the
// window races nothing.
func TestShmNoLostWake(t *testing.T) {
	_, sock, _ := startShm(t, shmStallIface("Stall"), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Stall", ShmDialOptions{Spin: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(17 + g)))
			args := make([]byte, 12)
			for i := 0; i < per; i++ {
				binary.LittleEndian.PutUint32(args[0:], uint32(g))
				binary.LittleEndian.PutUint32(args[4:], uint32(i))
				binary.LittleEndian.PutUint32(args[8:], uint32(rng.Intn(41)))
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				out, err := c.CallContext(ctx, 0, args)
				cancel()
				if err != nil || !bytes.Equal(out, args) {
					t.Errorf("caller %d call %d = %x, %v (want %x)", g, i, out, err, args)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	// On one processor the in-process server runs a stall to completion
	// inside the caller's single yield, so park replies are rare there
	// (1–74 of 16 k in 30 pinned runs) and none is no sign of a
	// spin-only test; with two or more, thousands park.
	parks := st.ParkReplies > 0 || runtime.GOMAXPROCS(0) == 1
	if st.Calls != callers*per || st.Timeouts != 0 || st.Failures != 0 ||
		st.SpinReplies+st.ParkReplies != st.Calls || st.SpinReplies == 0 || !parks {
		t.Fatalf("client stats %+v", st)
	}
	t.Logf("%d spin and %d park replies", st.SpinReplies, st.ParkReplies)
}

// TestShmNoHintMarkNeverCoversLaterOccupant runs every submission kind
// through one slot in turn. A synchronous call leaves its no-hint mark
// behind on a spin hit and zeroes it when it parks; either way the mark
// must sit below the ID of whatever posts next, because async and
// one-way completions are only ever reaped from the reply ring.
func TestShmNoHintMarkNeverCoversLaterOccupant(t *testing.T) {
	for _, spin := range []int{1, 1 << 20} {
		t.Run(fmt.Sprintf("spin=%d", spin), func(t *testing.T) {
			_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
			c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 1, Spin: spin})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			mark := shmU64(c.seg, c.lay.slotBase(0)+slotOffNoHint)
			call := func(step string) {
				t.Helper()
				if out, err := c.CallContext(ctx, 0, []byte(step)); err != nil || string(out) != step {
					t.Fatalf("%s = %q, %v", step, out, err)
				}
				if m := mark.Load(); m > c.callID.Load() {
					t.Fatalf("%s left no-hint mark %d ahead of call ID %d", step, m, c.callID.Load())
				}
			}
			call("sync 1")
			f, err := c.CallAsync(0, []byte("async"))
			if err != nil {
				t.Fatal(err)
			}
			if out, err := f.WaitContext(ctx); err != nil || string(out) != "async" {
				t.Fatalf("async after sync = %q, %v", out, err)
			}
			if err := c.CallOneWay(1, nil); err != nil {
				t.Fatal(err)
			}
			// The one-way holds the only slot until its hint retires it.
			call("sync 2")
			if st := c.Stats(); st.Timeouts != 0 || st.Failures != 0 || st.OneWayDrops != 0 {
				t.Fatalf("client stats %+v", st)
			}
		})
	}
}

// TestShmReplyHintCounts pins who gets a reply-ring hint, as counts
// that repeat: a synchronous caller that stays in its spin window gets
// none, every batched submission gets exactly one (on slots whose last
// occupant was synchronous), and a parked synchronous caller gets one.
func TestShmReplyHintCounts(t *testing.T) {
	hold := make(chan struct{})
	sv, sock, _ := startShm(t, shmTestIface("Shm", hold), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Spin: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hints := func() uint64 { return sv.Stats().ReplyHints }

	const calls = 10000
	for i := 0; i < calls; i++ {
		if _, err := c.Call(1, nil); err != nil {
			t.Fatalf("Null %d: %v", i, err)
		}
	}
	if st := c.Stats(); hints() != 0 || st.ParkReplies != 0 || st.SpinReplies != calls {
		t.Fatalf("after %d spinning calls: ReplyHints = %d, client %+v", calls, hints(), st)
	}

	bt := c.NewBatch()
	for i := 0; i < 64; i++ {
		if _, err := bt.Call(1, nil); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := hints(); got != 64 {
		t.Fatalf("after a batch of 64: ReplyHints = %d, want 64", got)
	}

	parker, err := DialShmOpts(sock, "Shm", ShmDialOptions{Spin: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer parker.Close()
	done := make(chan error, 1)
	go func() {
		_, err := parker.Call(2, nil) // Hold: blocked until the test releases it
		done <- err
	}()
	shmWaitFor(t, 5*time.Second, func() bool { return parker.parked.Load() == 1 },
		func() string { return fmt.Sprintf("parked=%d", parker.parked.Load()) })
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, st := hints(), parker.Stats(); got != 65 || st.ParkReplies != 1 {
		t.Fatalf("after one parked call: ReplyHints = %d, want 65; client %+v", got, st)
	}
}

// TestShmHostileNoHintWord: the no-hint word lives in client-writable
// memory. A client that scribbles on it while calling can withhold its
// own wake-ups — its calls may run into their deadlines and its slots
// may never come back — and nothing else: the server keeps dispatching
// and accounting, a well-behaved session beside it never notices, and
// the liars' segments are reclaimed at teardown like any other. One liar
// spins (volume: the server reads garbage on nearly every call), the
// other parks at once (every withheld hint strands a slot).
func TestShmHostileNoHintWord(t *testing.T) {
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	var liars []*ShmClient
	for _, opts := range []ShmDialOptions{{Slots: 64}, {Slots: 4, Spin: 1}} {
		c, err := DialShmOpts(sock, "Shm", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		liars = append(liars, c)
	}
	honest, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the scribbler: zero ↔ garbage on every slot's word
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stopped() {
			for _, c := range liars {
				for id := 0; id < c.Slots(); id++ {
					v := uint64(0)
					if rng.Intn(2) == 0 {
						v = rng.Uint64() | 1
					}
					shmU64(c.seg, c.lay.slotBase(uint32(id))+slotOffNoHint).Store(v)
				}
			}
			runtime.Gosched()
		}
	}()
	for _, c := range liars {
		wg.Add(1)
		go func(c *ShmClient) { // a liar's own traffic: may stall, never past its deadline
			defer wg.Done()
			for !stopped() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				out, err := c.CallContext(ctx, 0, []byte("liar"))
				cancel()
				if err == nil && string(out) != "liar" {
					t.Errorf("liar call echoed %q", out)
					return
				}
				if err != nil && !errors.Is(err, ErrCallTimeout) {
					t.Errorf("liar call = %v, want success or ErrCallTimeout", err)
					return
				}
			}
		}(c)
	}
	var honestCalls uint64
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); honestCalls++ {
		msg := fmt.Sprintf("honest %d", honestCalls)
		if out, err := honest.Call(0, []byte(msg)); err != nil || string(out) != msg {
			t.Fatalf("honest call %d beside hostile sessions = %q, %v", honestCalls, out, err)
		}
	}
	close(stop)
	wg.Wait()

	// Every slot any session posted was dispatched exactly once: the
	// call IDs count the posts, Calls the dispatches.
	posted := honest.callID.Load()
	for _, c := range liars {
		posted += c.callID.Load()
	}
	shmWaitFor(t, 5*time.Second, func() bool { return sv.Stats().Calls == posted },
		func() string { return fmt.Sprintf("posted=%d server=%+v", posted, sv.Stats()) })
	if st := honest.Stats(); st.Failures != 0 || st.Timeouts != 0 || st.Calls != honestCalls {
		t.Fatalf("honest session stats %+v", st)
	}
	if st := sv.Stats(); st.TornDoorbells != 0 {
		t.Fatalf("server stats %+v", st)
	}
	for _, c := range liars {
		c.Close()
	}
	shmWaitFor(t, 5*time.Second, func() bool {
		st := sv.Stats()
		return st.ActiveSessions == 1 && st.SegmentsReclaimed == 2
	}, func() string { return fmt.Sprintf("%+v", sv.Stats()) })
}

// --- the client's call path: one reference count, the free-slot stack ---

// TestShmSlotWaitersAllWake: 16 callers share a session of two slots,
// whose calls stall 0–20 µs in the handler, so at almost any moment most
// of the callers wait on the empty free-slot stack, and a third of them
// give up at 50 ms deadlines, in the wait or with the call posted. Every call returns — with its own results, or for a
// deadline caller with ErrCallTimeout — and the session ends at rest:
// both slots free, no reference held, no caller parked or waiting. A
// wake-up lost on the way to a waiter strands it beside a free slot; the
// progress check turns that hang into a failure within seconds (a
// deadline caller times out and goes on, so each caller is watched).
func TestShmSlotWaitersAllWake(t *testing.T) {
	_, sock, _ := startShm(t, shmStallIface("Stall"), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Stall", ShmDialOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, per = 16, 2000
	var wg sync.WaitGroup
	var timeouts atomic.Int64
	var returned [callers]atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer returned[g].Store(-1) // done
			rng := rand.New(rand.NewSource(int64(29 + g)))
			args := make([]byte, 12)
			for i := 0; i < per; i++ {
				binary.LittleEndian.PutUint32(args[0:], uint32(g))
				binary.LittleEndian.PutUint32(args[4:], uint32(i))
				binary.LittleEndian.PutUint32(args[8:], uint32(rng.Intn(21)))
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if g%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
				}
				out, err := c.CallContext(ctx, 0, args)
				cancel()
				returned[g].Add(1)
				switch {
				case err == nil && bytes.Equal(out, args):
				case g%3 == 0 && errors.Is(err, ErrCallTimeout):
					timeouts.Add(1)
				default:
					t.Errorf("caller %d call %d = %x, %v (want %x)", g, i, out, err, args)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last [callers]int64
	stuck := -1
	for stuck < 0 {
		select {
		case <-done:
			stuck = callers
		case <-time.After(5 * time.Second):
			for g := range last {
				n := returned[g].Load()
				if n >= 0 && n == last[g] {
					stuck = g
				}
				last[g] = n
			}
		}
	}
	if stuck < callers {
		state := fmt.Sprintf("free slots %d, refs %d, waiters %d", freeSlots(c), c.refs.Load(), c.freeWaiters.Load())
		c.Close() // release the stranded callers so the test can end
		<-done
		t.Fatalf("caller %d returned no call in 5 s: %s", stuck, state)
	}
	shmWaitFor(t, 5*time.Second, func() bool {
		return freeSlots(c) == c.Slots() && c.refs.Load() == 0 && c.parked.Load() == 0 && c.freeWaiters.Load() == 0
	}, func() string {
		return fmt.Sprintf("free slots %d/%d, refs %d, parked %d, waiters %d",
			freeSlots(c), c.Slots(), c.refs.Load(), c.parked.Load(), c.freeWaiters.Load())
	})
	if st := c.Stats(); st.Calls != callers*per || st.Timeouts != uint64(timeouts.Load()) || st.Failures != 0 {
		t.Fatalf("client stats %+v, %d timeouts seen", st, timeouts.Load())
	}
	t.Logf("%d deadline calls timed out", timeouts.Load())
}

// TestShmCloseDrainsInflight closes a session under 8 callers mid-stream,
// from the client's side and from the server's. Every call returns its
// results or the plane's close or death exception, the server reclaims
// the one segment once, and the client unmaps only after the last
// reference ends: from the moment the mapping is gone the count holds
// the closing bit alone. A caller that touched the segment after the
// unmap would fault the test binary.
func TestShmCloseDrainsInflight(t *testing.T) {
	for _, closer := range []string{"ShmClient", "ShmServer"} {
		t.Run(closer, func(t *testing.T) {
			sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
			c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const callers = 8
			var calls atomic.Int64
			errs := make(chan error, callers)
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					msg := []byte(fmt.Sprintf("caller %d", g))
					for {
						out, err := c.Call(0, msg)
						if err == nil && !bytes.Equal(out, msg) {
							err = fmt.Errorf("echoed %q", out)
						}
						if err != nil {
							errs <- err
							return
						}
						calls.Add(1)
					}
				}(g)
			}
			// The watcher samples the count and the mapping until the
			// callers are done.
			stop := make(chan struct{})
			early := make(chan int64, 1)
			go func() {
				for {
					c.mu.Lock()
					unmapped, refs := c.unmapped, c.refs.Load()
					c.mu.Unlock()
					if unmapped && refs != refClosing {
						early <- refs
						return
					}
					select {
					case <-stop:
						close(early)
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			shmWaitFor(t, 5*time.Second, func() bool { return calls.Load() >= 500 },
				func() string { return fmt.Sprintf("%d calls", calls.Load()) })
			if closer == "ShmClient" {
				c.Close()
			} else {
				sv.Close()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrRevoked) && !errors.Is(err, ErrCallFailed) {
					t.Errorf("call across %s.Close = %v", closer, err)
				}
			}
			shmWaitFor(t, 5*time.Second, func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.unmapped
			}, func() string { return fmt.Sprintf("still mapped, refs %#x", c.refs.Load()) })
			close(stop)
			if refs, ok := <-early; ok {
				t.Fatalf("segment unmapped with refs %#x, want only the closing bit %#x", refs, refClosing)
			}
			shmWaitFor(t, 5*time.Second, func() bool { return sv.Stats().SegmentsReclaimed >= 1 },
				func() string { return fmt.Sprintf("%+v", sv.Stats()) })
			if st := sv.Stats(); st.SegmentsReclaimed != 1 || st.ActiveSessions != 0 {
				t.Fatalf("server stats %+v, want one segment reclaimed", st)
			}
		})
	}
}

// TestShmCallAppendAllocs pins ShmClient.CallAppend into a caller's
// buffer at zero allocations, both processes' halves counted (the server
// runs in this one).
func TestShmCallAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args, dst := []byte("ping"), make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(2000, func() {
		if out, err := c.CallAppend(0, args, dst[:0]); err != nil || string(out) != "ping" {
			t.Fatalf("CallAppend = %q, %v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ShmClient.CallAppend: %.3f allocs/op, want 0", allocs)
	}
}
