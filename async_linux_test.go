//go:build linux

package lrpc

// Shared-memory async plane tests: futures reaped from the reply ring,
// batched submission with one doorbell bump, one-way slot recycling,
// and wire-level accounting. The peer-kill scenarios (SIGKILL with a
// batch in flight) live in internal/faultinject, which re-execs the
// test binary as the server process.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestShmCallAsync(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 2})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// More submissions than slots in flight at once: submitAsync blocks
	// on the free list, completions recycle slots as replies drain.
	const n = 32
	futs := make([]*Future, n)
	for i := range futs {
		f, err := c.CallAsync(0, []byte(fmt.Sprintf("msg %d", i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		out, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if string(out) != fmt.Sprintf("msg %d", i) {
			t.Fatalf("future %d echoed %q", i, out)
		}
	}
	st := c.Stats()
	if st.AsyncCalls != n {
		t.Fatalf("AsyncCalls = %d, want %d", st.AsyncCalls, n)
	}
	// The plane interleaves with synchronous calls on the same session.
	if out, err := c.Call(0, []byte("sync")); err != nil || string(out) != "sync" {
		t.Fatalf("sync call after async = %q, %v", out, err)
	}
}

func TestShmBatchSingleDoorbell(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 2})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bt := c.NewBatch()
	// More entries than slots: staging flushes (rings) and blocks for a
	// slot when the pairwise allocation runs dry, then keeps going.
	const n = 24
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			args := make([]byte, 4)
			binary.LittleEndian.PutUint32(args, uint32(i))
			if _, err := bt.Call(0, args); err != nil {
				done <- fmt.Errorf("stage %d: %v", i, err)
				return
			}
		}
		if err := bt.OneWay(1, nil); err != nil { // Null, fire-and-forget
			done <- err
			return
		}
		done <- bt.Wait()
	}()
	// A staging caller asleep for a slot that only a drain can free
	// wedges here, until Close (deferred) ends the session under it.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("batch staging wedged on the slot free list: %d of %d slots free, parked = %d",
			freeSlots(c), c.Slots(), shmParked(c))
	}
	for i := 0; i < n; i++ {
		out, err := bt.Result(i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(out); got != uint32(i) {
			t.Fatalf("entry %d = %d", i, got)
		}
	}
	st := c.Stats()
	if st.BatchedCalls != n+1 {
		t.Fatalf("BatchedCalls = %d, want %d", st.BatchedCalls, n+1)
	}
	if st.Batches == 0 {
		t.Fatal("no batch flush recorded")
	}
	if st.OneWays != 1 {
		t.Fatalf("OneWays = %d, want 1", st.OneWays)
	}
}

func TestShmOneWayRecyclesSlots(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 2})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Many more one-ways than slots: if the reply-ring recycle leaked a
	// single slot, this loop would wedge on the free list.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if err := c.CallOneWay(1, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("one-way slot recycling wedged")
	}
	if st := c.Stats(); st.OneWays != 100 {
		t.Fatalf("OneWays = %d, want 100", st.OneWays)
	}
	// The session still answers synchronously.
	if out, err := c.Call(0, []byte("after")); err != nil || string(out) != "after" {
		t.Fatalf("sync after one-ways = %q, %v", out, err)
	}
}

func TestShmAsyncAfterClose(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShm(sock, "Shm")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.CallAsync(0, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("CallAsync after Close = %v, want ErrConnClosed", err)
	}
	if err := c.CallOneWay(1, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("CallOneWay after Close = %v, want ErrConnClosed", err)
	}
	bt := c.NewBatch()
	if _, err := bt.Call(0, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("batch stage after Close = %v, want ErrConnClosed", err)
	}
}

// --- batch entries reaped by their own waiter, handed over otherwise ---
//
// A shm batch entry is not registered with the demultiplexer: Batch.Wait
// drains the reply ring for it. Each test below takes one path on which
// nobody drives an entry, so it must be handed over to the
// demultiplexer, or the call hangs; each ends with the demultiplexer's
// count back at zero.

// TestShmBatchHandOverOnSlotShortage: 24 entries on 8 slots, so staging
// runs out of slots with its own entries holding them, beside a
// goroutine of synchronous calls on the same session that run out too.
func TestShmBatchHandOverOnSlotShortage(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 2})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	syncErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				syncErr <- nil
				return
			default:
			}
			want := fmt.Sprintf("sync %d", i)
			if out, err := c.Call(0, []byte(want)); err != nil || string(out) != want {
				syncErr <- fmt.Errorf("sync call %d = %q, %v", i, out, err)
				return
			}
		}
	}()
	batchErr := make(chan error, 1)
	go func() {
		bt := c.NewBatch()
		for round := 0; round < 20; round++ {
			const n = 24
			for i := 0; i < n; i++ {
				args := make([]byte, 4)
				binary.LittleEndian.PutUint32(args, uint32(round*n+i))
				if _, err := bt.Call(0, args); err != nil {
					batchErr <- fmt.Errorf("round %d stage %d: %v", round, i, err)
					return
				}
			}
			if err := bt.Wait(); err != nil {
				batchErr <- fmt.Errorf("round %d: %v", round, err)
				return
			}
			for i := 0; i < n; i++ {
				if out, err := bt.Result(i); err != nil || binary.LittleEndian.Uint32(out) != uint32(round*n+i) {
					batchErr <- fmt.Errorf("round %d entry %d = %x, %v", round, i, out, err)
					return
				}
			}
			bt.Reset()
		}
		batchErr <- nil
	}()
	// A caller asleep for a slot only a drain can free hangs here, until
	// Close (deferred) ends the session under it.
	select {
	case err := <-batchErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("batch rounds wedged on the slot free list: %d of %d slots free, parked = %d",
			freeSlots(c), c.Slots(), shmParked(c))
	}
	close(stop)
	select {
	case err := <-syncErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synchronous caller wedged on the slot free list")
	}
	waitUnparked(t, c, 5*time.Second)
}

// TestShmBatchResetHandsOver: a flushed batch is Reset without Wait.
// Its slots come back with nobody waiting, and its futures, waited later
// from another goroutine, carry their results.
func TestShmBatchResetHandsOver(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bt := c.NewBatch()
	futs := make([]*Future, c.Slots())
	for i := range futs {
		if futs[i], err = bt.Call(0, []byte(fmt.Sprintf("reset %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	bt.Reset()
	shmWaitFor(t, 5*time.Second, func() bool { return freeSlots(c) == c.Slots() },
		func() string { return fmt.Sprintf("%d of %d slots free", freeSlots(c), c.Slots()) })
	done := make(chan error, 1)
	go func() {
		for i, f := range futs {
			if out, err := f.Wait(); err != nil || string(out) != fmt.Sprintf("reset %d", i) {
				done <- fmt.Errorf("future %d = %q, %v", i, out, err)
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitUnparked(t, c, 5*time.Second)
}

// TestShmBatchSlowHandlerParks: against a handler that outlasts the wait
// window, a batch future waited directly, and Batch.Wait itself, park
// after handing the entry over, and the demultiplexer wakes them.
func TestShmBatchSlowHandlerParks(t *testing.T) {
	for _, direct := range []bool{true, false} {
		t.Run(fmt.Sprintf("direct=%v", direct), func(t *testing.T) {
			hold := make(chan struct{})
			_, sock, _ := startShm(t, shmTestIface("Shm", hold), ShmServeOptions{})
			c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4, Spin: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			bt := c.NewBatch()
			f, err := bt.Call(2, nil) // Hold
			if err != nil {
				t.Fatal(err)
			}
			if err := bt.Flush(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				if direct {
					_, err := f.Wait()
					done <- err
					return
				}
				done <- bt.Wait()
			}()
			// The waiter is parked and handed over once the count shows it.
			shmWaitFor(t, 5*time.Second, func() bool { return shmParked(c) == 1 },
				func() string { return fmt.Sprintf("parked = %d", shmParked(c)) })
			close(hold)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a parked batch waiter was never woken")
			}
			waitUnparked(t, c, 5*time.Second)
		})
	}
}

// TestShmBatchDoneHandsOver: Done turns true on a flushed entry nobody
// waits on.
func TestShmBatchDoneHandsOver(t *testing.T) {
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bt := c.NewBatch()
	f, err := bt.Call(0, []byte("done"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	shmWaitFor(t, 5*time.Second, f.Done, func() string { return "Done never turned true" })
	if out, err := f.Wait(); err != nil || string(out) != "done" {
		t.Fatalf("Wait = %q, %v", out, err)
	}
	waitUnparked(t, c, 5*time.Second)
}

// TestShmBatchSurvivesPeerDeath: the server goes away while a batch
// waiter drains the reply ring for its entries. The waiter comes out
// with the peer-death error, the reaper unmaps only after its window
// ends, and the count is back at zero. The two-process kill is
// internal/faultinject's TestShmBatchSurvivesPeerKill.
func TestShmBatchSurvivesPeerDeath(t *testing.T) {
	sv, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{Workers: 2})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var flushes atomic.Int64
	done := make(chan error, 1)
	go func() {
		bt := c.NewBatch()
		for {
			for i := 0; i < 16; i++ {
				if _, err := bt.Call(0, []byte("drain")); err != nil {
					done <- err
					return
				}
			}
			if err := bt.Wait(); err != nil {
				done <- err
				return
			}
			bt.Reset()
			flushes.Add(1)
		}
	}()
	shmWaitFor(t, 5*time.Second, func() bool { return flushes.Load() >= 20 },
		func() string { return fmt.Sprintf("%d flushes", flushes.Load()) })
	sv.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCallFailed) && !errors.Is(err, ErrRevoked) {
			t.Fatalf("draining batch waiter = %v, want ErrCallFailed or ErrRevoked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("draining batch waiter never returned after the server closed")
	}
	waitUnparked(t, c, 5*time.Second)
}

// TestShmBatchAllocs is TestBatchAllocs on the shm plane: a 64-entry
// batch allocates one result copy per entry (retire's) and nothing else.
func TestShmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts not meaningful")
	}
	_, sock, _ := startShm(t, shmTestIface("Shm", nil), ShmServeOptions{})
	c, err := DialShmOpts(sock, "Shm", ShmDialOptions{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	args := []byte("ping")
	bt := c.NewBatch()
	run := func() {
		for i := 0; i < n; i++ {
			if _, err := bt.Call(0, args); err != nil {
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
	if allocs := testing.AllocsPerRun(200, run); allocs > n {
		t.Errorf("a %d-call shm batch allocates %.2f objects per flush, want ≤ %d", n, allocs, n)
	}
}
