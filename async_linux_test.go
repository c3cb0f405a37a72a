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
	for i := 0; i < n; i++ {
		args := make([]byte, 4)
		binary.LittleEndian.PutUint32(args, uint32(i))
		if _, err := bt.Call(0, args); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	if err := bt.OneWay(1, nil); err != nil { // Null, fire-and-forget
		t.Fatal(err)
	}
	if err := bt.Wait(); err != nil {
		t.Fatal(err)
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
