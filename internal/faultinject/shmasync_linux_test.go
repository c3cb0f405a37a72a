//go:build linux

package faultinject

// The asynchronous shm plane against a real peer death: the server is
// a separate OS process (this test binary re-exec'd) SIGKILLed with a
// client batch in flight. Every outstanding future must resolve — with
// the posted-call exception (ErrCallFailed: the peer may have executed
// it) or the revocation exception for never-posted submissions — and
// submitters blocked on the pairwise slot free list must unblock. A
// wedged future or a leaked slot reference would hang the client's
// reap forever; this test is the proof it cannot.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lrpc"
)

const shmAsyncSockEnv = "LRPC_SHM_ASYNC_SOCK"

// TestShmAsyncServerRole is the scripted server process for
// TestShmBatchSurvivesPeerKill: it serves an interface whose Hold
// handler never returns, so the parent's submissions are pinned in
// flight when the kill lands, and whose Echo keeps a batch waiter
// draining the reply ring up to the kill.
func TestShmAsyncServerRole(t *testing.T) {
	if !IsChild("shm-async-server") {
		t.Skip("helper role; driven by TestShmBatchSurvivesPeerKill")
	}
	sys := lrpc.NewSystem()
	if _, err := sys.Export(&lrpc.Interface{
		Name: "AsyncCrash",
		Procs: []lrpc.Proc{
			{Name: "Hold", Handler: func(c *lrpc.Call) {
				select {} // held until the process dies
			}},
			{Name: "Echo", Handler: func(c *lrpc.Call) {
				copy(c.ResultsBuf(len(c.Args())), c.Args())
			}},
		},
	}); err != nil {
		Emit("ERR export: %v", err)
		os.Exit(1)
	}
	l, err := lrpc.ListenShm(os.Getenv(shmAsyncSockEnv))
	if err != nil {
		Emit("ERR listen: %v", err)
		os.Exit(1)
	}
	sv := lrpc.NewShmServer(sys, lrpc.ShmServeOptions{Workers: 4})
	go sv.Serve(l)
	Emit("READY")
	select {} // hold the domain open until the parent kills it
}

func TestShmBatchSurvivesPeerKill(t *testing.T) {
	if IsChild("shm-async-server") {
		t.Skip("child role runs only its own test")
	}
	sock := filepath.Join(t.TempDir(), "async.sock")
	child, err := StartChild("TestShmAsyncServerRole", "shm-async-server",
		shmAsyncSockEnv+"="+sock)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Kill()
	line, err := child.ReadLine(10 * time.Second)
	if err != nil || line != "READY" {
		t.Fatalf("child handshake: %q, %v", line, err)
	}

	c, err := lrpc.DialShmOpts(sock, "AsyncCrash", lrpc.ShmDialOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill every pairwise slot with a batched submission pinned inside
	// the server's handler, plus one one-way riding the same flush.
	bt := c.NewBatch()
	futs := make([]*lrpc.Future, 0, 3)
	for i := 0; i < 3; i++ {
		f, err := bt.Call(0, []byte(fmt.Sprintf("held %d", i)))
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	if err := bt.OneWay(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	// A straggler submission parks on the exhausted free list; the
	// death must unblock it with a synchronous error or a failed future.
	stragglerErr := make(chan error, 1)
	go func() {
		f, err := c.CallAsync(0, nil)
		if err != nil {
			stragglerErr <- err
			return
		}
		_, err = f.Wait()
		stragglerErr <- err
	}()

	// A second session keeps a batch waiter draining the reply ring on
	// its own goroutine (its entries are reaped by nobody else) until
	// the kill lands mid-window: the reaper must not unmap the segment
	// under that drain, and the waiter must come out with an error.
	drainer, err := lrpc.DialShmOpts(sock, "AsyncCrash", lrpc.ShmDialOptions{Slots: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer drainer.Close()
	var flushes atomic.Int64
	drained := make(chan error, 1)
	go func() {
		dbt := drainer.NewBatch()
		for {
			for i := 0; i < 16; i++ {
				if _, err := dbt.Call(1, []byte("drain")); err != nil {
					drained <- err
					return
				}
			}
			if err := dbt.Wait(); err != nil {
				drained <- err
				return
			}
			dbt.Reset()
			flushes.Add(1)
		}
	}()
	warm := time.After(10 * time.Second)
	for flushes.Load() < 50 {
		select {
		case err := <-drained:
			t.Fatalf("draining batch waiter failed before the kill: %v", err)
		case <-warm:
			t.Fatalf("draining batch waiter made %d flushes before the kill, want 50", flushes.Load())
		case <-time.After(time.Millisecond):
		}
	}

	// Kill the server domain outright: no bye, no reply, rings armed.
	if err := child.Kill(); err != nil {
		t.Logf("kill: %v (expected: killed children report an error)", err)
	}

	// Every posted future resolves with the peer-death exception within
	// bounds — the dead sweep, not a timeout, is what resolves them.
	deadline := time.After(10 * time.Second)
	for i, f := range futs {
		done := make(chan error, 1)
		go func() { _, err := f.Wait(); done <- err }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("future %d resolved successfully across a SIGKILL", i)
			}
			if !errors.Is(err, lrpc.ErrCallFailed) && !errors.Is(err, lrpc.ErrRevoked) {
				t.Fatalf("future %d = %v, want ErrCallFailed or ErrRevoked", i, err)
			}
		case <-deadline:
			t.Fatalf("future %d never resolved after peer kill", i)
		}
	}
	select {
	case err := <-stragglerErr:
		if err == nil {
			t.Fatal("straggler submission succeeded across a SIGKILL")
		}
	case <-deadline:
		t.Fatal("straggler submission never unblocked after peer kill")
	}
	select {
	case err := <-drained:
		if !errors.Is(err, lrpc.ErrCallFailed) && !errors.Is(err, lrpc.ErrRevoked) {
			t.Fatalf("draining batch waiter = %v, want ErrCallFailed or ErrRevoked", err)
		}
	case <-deadline:
		t.Fatal("draining batch waiter never returned after peer kill")
	}

	// The session is dead, not wedged: new submissions fail fast and
	// Close (the reap path) completes rather than hanging on a leaked
	// inflight reference.
	if _, err := c.CallAsync(0, nil); err == nil {
		t.Fatal("CallAsync on a dead session succeeded")
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged: the dead sweep leaked an inflight reference")
	}
}
