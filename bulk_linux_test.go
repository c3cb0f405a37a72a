//go:build linux

package lrpc

// Shared-memory bulk-plane tests: CallBulk over the segment's bulk page
// region, the oversized-argument spill path, slot-size handshake
// rejection (never a silent clamp), bulk-region exhaustion, and the
// cross-transport boundary-size table's shm rows. The portable suite
// these build on lives in bulk_test.go.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// startShmBulk serves bulkTestIface plus an args-summing proc (the
// spill path carries payloads as plain args, not bulk segments).
func shmBulkIface() *Interface {
	iface := bulkTestIface()
	iface.Name = "ShmBulk"
	iface.Procs = append(iface.Procs, Proc{Name: "ArgSum", Handler: func(c *Call) {
		var sum uint64
		for _, b := range c.Args() {
			sum += uint64(b)
		}
		res := c.ResultsBuf(16)
		binary.LittleEndian.PutUint64(res[0:8], sum)
		binary.LittleEndian.PutUint64(res[8:16], uint64(len(c.Args())))
	}})
	return iface
}

const shmProcArgSum = 5

func TestShmBulkRoundTrip(t *testing.T) {
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{BulkBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BulkBytes() != 8<<20 {
		t.Fatalf("granted %d bulk bytes, want %d", c.BulkBytes(), 8<<20)
	}
	// 3 MiB payloads: multiple 64 KiB pages per call, both directions,
	// buffer- and stream-backed.
	runBulkSuite(t, c, 3<<20)
}

// TestShmBulkSpill pins the uniform oversized-argument contract on the
// shm plane: arguments above the slot but within MaxOOBSize spill
// through the bulk region transparently — the handler sees plain args.
func TestShmBulkSpill(t *testing.T) {
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, size := range []int{4097, 100 << 10, 1 << 20} {
		args := bulkPayload(size)
		res, err := c.Call(shmProcArgSum, args)
		if err != nil {
			t.Fatalf("spill %d: %v", size, err)
		}
		if got := binary.LittleEndian.Uint64(res[0:8]); got != bulkSum(args) {
			t.Fatalf("spill %d: sum %d, want %d", size, got, bulkSum(args))
		}
		if got := binary.LittleEndian.Uint64(res[8:16]); got != uint64(size) {
			t.Fatalf("spill %d: handler saw %d arg bytes", size, got)
		}
	}
	// The spill is a per-call loan: after many spilled calls the region
	// must not leak pages.
	for i := 0; i < 64; i++ {
		if _, err := c.Call(shmProcArgSum, bulkPayload(1<<20)); err != nil {
			t.Fatalf("spill iteration %d: %v", i, err)
		}
	}
}

// TestShmSlotSizeHandshake pins satellite 3: a SlotSize above the
// server's MaxSlotSize is a deterministic handshake error carrying
// ErrTooLarge — never a silent clamp — while SlotSize == MaxSlotSize
// succeeds at exactly the requested geometry.
func TestShmSlotSizeHandshake(t *testing.T) {
	const cap = 1 << 16
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{MaxSlotSize: cap})

	if _, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: cap + 1}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SlotSize %d with cap %d: err = %v, want ErrTooLarge", cap+1, cap, err)
	}

	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: cap})
	if err != nil {
		t.Fatalf("SlotSize == MaxSlotSize must succeed: %v", err)
	}
	defer c.Close()
	if c.SlotSize() != cap {
		t.Fatalf("negotiated slot size %d, want exactly %d", c.SlotSize(), cap)
	}
	// The boundary slot is fully usable: args of exactly cap bytes stay
	// in-slot (Sink returns nothing, so no results-size interference).
	if _, err := c.Call(2, make([]byte, cap)); err != nil {
		t.Fatalf("slot-filling call: %v", err)
	}
}

// TestShmBulkExhaustion pins the permanent/transient split: a payload
// the granted region can never hold is ErrTooLarge (permanent), while
// one it cannot hold right now, because calls in flight hold the pages,
// is ErrNoAStacks (retryable).
func TestShmBulkExhaustion(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	iface := shmBulkIface()
	iface.Procs = append(iface.Procs, Proc{Name: "HoldArgs", Handler: func(c *Call) {
		<-release
		c.ResultsBuf(0)
	}})
	procHoldArgs := len(iface.Procs) - 1
	_, sock, _ := startShm(t, iface, ShmServeOptions{})
	// One 64 KiB page of bulk; spilling 100 KiB needs two.
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096, BulkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BulkBytes() != 64<<10 {
		t.Fatalf("granted %d bulk bytes, want one page", c.BulkBytes())
	}
	if _, err := c.Call(shmProcArgSum, make([]byte, 100<<10)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("spill larger than the whole region = %v, want ErrTooLarge", err)
	}
	// An async spill parked in its handler holds the one page: a second
	// spill is transient exhaustion, and fits once the first returns.
	held := bulkPayload(32 << 10)
	f, err := c.CallAsync(procHoldArgs, held)
	if err != nil {
		t.Fatalf("async spill to hold the page: %v", err)
	}
	if _, err := c.Call(shmProcArgSum, held); !errors.Is(err, ErrNoAStacks) {
		t.Fatalf("spill while the page is held = %v, want ErrNoAStacks", err)
	}
	close(release)
	if _, err := f.Wait(); err != nil {
		t.Fatalf("held spill: %v", err)
	}
	if _, err := c.Call(shmProcArgSum, held); err != nil {
		t.Fatalf("spill after the page came back: %v", err)
	}
	// A payload that fits one page still goes through afterwards.
	if _, err := c.Call(shmProcArgSum, bulkPayload(60<<10)); err != nil {
		t.Fatalf("one-page spill after exhaustion: %v", err)
	}
	// CallBulk beyond the granted region is permanent for this session:
	// the handle's size is known up front, so it is ErrTooLarge.
	h := NewBulkIn(make([]byte, 128<<10))
	if _, err := c.CallBulk(0, nil, h); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("CallBulk beyond region = %v, want ErrTooLarge", err)
	}
}

// TestShmBulkDisabled covers BulkBytes < 0: the session has no bulk
// region, so oversized args are permanently ErrTooLarge (the pre-spill
// contract) and CallBulk reports the missing region.
func TestShmBulkDisabled(t *testing.T) {
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096, BulkBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BulkBytes() != 0 {
		t.Fatalf("disabled session reports %d bulk bytes", c.BulkBytes())
	}
	if _, err := c.Call(shmProcArgSum, make([]byte, 8192)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized args without bulk = %v, want ErrTooLarge", err)
	}
	_, err = c.CallBulk(0, nil, NewBulkIn(bulkPayload(4096)))
	if err == nil || !strings.Contains(err.Error(), "no bulk region") {
		t.Fatalf("CallBulk without bulk = %v, want a no-bulk-region error", err)
	}
	// In-slot traffic is untouched.
	if _, err := c.Call(2, make([]byte, 4096)); err != nil {
		t.Fatalf("in-slot call on disabled session: %v", err)
	}
}

// TestShmCallBulkArgsStayInSlot pins the control-plane rule: CallBulk
// carries its (small) args in-slot; the bulk region is for the payload.
func TestShmCallBulkArgsStayInSlot(t *testing.T) {
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := NewBulkIn(bulkPayload(64 << 10))
	if _, err := c.CallBulk(0, make([]byte, 8192), h); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized CallBulk args = %v, want ErrTooLarge", err)
	}
}

// TestBoundarySizeTableShm runs the cross-transport size table's shm
// rows (satellite 4): with a bulk region granted, the shm plane
// classifies sizes identically to inproc and TCP across Call,
// CallAsync, and CallOneWay.
func TestBoundarySizeTableShm(t *testing.T) {
	if testing.Short() {
		t.Skip("moves multiple 16 MiB payloads")
	}
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	// One slot: a one-way completes (and returns its spill pages)
	// before the next submission can claim the slot, so the table sees
	// the steady-state classification, not transient page contention.
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wait := func(f *Future, err error) error {
		if err != nil {
			return err
		}
		_, err = f.Wait()
		return err
	}
	runBoundaryTable(t, boundaryPlane{
		name:   "shm",
		call:   func(a []byte) error { _, err := c.Call(2, a); return err },
		async:  func(a []byte) error { return wait(c.CallAsync(2, a)) },
		oneWay: func(a []byte) error { return c.CallOneWay(2, a) },
	}, boundarySizes(4096))
}

// TestShmBulkAsyncSpillRecycle checks the async and one-way submission
// paths release spilled pages through the same recycle funnel as sync
// calls: a tiny one-page region survives sustained spilled traffic.
func TestShmBulkAsyncSpillRecycle(t *testing.T) {
	_, sock, _ := startShm(t, shmBulkIface(), ShmServeOptions{})
	// One slot serializes the fire-and-forget one-ways: each must have
	// recycled (returning its page) before the next can post, so any
	// missed release shows up as deterministic exhaustion.
	c, err := DialShmOpts(sock, "ShmBulk", ShmDialOptions{SlotSize: 4096, BulkBytes: 64 << 10, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := bulkPayload(32 << 10)
	for i := 0; i < 32; i++ {
		f, err := c.CallAsync(shmProcArgSum, args)
		if err != nil {
			t.Fatalf("async spill %d: %v", i, err)
		}
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("async spill %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(res[8:16]); got != uint64(len(args)) {
			t.Fatalf("async spill %d: handler saw %d bytes", i, got)
		}
	}
	for i := 0; i < 32; i++ {
		if err := c.CallOneWay(2, args); err != nil {
			t.Fatalf("one-way spill %d: %v", i, err)
		}
	}
	// The region is whole again: a full-region spill still fits.
	if _, err := c.Call(shmProcArgSum, bytes.Repeat([]byte{1}, 60<<10)); err != nil {
		t.Fatalf("post-traffic full-region spill: %v", err)
	}
}
