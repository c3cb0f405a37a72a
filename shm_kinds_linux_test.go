//go:build linux

package lrpc

// One table over every shared-memory call kind. Each kind is driven to
// every outcome it can reach, and after each row the session must be
// whole again — every slot on the free list, every bulk page free, no
// inflight reference and no parked registration left — with the
// client's counters moved exactly as that kind's accounting promises and
// the fault hook consulted once per synchronous call that reached the
// doorbell.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

type failingSource struct{}

func (failingSource) Read([]byte) (int, error) { return 0, errors.New("source failed") }

type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

// shmKindReq is one row's submission; each kind reads what it takes.
type shmKindReq struct {
	proc int
	args []byte
	ch   *Chain
	h    *BulkHandle
}

// shmMoved is what a row may move: the client's counters (spin and park
// replies summed, their split being timing) and the server's torn
// doorbells.
type shmMoved struct {
	Calls, Chains, Failures, Replies                        uint64
	AsyncCalls, OneWays, OneWayDrops, Batches, BatchedCalls uint64
	Torn                                                    uint64
}

func (m shmMoved) sub(o shmMoved) shmMoved {
	return shmMoved{m.Calls - o.Calls, m.Chains - o.Chains, m.Failures - o.Failures, m.Replies - o.Replies,
		m.AsyncCalls - o.AsyncCalls, m.OneWays - o.OneWays, m.OneWayDrops - o.OneWayDrops,
		m.Batches - o.Batches, m.BatchedCalls - o.BatchedCalls, m.Torn - o.Torn}
}

func TestShmEveryCallKindLeavesSessionWhole(t *testing.T) {
	const (
		procEcho = iota
		procBoom
		procHold
		procSum
		procFill
	)
	gate := make(chan struct{})
	iface := &Interface{Name: "ShmKinds", Procs: []Proc{
		{Name: "Echo", Handler: func(c *Call) { copy(c.ResultsBuf(len(c.Args())), c.Args()) }},
		{Name: "Boom", Handler: func(c *Call) { panic("boom") }},
		{Name: "Hold", Handler: func(c *Call) { <-gate; c.ResultsBuf(0) }},
		{Name: "Sum", Handler: func(c *Call) { binary.LittleEndian.PutUint64(c.ResultsBuf(8), bulkSum(c.Bulk())) }},
		{Name: "Fill", Handler: func(c *Call) { c.BulkWriter().Write(bulkPayload(c.BulkCap())); c.ResultsBuf(0) }},
	}}
	sv, sock, _ := startShm(t, iface, ShmServeOptions{})
	c, err := DialShmOpts(sock, "ShmKinds", ShmDialOptions{
		Slots: 4, SlotSize: 4096, BulkBytes: 64 << 10,
		Faults: func() ShmFault { return ShmFault{TornDoorbell: true} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BulkBytes() != bulkPageSize {
		t.Fatalf("granted %d bulk bytes, want one page", c.BulkBytes())
	}

	// Shapes of submission, and how a kind completes.
	const (
		plain = iota
		chained
		bulkIn
		bulkOut
	)
	const (
		syncCall = iota
		asyncCall
		oneWayCall
		batchCall
		batchOneWay
	)
	type outcome int
	const (
		ok         outcome = iota
		handlerErr         // the handler panics
		tooLarge           // refused at check: no retry can fit it
		exhausted          // the one bulk page is held by a call in flight
		badSource          // the NewBulkReader source fails while staging
		badSink            // the NewBulkWriter sink fails after an ok reply
	)
	outcomes := []string{"ok", "handlerErr", "tooLarge", "exhausted", "badSource", "badSink"}

	wait := func(f *Future, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		return f.Wait()
	}
	inBatch := func(stage func(bt *Batch) error) ([]byte, error) {
		bt := c.NewBatch()
		err := stage(bt)
		if werr := bt.Wait(); err == nil {
			err = werr
		}
		if err != nil || bt.Len() == 0 {
			return nil, err
		}
		return bt.Result(0)
	}
	kinds := []struct {
		name  string
		shape int
		mode  int
		run   func(r shmKindReq) ([]byte, error)
	}{
		{"Call", plain, syncCall, func(r shmKindReq) ([]byte, error) { return c.Call(r.proc, r.args) }},
		{"CallAppend", plain, syncCall, func(r shmKindReq) ([]byte, error) {
			out, err := c.CallAppend(r.proc, r.args, []byte("dst:"))
			if err == nil && !bytes.HasPrefix(out, []byte("dst:")) {
				return nil, fmt.Errorf("CallAppend lost dst: %q", out)
			}
			if err == nil {
				out = out[4:]
			}
			return out, err
		}},
		{"CallContext", plain, syncCall, func(r shmKindReq) ([]byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return c.CallContext(ctx, r.proc, r.args)
		}},
		{"CallChain", chained, syncCall, func(r shmKindReq) ([]byte, error) { return c.CallChain(r.ch) }},
		{"CallChainContext", chained, syncCall, func(r shmKindReq) ([]byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return c.CallChainContext(ctx, r.ch)
		}},
		{"CallBulk/in", bulkIn, syncCall, func(r shmKindReq) ([]byte, error) { return c.CallBulk(r.proc, r.args, r.h) }},
		{"CallBulk/out", bulkOut, syncCall, func(r shmKindReq) ([]byte, error) { return c.CallBulk(r.proc, r.args, r.h) }},
		{"CallAsync", plain, asyncCall, func(r shmKindReq) ([]byte, error) { return wait(c.CallAsync(r.proc, r.args)) }},
		{"CallChainAsync", chained, asyncCall, func(r shmKindReq) ([]byte, error) { return wait(c.CallChainAsync(r.ch)) }},
		{"CallOneWay", plain, oneWayCall, func(r shmKindReq) ([]byte, error) { return nil, c.CallOneWay(r.proc, r.args) }},
		{"Batch.Call", plain, batchCall, func(r shmKindReq) ([]byte, error) {
			return inBatch(func(bt *Batch) error { _, err := bt.Call(r.proc, r.args); return err })
		}},
		{"Batch.OneWay", plain, batchOneWay, func(r shmKindReq) ([]byte, error) {
			return inBatch(func(bt *Batch) error { return bt.OneWay(r.proc, r.args) })
		}},
	}

	spill := bulkPayload(8 << 10)   // past the slot, inside the one bulk page
	tooBig := make([]byte, 100<<10) // past the whole bulk region
	equals := func(want string) func([]byte) error {
		return func(out []byte) error {
			if string(out) != want {
				return fmt.Errorf("results %q, want %q", out, want)
			}
			return nil
		}
	}
	// input builds a row's submission and its results check; applies is
	// false for an outcome the shape cannot reach.
	input := func(shape int, o outcome) (r shmKindReq, check func([]byte) error, applies bool) {
		switch shape {
		case plain:
			switch o {
			case ok:
				return shmKindReq{proc: procEcho, args: []byte("ok")}, equals("ok"), true
			case handlerErr:
				return shmKindReq{proc: procBoom}, nil, true
			case tooLarge:
				return shmKindReq{proc: procEcho, args: tooBig}, nil, true
			case exhausted:
				return shmKindReq{proc: procEcho, args: spill}, nil, true
			}
		case chained:
			switch o {
			case ok:
				return shmKindReq{ch: NewChain().Add(procEcho, []byte("a")).Add(procEcho, []byte("b"))}, equals("ba"), true
			case handlerErr:
				return shmKindReq{ch: NewChain().Add(procEcho, []byte("a")).Add(procBoom, nil)}, nil, true
			case tooLarge:
				return shmKindReq{ch: NewChain().Add(procEcho, make([]byte, 5000))}, nil, true
			}
		case bulkIn:
			switch o {
			case ok:
				h := NewBulkIn(spill)
				return shmKindReq{proc: procSum, h: h}, func(out []byte) error {
					if len(out) != 8 || binary.LittleEndian.Uint64(out) != bulkSum(spill) || h.Transferred() != int64(len(spill)) {
						return fmt.Errorf("BulkIn results %x, transferred %d", out, h.Transferred())
					}
					return nil
				}, true
			case handlerErr:
				return shmKindReq{proc: procBoom, h: NewBulkIn(spill)}, nil, true
			case tooLarge:
				return shmKindReq{proc: procSum, h: NewBulkIn(tooBig)}, nil, true
			case exhausted:
				return shmKindReq{proc: procSum, h: NewBulkIn(spill)}, nil, true
			case badSource:
				return shmKindReq{proc: procSum, h: NewBulkReader(failingSource{}, int64(len(spill)))}, nil, true
			}
		case bulkOut:
			switch o {
			case ok:
				buf := make([]byte, len(spill))
				h := NewBulkOut(buf)
				return shmKindReq{proc: procFill, h: h}, func([]byte) error {
					if !bytes.Equal(buf, spill) || h.Transferred() != int64(len(spill)) {
						return fmt.Errorf("BulkOut filled %d bytes, transferred %d", bulkSum(buf), h.Transferred())
					}
					return nil
				}, true
			case handlerErr:
				return shmKindReq{proc: procBoom, h: NewBulkOut(make([]byte, len(spill)))}, nil, true
			case tooLarge:
				return shmKindReq{proc: procFill, h: NewBulkOut(make([]byte, len(tooBig)))}, nil, true
			case exhausted:
				return shmKindReq{proc: procFill, h: NewBulkOut(make([]byte, len(spill)))}, nil, true
			case badSink:
				return shmKindReq{proc: procFill, h: NewBulkWriter(failingSink{}, int64(len(spill)))}, nil, true
			}
		}
		return shmKindReq{}, nil, false
	}
	// expect is each kind's accounting: a synchronous kind counts a call
	// and, once posted, one reply and one torn doorbell; an async kind an
	// async call; a one-way a one-way; a batch a flush, plus the staged
	// entry when it stages. Chains count on every kind. A handler error
	// is a failure except on one-ways, where it is a dropped error; a
	// refusal or a staging failure is a failure everywhere. A failing
	// BulkOut sink is returned beside good results, not counted.
	expect := func(shape, mode int, o outcome) shmMoved {
		var m shmMoved
		posted := o == ok || o == handlerErr || o == badSink
		switch mode {
		case syncCall:
			m.Calls = 1
			if posted {
				m.Replies, m.Torn = 1, 1
			}
		case asyncCall:
			m.AsyncCalls = 1
		case oneWayCall:
			m.OneWays = 1
		case batchCall, batchOneWay:
			m.Batches = 1
			if posted {
				m.BatchedCalls = 1
				if mode == batchCall {
					m.AsyncCalls = 1
				} else {
					m.OneWays = 1
				}
			}
		}
		if shape == chained {
			m.Chains = 1
		}
		switch {
		case o == ok || o == badSink:
		case o == handlerErr && (mode == oneWayCall || mode == batchOneWay):
			m.OneWayDrops = 1
		default:
			m.Failures = 1
		}
		return m
	}
	// checkErr pins the error the caller sees for each outcome.
	checkErr := func(mode int, o outcome, err error) error {
		var good bool
		switch o {
		case handlerErr:
			if mode == oneWayCall || mode == batchOneWay {
				good = err == nil
			} else {
				good = err != nil && strings.Contains(err.Error(), "boom")
			}
		case tooLarge:
			good = errors.Is(err, ErrTooLarge)
		case exhausted:
			good = errors.Is(err, ErrNoAStacks)
		case badSource:
			good = err != nil && strings.Contains(err.Error(), "bulk source")
		case badSink:
			good = err != nil && strings.Contains(err.Error(), "bulk sink")
		default:
			good = err == nil
		}
		if !good {
			return fmt.Errorf("err = %v for outcome %s", err, outcomes[o])
		}
		return nil
	}

	snapshot := func() shmMoved {
		st := c.Stats()
		return shmMoved{st.Calls, st.Chains, st.Failures, st.SpinReplies + st.ParkReplies,
			st.AsyncCalls, st.OneWays, st.OneWayDrops, st.Batches, st.BatchedCalls, sv.Stats().TornDoorbells}
	}
	// whole reports whether the session is back to rest, and how it looks.
	whole := func() (bool, string) {
		inflight := c.refs.Load()
		c.bulk.mu.Lock()
		nfree, used := c.bulk.nfree, 0
		for _, u := range c.bulk.used {
			if u {
				used++
			}
		}
		c.bulk.mu.Unlock()
		parked := c.parked.Load()
		return freeSlots(c) == c.Slots() && nfree == len(c.bulk.used) && used == 0 && inflight == 0 && parked == 0,
			fmt.Sprintf("free slots %d/%d, free pages %d/%d (%d marked used), inflight %d, parked %d",
				freeSlots(c), c.Slots(), nfree, len(c.bulk.used), used, inflight, parked)
	}

	for _, k := range kinds {
		for o := ok; o <= badSink; o++ {
			r, check, applies := input(k.shape, o)
			if !applies {
				continue
			}
			t.Run(k.name+"/"+outcomes[o], func(t *testing.T) {
				var release func()
				if o == exhausted {
					// An async spill parked in its handler holds the page.
					f, err := c.CallAsync(procHold, spill)
					if err != nil {
						t.Fatalf("holding the bulk page: %v", err)
					}
					release = func() {
						gate <- struct{}{}
						if _, err := f.Wait(); err != nil {
							t.Errorf("page holder: %v", err)
						}
					}
				}
				before := snapshot()
				out, err := k.run(r)
				if release != nil {
					release()
				}
				if cerr := checkErr(k.mode, o, err); cerr != nil {
					t.Error(cerr)
				} else if check != nil && k.mode != oneWayCall && k.mode != batchOneWay {
					if cerr := check(out); cerr != nil {
						t.Error(cerr)
					}
				}
				want := expect(k.shape, k.mode, o)
				for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
					w, state := whole()
					got := snapshot().sub(before)
					if w && got == want {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("session not whole: %s\nmoved %+v\nwant  %+v", state, got, want)
					}
				}
			})
		}
	}
}
