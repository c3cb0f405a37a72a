//go:build linux

package lrpc

// The shared-memory half of the async plane (async.go): submissions
// take, stage and head their slot exactly like synchronous calls
// (prepare, shm.go), but completion is reaped from the reply ring — by
// the demultiplexer or a spinning sibling — instead of by a caller
// parked on the slot. Batching gives this plane its io_uring shape:
// stage() pushes one c2s ring entry per submission WITHOUT bumping the
// doorbell's futex word, and Flush publishes the whole batch with a
// single Bump — N calls, at most one wake syscall. The reply side is
// symmetric for free: the server's per-reply Bump elides the futex wake
// while the client demultiplexer is awake draining (waiters == 0), so a
// bulk drain costs sub-one wake per completion with no server-side
// change at all.

import (
	"context"
	"fmt"
)

// Per-slot submission kinds (ShmClient.kinds). The zero value is
// kindSync so synchronous calls never touch the array.
const (
	kindSync   = uint32(0) // a synchronous caller owns the slot's reply
	kindAsync  = uint32(1) // a Future awaits the reply (futs[id])
	kindOneWay = uint32(2) // fire-and-forget: the reply only retires the slot
)

// callAsync is the asynchronous driver under CallAsync and
// CallChainAsync (shm_common.go): submit, and hand back the future the
// reply resolves. A failed submission's future is recycled here.
func (c *ShmClient) callAsync(r shmReq) (*Future, error) {
	c.asyncCalls.Add(1)
	if r.chain {
		c.chains.Add(1)
	}
	f := newFuture()
	f.abandons = &c.timeouts
	if err := c.submit(r, f, true, true); err != nil {
		f.complete(nil, err)
		f.Wait()
		return nil, err
	}
	return f, nil
}

// CallOneWay submits proc fire-and-forget: it returns once the
// submission is posted and the doorbell rung. The handler runs at most
// once; its error, if any, is dropped on this side (counted in
// OneWayDrops) because nobody holds a reply slot for it — the reply
// ring entry's only job is retiring the slot. See DESIGN §5.13.
func (c *ShmClient) CallOneWay(proc int, args []byte) error {
	c.oneWays.Add(1)
	return c.submit(shmReq{proc: proc, args: args}, nil, true, true)
}

// NewBatch builds a submission batch over the shared segment: each
// staged entry pushes a doorbell ring entry without bumping, and Flush
// publishes them all with a single Bump — N submissions, at most one
// futex wake (the io_uring SQ shape over the existing Vyukov ring).
func (c *ShmClient) NewBatch() *Batch {
	return &Batch{be: &shmBatch{c: c}, stats: &c.batches}
}

// submit prepares and posts one asynchronous submission (fut nil means
// one-way). block=false returns errWouldBlock instead of waiting for a
// slot; ring=false leaves the doorbell un-bumped for a batch flush.
func (c *ShmClient) submit(r shmReq, fut *Future, block, ring bool) error {
	id, _, err := c.prepare(context.Background(), r, block)
	if err != nil {
		return err
	}
	switch err := c.post(id, fut, ring); err {
	case nil, errSweptPosted:
		// The reference belongs to retire now. If the dead sweep
		// already claimed the submission, the future carries the outcome:
		// success from the caller's point of view.
		return nil
	default:
		c.end()
		return err
	}
}

// errSweptPosted is post's internal "the dead sweep owns it now".
var errSweptPosted = fmt.Errorf("lrpc: internal: swept while posting")

// post publishes a prepared slot for reaping from the reply ring and
// pushes its doorbell ring entry; ring=true also bumps. The slot's kind
// (and future) are registered before the post so whoever drains the
// reply hint knows how to retire it.
func (c *ShmClient) post(id uint32, fut *Future, ring bool) error {
	if fut != nil {
		c.futs[id].Store(fut)
		c.kinds[id].Store(kindAsync)
	} else {
		c.kinds[id].Store(kindOneWay)
	}
	shmU32(c.seg, c.lay.slotBase(id)+slotOffState).Store(slotPosted)
	// Completions arrive through the demultiplexer: register as parked
	// so reply doorbells take the futex path, and kick it awake.
	c.parked.Add(1)
	select {
	case c.kick <- struct{}{}:
	default:
	}
	// Re-check after a successful push: the dead sweep only resolves
	// submissions it can see, and it may have scanned this slot before
	// the registration above became visible — in which case nobody else
	// will ever retire it. dead is closed before the sweep starts, so
	// one of the two sides always observes the other.
	if c.push(uint64(id)) {
		select {
		case <-c.dead:
		default:
			if ring {
				c.c2s.Bump()
			}
			return nil
		}
	}
	return c.unpostSlot(id)
}

// unpostSlot unwinds a submission the server will never serve. The
// claim protocol mirrors retire: if the dead sweep got there first it
// already resolved the future and released the reference, and the
// caller must treat the submission as delivered (errSweptPosted).
func (c *ShmClient) unpostSlot(id uint32) error {
	if c.kinds[id].Load() == kindAsync {
		if c.futs[id].Swap(nil) == nil {
			return errSweptPosted
		}
		c.kinds[id].Store(kindSync)
	} else if !c.kinds[id].CompareAndSwap(kindOneWay, kindSync) {
		return errSweptPosted
	}
	c.parked.Add(-1)
	c.recycle(id)
	c.failures.Add(1)
	return c.deadErr(false)
}

// retire is the one claim-and-retire step for an asynchronous or one-way
// slot, run for a drained reply hint (dead=false; on the demultiplexer or
// a spinning synchronous caller) and by the dead sweep in reap
// (dead=true). The claim — the future's Swap, or the one-way kind's
// CompareAndSwap — keeps it exactly-once against duplicate or torn hints,
// the sweep, and an unposting submitter. A reply that landed is delivered
// for real (the result copied out to the future, or a one-way's error
// counted as dropped) and the slot recycled; a submission the peer died
// under resolves with the posted-call exception and its slot stays out.
func (c *ShmClient) retire(id uint32, dead bool) {
	landed := shmU32(c.seg, c.lay.slotBase(id)+slotOffState).Load() >= slotDoneOK
	if !landed && !dead {
		return // torn or early hint; the real completion follows
	}
	f := c.futs[id].Swap(nil)
	switch {
	case f != nil:
		c.kinds[id].Store(kindSync)
	case !c.kinds[id].CompareAndSwap(kindOneWay, kindSync):
		return // a synchronous slot, a duplicate hint, or another claimer won
	}
	var out []byte
	var err error
	if landed {
		body, rerr := c.reply(id)
		switch {
		case rerr == nil:
			if f != nil && len(body) > 0 {
				out = append([]byte(nil), body...) // the single result copy out
			}
		case f != nil:
			err = rerr
		default:
			c.oneWayDrops.Add(1)
			if t := c.opts.Tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceOneWayDrop, Iface: c.name, Err: rerr})
			}
		}
	} else if f != nil {
		// Built here and only here: deadErr formats a fresh error, which
		// a landed completion must not pay for.
		err = c.deadErr(true)
	}
	if err != nil {
		c.failures.Add(1)
	}
	if landed {
		c.recycle(id)
	}
	c.parked.Add(-1)
	if f != nil {
		f.complete(out, err)
	}
	c.end()
}

// shmBatch is the shared-memory batch backend: stage pushes ring
// entries silently, flush bumps once.
type shmBatch struct {
	c      *ShmClient
	staged int // entries pushed since the last Bump
}

func (sb *shmBatch) stage(e *batchEnt) error {
	c := sb.c
	if e.fut != nil {
		e.fut.abandons = &c.timeouts
	}
	r := shmReq{proc: e.proc, args: e.args}
	err := c.submit(r, e.fut, false, false)
	if err == errWouldBlock {
		// Every slot is checked out and some belong to this batch,
		// still unpublished: the server can only recycle slots it has
		// seen, so ring now, then wait for one to come back.
		sb.flushStaged()
		err = c.submit(r, e.fut, true, false)
	}
	if err != nil {
		return err
	}
	sb.staged++
	c.batchedCalls.Add(1)
	if e.oneWay {
		c.oneWays.Add(1)
	} else {
		c.asyncCalls.Add(1)
	}
	return nil
}

func (sb *shmBatch) flush([]batchEnt) error {
	sb.flushStaged()
	return nil
}

func (sb *shmBatch) flushStaged() {
	if sb.staged > 0 {
		sb.staged = 0
		sb.c.c2s.Bump()
	}
}
