//go:build linux

package lrpc

// The shared-memory half of the async plane (async.go): submissions
// take, stage and head their slot exactly like synchronous calls
// (prepare, shm.go), but completion is reaped from the reply ring
// instead of by a caller parked on the slot. Batching gives this plane
// its io_uring shape: stage() pushes one c2s ring entry per submission
// WITHOUT bumping the doorbell's futex word, and Flush publishes the
// whole batch with a single Bump — N calls, at most one wake syscall.
//
// Who reaps depends on who is sure to wait. CallAsync and CallOneWay
// submissions register with the demultiplexer (parked) and kick it
// awake, since nobody need ever wait on them. A batch entry does not:
// its waiter (Batch.Wait, or a Wait on the future) drains the reply ring
// on its own goroutine (drive, in the same wait window a synchronous
// caller spins in), retiring its own entry and its siblings as their
// hints arrive, so the demultiplexer stays asleep off the futex and the
// server's per-reply Bump costs no wake syscall. Only an entry nobody
// will drive — its window closed, Done polling, Reset letting it go, a
// caller out of slots — is handed over to the demultiplexer (handOver).

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
	// kindBatch is a batch entry's future, reaped by whoever drains the
	// reply ring and not registered with the demultiplexer until it is
	// handed over (and becomes kindAsync).
	kindBatch = uint32(3)
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
// reply hint knows how to retire it. A future with a lazy batch plane is
// posted as kindBatch, and told its slot.
func (c *ShmClient) post(id uint32, fut *Future, ring bool) error {
	kind := kindOneWay
	if fut != nil {
		kind = kindAsync
		if fut.lazy != nil {
			kind, fut.slot = kindBatch, id
		}
		c.futs[id].Store(fut)
	}
	c.kinds[id].Store(kind)
	shmU32(c.seg, c.lay.slotBase(id)+slotOffState).Store(slotPosted)
	switch {
	case kind != kindBatch:
		// Completions arrive through the demultiplexer: register as
		// parked so reply doorbells take the futex path, and kick it.
		c.parked.Add(1)
		c.kickDemux()
	case c.freeWaiters.Load() > 0:
		// A caller out of slots hands lazy entries over before it sleeps
		// (acquire); one that looked before this entry's kind was stored
		// is seen here instead.
		c.handOver(fut, id)
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
	kind := c.kinds[id].Load()
	if kind == kindAsync || kind == kindBatch {
		if c.futs[id].Swap(nil) == nil {
			return errSweptPosted
		}
		kind = c.kinds[id].Swap(kindSync)
	} else if !c.kinds[id].CompareAndSwap(kindOneWay, kindSync) {
		return errSweptPosted
	}
	if kind != kindBatch {
		c.parked.Add(-1)
	}
	c.recycle(id)
	c.failures.Add(1)
	return c.deadErr(false)
}

// retire is the one claim-and-retire step for an asynchronous, batch or
// one-way slot, run for a drained reply hint (dead=false; on the
// demultiplexer, a spinning synchronous caller or a batch waiter) and by
// the dead sweep in reap (dead=true). The claim — the future's Swap, or
// the one-way kind's CompareAndSwap — keeps it exactly-once against
// duplicate or torn hints, the sweep, and an unposting submitter. The
// kind swapped out with the claim says whether the slot was registered
// with the demultiplexer: a batch entry not handed over never was. A
// reply that landed is delivered for real (the result copied out to the
// future, or a one-way's error counted as dropped) and the slot
// recycled; a submission the peer died under resolves with the
// posted-call exception and its slot stays out.
func (c *ShmClient) retire(id uint32, dead bool) {
	landed := shmU32(c.seg, c.lay.slotBase(id)+slotOffState).Load() >= slotDoneOK
	if !landed && !dead {
		return // torn or early hint; the real completion follows
	}
	f := c.futs[id].Swap(nil)
	registered := true
	switch {
	case f != nil:
		registered = c.kinds[id].Swap(kindSync) != kindBatch
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
	if registered {
		c.parked.Add(-1)
	}
	if f != nil {
		f.complete(out, err)
	}
	c.end()
}

// kickDemux rouses the demultiplexer out of its process-local sleep.
func (c *ShmClient) kickDemux() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// handOver registers batch entry f, posted on slot, with the
// demultiplexer, for a waiter that will not drive it: from then on it is
// reaped like a CallAsync submission. It does nothing once f's slot has
// moved on (retired, or handed over already); if the slot was retired
// and taken by another batch entry in between, that entry is handed over
// instead, which costs only a wake.
func (c *ShmClient) handOver(f *Future, slot uint32) {
	if c.futs[slot].Load() == f && c.lend(slot) {
		c.kickDemux()
	}
}

// handOverAll hands every batch entry in flight to the demultiplexer:
// the move of a caller about to sleep for a slot that only a drain can
// free (acquire).
func (c *ShmClient) handOverAll() {
	lent := false
	for id := range c.kinds {
		if c.kinds[id].Load() == kindBatch && c.lend(uint32(id)) {
			lent = true
		}
	}
	if lent {
		c.kickDemux()
	}
}

// lend turns slot id from kindBatch into a registered kindAsync slot,
// reporting whether it did. The count goes up first, so whichever of
// lend and retire takes the kind last settles it: retire swaps out
// kindAsync and takes the count down, or lend's CompareAndSwap fails on
// a retired slot and lend takes it down itself.
func (c *ShmClient) lend(id uint32) bool {
	c.parked.Add(1)
	if c.kinds[id].CompareAndSwap(kindBatch, kindAsync) {
		return true
	}
	c.parked.Add(-1)
	return false
}

// shmBatch is the shared-memory batch backend: stage pushes ring
// entries silently, flush bumps once, and its entries are reaped lazily
// (lazyBackend): by a waiter, on its own goroutine.
type shmBatch struct {
	c      *ShmClient
	staged int // entries pushed since the last Bump
}

func (sb *shmBatch) stage(e *batchEnt) error {
	c := sb.c
	if e.fut != nil {
		e.fut.abandons = &c.timeouts
		e.fut.lazy = sb
	}
	r := shmReq{proc: e.proc, args: e.args}
	err := c.submit(r, e.fut, false, false)
	if err == errWouldBlock {
		// Every slot is checked out and some belong to this batch,
		// still unpublished: the server can only recycle slots it has
		// seen, so ring now, then wait for one to come back. Its own
		// entries are lazy, and nobody drains for them while it sleeps:
		// acquire hands them over first.
		sb.flushStaged()
		err = c.submit(r, e.fut, true, false)
	}
	if err != nil {
		return err
	}
	if e.fut != nil {
		e.slot = e.fut.slot
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

// drive runs batch future f, posted on slot, on the goroutine of a
// waiter about to block on it: the shm wait window (window), whose every
// poll drains the reply ring, retiring f and any sibling whose hint has
// arrived. If the window closes with f still pending, f is handed over
// and the waiter parks. The window holds its own reference on the
// mapping: f's is released by whoever retires f, possibly mid-drain, and
// the dead sweep unmaps once the last one goes. A closing session gets
// no window at all; the sweep resolves f.
func (sb *shmBatch) drive(f *Future, slot uint32) {
	c := sb.c
	if c.begin() == nil {
		c.window(func() bool {
			c.drainReplies()
			return f.state.Load() != futPending
		})
		c.end()
	}
	if f.state.Load() == futPending {
		c.handOver(f, slot)
	}
}

func (sb *shmBatch) handOver(f *Future, slot uint32) { sb.c.handOver(f, slot) }

func (sb *shmBatch) flushStaged() {
	if sb.staged > 0 {
		sb.staged = 0
		sb.c.c2s.Bump()
	}
}
