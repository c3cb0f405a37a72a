//go:build linux

package lrpc

// The shared-memory half of the async plane (async.go): submissions
// post into free slots exactly like synchronous calls, but completion
// is reaped from the reply ring — by the demultiplexer or a spinning
// sibling — instead of by a caller parked on the slot. Batching gives
// this plane its io_uring shape: stage() pushes one c2s ring entry per
// submission WITHOUT bumping the doorbell's futex word, and Flush
// publishes the whole batch with a single Bump — N calls, at most one
// wake syscall. The reply side is symmetric for free: the server's
// per-reply Bump elides the futex wake while the client demultiplexer
// is awake draining (waiters == 0), so a bulk drain costs sub-one wake
// per completion with no server-side change at all.

import (
	"fmt"
	"sync/atomic"

	"lrpc/internal/shmring"
)

// Per-slot submission kinds (ShmClient.kinds). The zero value is
// kindSync so synchronous calls never touch the array.
const (
	kindSync   = uint32(0) // a synchronous caller owns the slot's reply
	kindAsync  = uint32(1) // a Future awaits the reply (futs[id])
	kindOneWay = uint32(2) // fire-and-forget: the reply only retires the slot
)

// CallAsync submits proc through the shared segment without waiting:
// the argument copy, slot post, and doorbell happen here; the reply is
// reaped by the demultiplexer (or a spinning sibling draining the
// ring) and delivered through the returned future. The args slice may
// be reused as soon as CallAsync returns — the single copy into the
// shared A-stack is synchronous.
func (c *ShmClient) CallAsync(proc int, args []byte) (*Future, error) {
	c.asyncCalls.Add(1)
	f := newFuture()
	f.abandons = &c.timeouts
	if err := c.submitAsync(proc, args, f, true, true); err != nil {
		f.complete(nil, err)
		f.Wait()
		return nil, err
	}
	return f, nil
}

// CallChainAsync submits a whole dependent pipeline through the shared
// segment without waiting: one slot, one doorbell, and a future that
// resolves with the final stage's results — or a *ChainError carrying
// the failing stage and the server's executed-through vouch — when the
// chain executor rings back. The chain must not be mutated until then.
func (c *ShmClient) CallChainAsync(ch *Chain) (*Future, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	desc := appendChain(nil, ch.stages)
	c.asyncCalls.Add(1)
	c.chains.Add(1)
	f := newFuture()
	f.abandons = &c.timeouts
	if err := c.submitChain(desc, f); err != nil {
		f.complete(nil, err)
		f.Wait()
		return nil, err
	}
	return f, nil
}

// submitChain is submitAsync for a chain descriptor: the descriptor
// must fit the slot (chains carry control flow, not payload), the slot
// posts under bulkDirChain, and the reply retires like any kindAsync
// completion — finishAsync decodes the chain error body by its code.
func (c *ShmClient) submitChain(desc []byte, fut *Future) error {
	if len(desc) > c.lay.slotSize {
		c.failures.Add(1)
		return fmt.Errorf("%w: %d-byte chain descriptor exceeds the %d-byte slot",
			ErrTooLarge, len(desc), c.lay.slotSize)
	}
	if err := c.begin(); err != nil {
		c.failures.Add(1)
		return err
	}
	var id uint32
	select {
	case id = <-c.free:
	default:
		select {
		case id = <-c.free:
		case <-c.dead:
			c.failures.Add(1)
			c.end()
			return c.deadErr(false)
		}
	}
	switch err := c.postChainSlot(id, desc, fut); err {
	case nil, errSweptPosted:
		// Either the completion path or the dead sweep owns the future
		// (and the inflight reference) now.
		return nil
	default:
		c.end()
		return err
	}
}

// postChainSlot is postSlot with the descriptor staged in-slot and the
// direction word routing the server onto the chain dispatch path.
func (c *ShmClient) postChainSlot(id uint32, desc []byte, fut *Future) error {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	select {
	case <-c.sigs[id]: // drain a stale wakeup from a prior occupant
	default:
	}
	payload := c.seg[base+slotPayloadOff : base+slotPayloadOff+c.lay.slotSize]
	copy(payload, desc)
	shmU32(c.seg, base+slotOffArgLen).Store(uint32(len(desc)))
	shmU32(c.seg, base+slotOffBulkDir).Store(uint32(bulkDirChain))
	shmU32(c.seg, base+slotOffProc).Store(0)
	shmU32(c.seg, base+slotOffResLen).Store(0)
	shmU32(c.seg, base+slotOffCode).Store(0)
	shmU64(c.seg, base+slotOffCallID).Store(c.callID.Add(1))
	c.futs[id].Store(fut)
	c.kinds[id].Store(kindAsync)
	state.Store(slotPosted)
	c.parked.Add(1)
	select {
	case c.kick <- struct{}{}:
	default:
	}
	for !c.c2s.Push(uint64(id)) {
		select {
		case <-c.dead:
			return c.unpostSlot(id, state)
		default:
			shmring.Yield()
		}
	}
	select {
	case <-c.dead:
		return c.unpostSlot(id, state)
	default:
	}
	c.c2s.Bump()
	return nil
}

// CallOneWay submits proc fire-and-forget: it returns once the
// submission is posted and the doorbell rung. The handler runs at most
// once; its error, if any, is dropped on this side (counted in
// OneWayDrops) because nobody holds a reply slot for it — the reply
// ring entry's only job is retiring the slot. See DESIGN §5.13.
func (c *ShmClient) CallOneWay(proc int, args []byte) error {
	c.oneWays.Add(1)
	return c.submitAsync(proc, args, nil, true, true)
}

// NewBatch builds a submission batch over the shared segment: each
// staged entry pushes a doorbell ring entry without bumping, and Flush
// publishes them all with a single Bump — N submissions, at most one
// futex wake (the io_uring SQ shape over the existing Vyukov ring).
func (c *ShmClient) NewBatch() *Batch {
	return &Batch{be: &shmBatch{c: c}, stats: &c.batches}
}

// submitAsync posts one submission (fut nil means one-way) into a free
// slot. block=false returns errWouldBlock instead of waiting for a
// slot; ring=false leaves the doorbell un-bumped for a batch flush.
func (c *ShmClient) submitAsync(proc int, args []byte, fut *Future, block, ring bool) error {
	if err := c.checkArgSize(len(args)); err != nil {
		c.failures.Add(1)
		return err
	}
	if err := c.begin(); err != nil {
		c.failures.Add(1)
		return err
	}
	var id uint32
	select {
	case id = <-c.free:
	default:
		if !block {
			c.end()
			return errWouldBlock
		}
		select {
		case id = <-c.free:
		case <-c.dead:
			c.failures.Add(1)
			c.end()
			return c.deadErr(false)
		}
	}
	switch err := c.postSlot(id, proc, args, fut, ring); err {
	case nil:
		// The inflight reference transfers to the completion path
		// (finishAsync / finishOneWay / the dead sweep).
		return nil
	case errSweptPosted:
		// The dead sweep claimed the submission and already resolved the
		// future (and released the reference): success from the caller's
		// point of view — the future carries the outcome.
		return nil
	default:
		c.end()
		return err
	}
}

// errSweptPosted is postSlot's internal "the dead sweep owns it now".
var errSweptPosted = fmt.Errorf("lrpc: internal: swept while posting")

// postSlot writes one submission into slot id and pushes its doorbell
// ring entry; ring=true also bumps. The slot's kind (and future) are
// registered before the post so whoever drains the reply hint knows
// how to retire it.
func (c *ShmClient) postSlot(id uint32, proc int, args []byte, fut *Future, ring bool) error {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	select {
	case <-c.sigs[id]: // drain a stale wakeup from a prior occupant
	default:
	}
	if err := c.stageArgs(id, base, args); err != nil {
		// Transient bulk-page exhaustion before anything was registered:
		// the slot goes straight back to the free list.
		c.recycle(id, state)
		c.failures.Add(1)
		return err
	}
	shmU32(c.seg, base+slotOffProc).Store(uint32(proc))
	shmU32(c.seg, base+slotOffResLen).Store(0)
	shmU32(c.seg, base+slotOffCode).Store(0)
	shmU64(c.seg, base+slotOffCallID).Store(c.callID.Add(1))
	if fut != nil {
		c.futs[id].Store(fut)
		c.kinds[id].Store(kindAsync)
	} else {
		c.kinds[id].Store(kindOneWay)
	}
	state.Store(slotPosted)
	// Completions arrive through the demultiplexer: register as parked
	// so reply doorbells take the futex path, and kick it awake.
	c.parked.Add(1)
	select {
	case c.kick <- struct{}{}:
	default:
	}
	for !c.c2s.Push(uint64(id)) {
		select {
		case <-c.dead:
			return c.unpostSlot(id, state)
		default:
			shmring.Yield()
		}
	}
	// Re-check after a successful push: the dead sweep only resolves
	// submissions it can see, and it may have scanned this slot before
	// the registration above became visible — in which case nobody else
	// will ever retire it. dead is closed before the sweep starts, so
	// one of the two sides always observes the other.
	select {
	case <-c.dead:
		return c.unpostSlot(id, state)
	default:
	}
	if ring {
		c.c2s.Bump()
	}
	return nil
}

// unpostSlot unwinds a submission the server will never serve. The
// claim protocol mirrors completion: if the dead sweep got there first
// it already resolved the future and released the reference, and the
// caller must treat the submission as delivered (errSweptPosted).
func (c *ShmClient) unpostSlot(id uint32, state *atomic.Uint32) error {
	if c.kinds[id].Load() == kindAsync {
		if c.futs[id].Swap(nil) == nil {
			return errSweptPosted
		}
		c.kinds[id].Store(kindSync)
	} else if !c.kinds[id].CompareAndSwap(kindOneWay, kindSync) {
		return errSweptPosted
	}
	c.parked.Add(-1)
	c.recycle(id, state)
	c.failures.Add(1)
	return c.deadErr(false)
}

// finishAsync retires one asynchronous slot: claim the future, copy the
// result out, recycle the slot, complete. Runs on whichever goroutine
// drained the reply hint — the demultiplexer or a spinning synchronous
// caller.
func (c *ShmClient) finishAsync(id uint32) {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	if state.Load() < slotDoneOK {
		return // torn or early hint; the real completion follows
	}
	f := c.futs[id].Swap(nil)
	if f == nil {
		return // duplicate hint, or the dead sweep got there first
	}
	code := shmU32(c.seg, base+slotOffCode).Load()
	resLen := int(shmU32(c.seg, base+slotOffResLen).Load())
	if resLen > c.lay.slotSize {
		resLen = c.lay.slotSize
	}
	payload := c.seg[base+slotPayloadOff : base+slotPayloadOff+c.lay.slotSize]
	st := state.Load()
	var out []byte
	var err error
	if st == slotDoneOK {
		if resLen > 0 {
			out = append([]byte(nil), payload[:resLen]...) // the single result copy out
		}
	} else {
		err = shmDecodeErr(code, payload[:resLen])
		c.failures.Add(1)
	}
	c.kinds[id].Store(kindSync)
	c.recycle(id, state)
	c.parked.Add(-1)
	f.complete(out, err)
	c.end()
}

// finishOneWay retires one fire-and-forget slot: count a dropped error
// if the handler failed, recycle, release.
func (c *ShmClient) finishOneWay(id uint32) {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	if state.Load() < slotDoneOK {
		return
	}
	if !c.kinds[id].CompareAndSwap(kindOneWay, kindSync) {
		return
	}
	if state.Load() == slotDoneErr {
		c.oneWayDrops.Add(1)
		if t := c.opts.Tracer; t != nil {
			code := shmU32(c.seg, base+slotOffCode).Load()
			resLen := int(shmU32(c.seg, base+slotOffResLen).Load())
			if resLen > c.lay.slotSize {
				resLen = c.lay.slotSize
			}
			payload := c.seg[base+slotPayloadOff : base+slotPayloadOff+c.lay.slotSize]
			t.TraceEvent(TraceEvent{Kind: TraceOneWayDrop, Iface: c.name,
				Err: shmDecodeErr(code, payload[:resLen])})
		}
	}
	c.recycle(id, state)
	c.parked.Add(-1)
	c.end()
}

// sweepAsync resolves every outstanding async and one-way slot after
// the session dies: submissions whose reply landed deliver it, the rest
// resolve with the peer-death exception. Runs once from reap(), after
// the demultiplexer exits but possibly concurrently with straggling
// spinners and posters — the Swap/CAS claims keep retirement
// exactly-once.
func (c *ShmClient) sweepAsync() {
	for id := 0; id < c.lay.nslots; id++ {
		c.sweepSlot(uint32(id))
	}
}

func (c *ShmClient) sweepSlot(id uint32) {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	if state.Load() >= slotDoneOK {
		// The reply landed before the peer died: deliver it for real.
		switch c.kinds[id].Load() {
		case kindAsync:
			c.finishAsync(id)
		case kindOneWay:
			c.finishOneWay(id)
		}
		return
	}
	if f := c.futs[id].Swap(nil); f != nil {
		c.kinds[id].Store(kindSync)
		c.parked.Add(-1)
		c.failures.Add(1)
		f.complete(nil, c.deadErr(true))
		c.end()
		return
	}
	if c.kinds[id].CompareAndSwap(kindOneWay, kindSync) {
		c.parked.Add(-1)
		c.end()
	}
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
	err := c.submitAsync(e.proc, e.args, e.fut, false, false)
	if err == errWouldBlock {
		// Every slot is checked out and some belong to this batch,
		// still unpublished: the server can only recycle slots it has
		// seen, so ring now, then wait for one to come back.
		sb.flushStaged()
		err = c.submitAsync(e.proc, e.args, e.fut, true, false)
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

func (sb *shmBatch) flush() error {
	sb.flushStaged()
	return nil
}

func (sb *shmBatch) flushStaged() {
	if sb.staged > 0 {
		sb.staged = 0
		sb.c.c2s.Bump()
	}
}
