package lrpc

import (
	"context"
	"errors"
)

// This file holds the platform-independent surface of the shared-memory
// transport plane: option and statistics types, the fault hook, the
// sentinel for platforms without the plane, and the client's call
// surface. Every call entry is sugar over one of two drivers, call and
// callAsync, which take a shmReq through the one slot lifecycle (DESIGN
// §5.11). The working implementation is shm.go and shm_async.go (linux);
// everywhere else shm_stub.go supplies stubs that fail with
// ErrShmUnsupported — the two drivers, not the entries — so callers and
// TransparentBinding's three-way dispatch compile unchanged.

// ErrShmUnsupported reports that the shared-memory transport is not
// available on this platform (it requires mmap'd segments, SCM_RIGHTS
// fd passing, and shared futexes — linux only).
var ErrShmUnsupported = errors.New("lrpc: shared-memory transport unsupported on this platform")

// ShmDialOptions tunes a client's side of a shared-memory session.
type ShmDialOptions struct {
	// Slots is the number of shared A-stack slots requested — the
	// session's maximum concurrent calls (further callers wait for a
	// free slot). 0 selects 8; the server clamps to its MaxSlots.
	Slots int
	// SlotSize is the requested per-slot payload capacity in bytes: the
	// size of each shared A-stack. Arguments and in-band results must
	// fit (larger arguments spill into the bulk region when one was
	// granted). 0 selects DefaultAStackSize. A request above the
	// server's MaxSlotSize is rejected at the handshake with ErrTooLarge
	// — never silently clamped.
	SlotSize int
	// BulkBytes is the requested size of the segment's bulk region: the
	// page pool behind CallBulk payloads and oversized-argument spills.
	// 0 selects MaxOOBSize; negative disables the bulk plane for this
	// session. The server grants min(requested, MaxBulkBytes), rounded
	// up to whole 64 KiB pages — read the outcome from BulkBytes().
	BulkBytes int64
	// Spin bounds the yielding reply-polling iterations (each one
	// check and a sched_yield) before a caller parks on its slot's
	// signal channel. On a multi-CPU host they follow a fixed phase of
	// plain loads that no option sets (DESIGN §5.11). 0 selects 64.
	Spin int
	// Tracer receives the client side's uncommon-case events
	// (TraceShmBind, TraceShmPeerCrash). Optional.
	Tracer Tracer
	// Faults, when non-nil, is consulted once per synchronous call (Call,
	// CallAppend, CallContext, CallChain*, CallBulk) for injected
	// shared-memory faults (internal/faultinject wires its schedule in
	// here). Test hook; nil in production.
	Faults func() ShmFault
	// Tenant, when non-empty, is the client domain's tenant identity,
	// carried in the bind request for the server's ShmServeOptions.Admit
	// hook (broker.go). Older servers ignore the trailing field.
	Tenant string
}

func (o *ShmDialOptions) fill() {
	if o.Slots <= 0 {
		o.Slots = 8
	}
	if o.SlotSize <= 0 {
		o.SlotSize = DefaultAStackSize
	}
	switch {
	case o.BulkBytes == 0:
		o.BulkBytes = MaxOOBSize
	case o.BulkBytes < 0:
		o.BulkBytes = 0
	}
	if o.Spin <= 0 {
		o.Spin = 64
	}
}

// ShmServeOptions tunes the server side of the shared-memory plane.
type ShmServeOptions struct {
	// MaxSlots caps the per-session slot count a client may request.
	// 0 selects 256.
	MaxSlots int
	// MaxSlotSize caps the per-slot payload bytes a client may request.
	// A request above the cap is rejected at the handshake (the client
	// sees ErrTooLarge), never clamped. 0 selects 1 MiB.
	MaxSlotSize int
	// MaxBulkBytes caps the per-session bulk region a client may be
	// granted; requests above it are clamped (the grant is negotiated,
	// so no data is at stake). 0 selects 256 MiB; negative disables the
	// bulk plane entirely.
	MaxBulkBytes int64
	// Workers is the number of dispatcher goroutines per session — the
	// shm analog of the paper's "as many threads as A-stacks" sizing,
	// bounded because handlers run on the worker. 0 selects 2.
	Workers int
	// Spin bounds a worker's yielding doorbell-polling iterations (each
	// one pop and a sched_yield) before it parks on the shared futex. On
	// a multi-CPU host they follow a fixed phase of plain loads that no
	// option sets (DESIGN §5.11). 0 selects 64.
	Spin int
	// Admit, when non-nil, decides at bind time whether a tenant may
	// import an interface over this plane: it receives the tenant
	// identity from the bind request ("" for clients that sent none)
	// and the interface name, and a non-nil return rejects the bind
	// with the error's text and sentinel code, so a wrapped sentinel —
	// ErrNotAdmitted, ErrTenantSuspended — survives to the client's
	// errors.Is. This is
	// the shm half of the broker plane's admission story: same-machine
	// tenants are vetted once at bind time and then run the fast path,
	// while per-call quota enforcement stays on the brokered TCP plane.
	Admit func(tenant, iface string) error
}

func (o *ShmServeOptions) fill() {
	if o.MaxSlots <= 0 {
		o.MaxSlots = 256
	}
	if o.MaxSlotSize <= 0 {
		o.MaxSlotSize = 1 << 20
	}
	switch {
	case o.MaxBulkBytes == 0:
		o.MaxBulkBytes = 256 << 20
	case o.MaxBulkBytes < 0:
		o.MaxBulkBytes = 0
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Spin <= 0 {
		o.Spin = 64
	}
}

// ShmServerStats is a point-in-time snapshot of the server side of the
// shared-memory plane, aggregated across sessions.
//
// Every dispatch counts in Calls; only some push a reply-ring entry and
// count in ReplyHints. Async, one-way and batch completions always do. A
// synchronous caller takes its reply from the slot's state word and is
// hinted only once it has left its spin window (DESIGN §5.11), so
// Calls − ReplyHints is the number of replies that cost no ring traffic.
type ShmServerStats struct {
	Sessions          uint64 // sessions ever established
	ActiveSessions    int64  // sessions currently mapped
	SegmentsReclaimed uint64 // segments unmapped after session end
	SegmentBytes      int64  // bytes currently mapped across sessions
	Calls             uint64 // dispatches completed (ok or error reply)
	TornDoorbells     uint64 // doorbells discarded as torn/duplicated
	ReplyHints        uint64 // reply-ring hints actually pushed (see above)
	PeerCrashes       uint64 // sessions ended by peer death
	CleanDetaches     uint64 // sessions ended by client Close
}

// ShmClientStats is a point-in-time snapshot of one client session.
type ShmClientStats struct {
	Calls       uint64 // synchronous calls attempted
	Chains      uint64 // chain submissions (sync and async)
	Failures    uint64 // calls resolved with an error
	Timeouts    uint64 // calls abandoned at their deadline
	SpinReplies uint64 // replies consumed within the spin window
	ParkReplies uint64 // replies that required parking
	PeerCrashed bool   // the server process died under the session

	// Async plane (shm_async.go).
	AsyncCalls   uint64 // CallAsync submissions (incl. continuations)
	OneWays      uint64 // one-way submissions
	OneWayDrops  uint64 // one-way executions whose error was discarded
	Batches      uint64 // Batch flushes (single-doorbell submissions)
	BatchedCalls uint64 // entries submitted through batches
}

// ShmFault carries injected shared-memory faults for one call, consulted
// through ShmDialOptions.Faults. The zero value injects nothing.
type ShmFault struct {
	// TornDoorbell rings one extra doorbell carrying a garbage slot
	// index before the real one, exercising the server's torn-write
	// rejection. The real call still completes.
	TornDoorbell bool
}

// --- the client call surface ---

// shmReq is one shm submission: a procedure and its arguments, a chain
// (args then hold its encoded descriptor, which the server executes
// whole), or a call carrying the bulk payload named by h.
type shmReq struct {
	proc  int
	args  []byte
	chain bool
	h     *BulkHandle
}

// Call invokes proc with args through the shared segment.
func (c *ShmClient) Call(proc int, args []byte) ([]byte, error) {
	return c.call(context.Background(), shmReq{proc: proc, args: args}, nil)
}

// CallAppend is Call appending the results to dst.
func (c *ShmClient) CallAppend(proc int, args, dst []byte) ([]byte, error) {
	return c.call(context.Background(), shmReq{proc: proc, args: args}, dst)
}

// CallContext invokes proc under ctx. At the deadline the caller
// abandons the call (ErrCallTimeout) and its slot is reclaimed once
// the server's reply eventually lands — §5.3's abandonment protocol.
func (c *ShmClient) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	return c.call(ctx, shmReq{proc: proc, args: args}, nil)
}

// CallChain submits the whole dependent pipeline as one slot post and
// one doorbell: the server's chain executor (chain.go) runs every stage
// in its own domain, and the single reply carries only the final
// stage's results. The encoded descriptor must fit the slot — chains
// carry control flow, not payload; oversized descriptors (or final
// results past the slot) are the plane's usual size exception.
func (c *ShmClient) CallChain(ch *Chain) ([]byte, error) {
	return c.CallChainContext(context.Background(), ch)
}

// CallChainContext is CallChain under ctx; at the deadline the caller
// abandons the slot exactly like a plain call (the orphan watcher
// reclaims it when the chain's reply eventually lands). A mid-chain
// failure decodes to a *ChainError with the failing stage and the
// server's executed-through vouch intact.
func (c *ShmClient) CallChainContext(ctx context.Context, ch *Chain) ([]byte, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	return c.call(ctx, shmReq{args: appendChain(nil, ch.stages), chain: true}, nil)
}

// CallBulk invokes proc with a bulk payload carried through the
// segment's bulk region (bulk.go; nil h degrades to Call): the payload
// is written once into client-allocated pages — or, for BulkOut, pages
// are reserved for the handler to fill — and the handler touches those
// pages in place. Arguments ride in the slot and must fit it.
func (c *ShmClient) CallBulk(proc int, args []byte, h *BulkHandle) ([]byte, error) {
	if h == nil {
		return c.Call(proc, args)
	}
	return c.call(context.Background(), shmReq{proc: proc, args: args, h: h}, nil)
}

// CallAsync submits proc through the shared segment without waiting:
// the argument copy, slot post, and doorbell happen here; the reply is
// reaped by the demultiplexer (or a spinning sibling draining the
// ring) and delivered through the returned future. The args slice may
// be reused as soon as CallAsync returns — the single copy into the
// shared A-stack is synchronous.
func (c *ShmClient) CallAsync(proc int, args []byte) (*Future, error) {
	return c.callAsync(shmReq{proc: proc, args: args})
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
	return c.callAsync(shmReq{args: appendChain(nil, ch.stages), chain: true})
}
