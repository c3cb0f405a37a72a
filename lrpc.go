// Package lrpc is a Go implementation of Lightweight Remote Procedure
// Call (Bershad, Anderson, Lazowska, Levy — SOSP 1989): a communication
// facility optimized for calls between protection domains on the same
// machine.
//
// The package offers the paper's programming model — servers export named
// interfaces, clients bind to them and call through unforgeable binding
// objects, arguments travel on pairwise argument stacks with the minimum
// number of copies — with the paper's control-transfer model mapped onto
// the Go runtime: an LRPC executes the server's procedure directly on the
// calling goroutine (the analog of the client's thread crossing into the
// server's domain), while the message-passing baseline in this package
// uses concrete server goroutines and channel rendezvous, the structure of
// conventional RPC systems.
//
// The call transfer path follows the paper's fourth technique, design for
// concurrency: a Binding.Call with in-band arguments takes no locks and
// performs no heap allocations. Binding validation is an atomic load
// against an immutable record, completion accounting is striped across
// cache lines, and argument stacks move through a per-P cache backed by a
// lock-free ring (see astack.go), so aggregate throughput scales with
// processors instead of flattening against a shared lock.
//
// Two planes exist in this repository:
//
//   - this package: wall-clock execution on the Go runtime, for real
//     applications and testing.B benchmarks;
//   - internal/core + internal/kernel + internal/machine: a calibrated
//     simulation of the paper's C-VAX Firefly, which regenerates the
//     paper's tables and figures in simulated microseconds (see
//     cmd/lrpcbench).
//
// Basic use:
//
//	sys := lrpc.NewSystem()
//	sys.Export(&lrpc.Interface{
//	    Name: "Arith",
//	    Procs: []lrpc.Proc{{
//	        Name: "Add",
//	        Handler: func(c *lrpc.Call) {
//	            a := binary.LittleEndian.Uint32(c.Args()[0:4])
//	            b := binary.LittleEndian.Uint32(c.Args()[4:8])
//	            binary.LittleEndian.PutUint32(c.ResultsBuf(4), a+b)
//	        },
//	    }},
//	})
//	bind, _ := sys.Import("Arith")
//	res, _ := bind.Call(0, args)
package lrpc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the package.
var (
	// ErrNotExported reports an import of an interface nobody exports.
	ErrNotExported = errors.New("lrpc: interface not exported")
	// ErrRevoked reports a call through a binding whose server has
	// terminated.
	ErrRevoked = errors.New("lrpc: binding revoked")
	// ErrBadProcedure reports an out-of-range procedure index.
	ErrBadProcedure = errors.New("lrpc: bad procedure index")
	// ErrCallFailed is raised in callers whose server terminated during
	// the call (the call-failed exception of the paper's section 5.3).
	ErrCallFailed = errors.New("lrpc: call failed (server terminated)")
	// ErrTooLarge reports arguments beyond the out-of-band limit.
	ErrTooLarge = errors.New("lrpc: arguments too large")
)

// DefaultAStackSize is the argument-stack size for procedures that do not
// declare one: the Ethernet packet size, following the paper's stub
// generator default (section 5.2).
const DefaultAStackSize = 1500

// DefaultNumAStacks is the default number of simultaneous calls per
// procedure (section 5.2: "The number defaults to five").
const DefaultNumAStacks = 5

// MaxOOBSize bounds a single call's arguments or results.
const MaxOOBSize = 1 << 24

// Handler is a server procedure. It reads its arguments with Call.Args
// (a direct reference into the shared argument stack — copied exactly once,
// by the client stub) and writes results in place via Call.ResultsBuf.
type Handler func(c *Call)

// Proc declares one procedure of an interface.
type Proc struct {
	Name string

	// AStackSize is the argument/result capacity; 0 selects the default.
	AStackSize int
	// NumAStacks is the number of simultaneous calls provisioned at bind
	// time; 0 selects the default. Calls beyond it allocate overflow
	// stacks rather than failing (the "allocate more" policy of section
	// 5.2).
	NumAStacks int
	// ProtectArgs makes the entry stub copy arguments off the shared
	// stack before the handler runs, for procedures whose correctness
	// depends on arguments not changing mid-call (the immutability case
	// of the paper's section 3.5). Leave false for uninterpreted data
	// (e.g. a file server's Write buffer) to skip the copy.
	ProtectArgs bool

	// ShareGroup, when non-empty, pools argument stacks with other
	// procedures of the interface carrying the same tag ("Procedures in
	// the same interface having A-stacks of similar size can share
	// A-stacks, reducing the storage needs", section 3.1). The shared
	// pool is sized to the group's largest AStackSize; the group's total
	// concurrent calls are bounded by its combined stack count.
	ShareGroup string

	Handler Handler
}

// Interface is a named set of procedures.
type Interface struct {
	Name  string
	Procs []Proc
}

// Call is the server procedure's view of one invocation. It is valid only
// for the duration of the handler: the dispatch path recycles Call
// structures across invocations, so handlers must not retain one.
type Call struct {
	args   []byte
	astack []byte
	oob    []byte
	resLen int

	// Bulk plane (bulk.go): the out-of-band payload attached by CallBulk.
	// bulkSegs alias transport-owned memory (the caller's buffer
	// in-process, shared segment pages on shm) and, like args, are valid
	// only for the handler's duration. bulkIn is the valid input bytes;
	// bulkOut the bytes the handler produced; bulkFlat caches Bulk()'s
	// linearization of a scattered payload.
	bulkSegs [][]byte
	bulkFlat []byte
	bulkDir  BulkDir
	bulkIn   int
	bulkOut  int

	// stripe selects the cache line this invocation's counters land on.
	// Assigned once when the Call is minted; sync.Pool's per-P caching
	// keeps each processor reusing the same Calls, and therefore the
	// same counter stripes, so completion accounting never bounces a
	// shared cache line between cores.
	stripe uint32

	// Latency sampling (metrics.go). skip counts the untimed calls left
	// before this record times one; it outlives release, so the
	// countdown runs across the invocations the record carries. timed
	// marks this invocation as sampled, and the handler's start and end
	// stamps, which also bound the copies, are left here by runHandler.
	skip         uint32
	timed        bool
	hStart, hEnd int64
}

// callStripe round-robins the stripe assignment of freshly minted Calls.
var callStripe atomic.Uint32

// callPool recycles Call structures so the dispatch path allocates
// nothing per invocation. A fresh record joins the sampling countdown at
// a random point: the minimum of two gaps, about the distance to the
// next timed call seen from a random call, so records the pool drops
// early still time one call in sampleEvery.
var callPool = sync.Pool{New: func() any {
	return &Call{stripe: callStripe.Add(1) & (numStripes - 1), skip: min(sampleGap(), sampleGap())}
}}

// release returns the Call to the pool. Never called on a panicked
// invocation — the handler may still hold references.
func (c *Call) release() {
	c.args, c.astack, c.oob, c.resLen = nil, nil, nil, 0
	c.bulkSegs, c.bulkFlat, c.bulkDir, c.bulkIn, c.bulkOut = nil, nil, 0, 0, 0
	c.timed = false
	callPool.Put(c)
}

// Args returns the argument bytes. Unless the procedure declared
// ProtectArgs, the slice aliases the shared argument stack.
func (c *Call) Args() []byte { return c.args }

// ResultsBuf returns an n-byte buffer to write results into. For results
// that fit the argument stack this is the stack itself — the server
// "places the results directly into the reply", no server-side copy.
// Because of that sharing, the buffer may alias Args: handlers that read
// arguments while writing results must process in place carefully or copy
// first (or declare ProtectArgs).
func (c *Call) ResultsBuf(n int) []byte {
	if n <= len(c.astack) {
		c.resLen = n
		c.oob = nil
		return c.astack[:n]
	}
	c.oob = make([]byte, n)
	c.resLen = n
	return c.oob
}

// SetResults copies b as the call's results (convenience over ResultsBuf).
func (c *Call) SetResults(b []byte) { copy(c.ResultsBuf(len(b)), b) }

// result returns the bytes the handler produced, wherever ResultsBuf put
// them: the out-of-band buffer, or the first resLen bytes of the A-stack.
func (c *Call) result() []byte {
	if c.oob != nil {
		return c.oob
	}
	return c.astack[:c.resLen]
}

// System is one machine's LRPC installation: the name server plus the
// binding-issue state the kernel would hold. The call path itself never
// touches the System lock — validation happens at bind time, and
// revocation reaches in-flight bindings through an atomic flag on the
// binding record.
type System struct {
	mu      sync.RWMutex
	exports map[string]*Export
	nextID  uint64
	rng     *rand.Rand

	// metricsOn records EnableMetrics so exports registered afterwards
	// start with their recorders installed. Guarded by mu.
	metricsOn bool

	// injector is consulted once per dispatch; it is an atomic pointer
	// load (nil for the common no-injection case), never a lock.
	injector atomic.Pointer[FaultInjector]

	// tracer is the uncommon-case event hook (see metrics.go): same
	// shape as injector, a nil-checked atomic load at the event sites
	// and nothing at all on the successful fast path.
	tracer atomic.Pointer[Tracer]

	// Orphan-activation registry (see resilience.go): abandoned
	// activations are tracked system-wide because their export may be
	// unregistered by Terminate before they return. Touched only on the
	// abandon path and by the reaper, never on the fast path.
	orphanMu sync.Mutex
	orphans  map[*activation]orphanRec
	reaped   atomic.Uint64
}

// bindingRecord is the kernel-held truth about one issued binding: the
// fields the Binding must match (unforgeability) are immutable, and
// revocation is a single atomic flip that every subsequent call observes
// without any lock — the bind-time-validation design the paper's
// concurrency technique requires.
type bindingRecord struct {
	id      uint64
	nonce   uint64
	export  *Export
	revoked atomic.Bool
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{
		exports: make(map[string]*Export),
		rng:     rand.New(rand.NewSource(rand.Int63())),
	}
}

// Export is a server domain's registration of an interface.
type Export struct {
	sys     *System
	iface   *Interface
	nameIdx map[string]int // procedure name -> index, immutable after Export

	// terminated is the domain-alive bit, read once per call with a
	// single atomic load (the line is never written until termination, so
	// every processor keeps a shared copy).
	terminated atomic.Bool

	mu       sync.Mutex // guards bindings only
	bindings []*Binding

	// calls counts completed invocations and active counts running
	// handler activations, both striped across cache lines by the
	// invocation's Call stripe so per-call accounting scales with cores.
	calls  stripedUint64
	active stripedInt64

	// Resilience accounting (see fault.go).
	panicPolicy atomic.Int32  // PanicPolicy
	abandoned   atomic.Uint64 // calls abandoned by their caller's deadline
	panics      atomic.Uint64 // handler invocations that panicked

	// admission is the overload controller (see resilience.go): nil
	// until SetAdmission, consulted with one nil-checked atomic load per
	// call — absent, the path is unchanged.
	admission atomic.Pointer[admission]
	sheds     atomic.Uint64 // calls shed with ErrOverload

	// oneWayDrops counts one-way executions whose error was discarded —
	// the at-most-once contract's "nobody is listening" half (async.go).
	oneWayDrops atomic.Uint64

	// Chain plane accounting (chain.go): chains completed end to end
	// and individual stages executed in this server's domain. Stages
	// also count in calls — these counters separate pipelined traffic
	// from single-call traffic for lrpcstat.
	chains      atomic.Uint64
	chainStages atomic.Uint64

	// metrics is the observability recorder (see metrics.go): nil until
	// EnableMetrics, consulted with one atomic load per dispatch — when
	// nil the call path does not even read the clock.
	metrics atomic.Pointer[exportMetrics]

	// slow marks, per procedure and then for chains, that its last run
	// from a TCP connection outlasted inlineMax (net.go): the server loop
	// spawns it instead of serving it on the connection's reader.
	slow []atomic.Bool
}

// Export registers iface and returns its export handle. Every procedure
// must have a handler, and procedure names must be unique within the
// interface — a duplicate would make CallByName resolve ambiguously, so
// it is rejected here rather than silently bound to the first index.
func (s *System) Export(iface *Interface) (*Export, error) {
	if len(iface.Procs) == 0 {
		return nil, fmt.Errorf("lrpc: interface %q has no procedures", iface.Name)
	}
	nameIdx := make(map[string]int, len(iface.Procs))
	for i := range iface.Procs {
		if iface.Procs[i].Handler == nil {
			return nil, fmt.Errorf("lrpc: procedure %s.%s has no handler", iface.Name, iface.Procs[i].Name)
		}
		if prev, dup := nameIdx[iface.Procs[i].Name]; dup {
			return nil, fmt.Errorf("lrpc: interface %q declares procedure %q twice (indices %d and %d)",
				iface.Name, iface.Procs[i].Name, prev, i)
		}
		nameIdx[iface.Procs[i].Name] = i
	}
	s.mu.Lock()
	if _, ok := s.exports[iface.Name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("lrpc: interface %q already exported", iface.Name)
	}
	e := &Export{sys: s, iface: iface, nameIdx: nameIdx, slow: make([]atomic.Bool, len(iface.Procs)+1)}
	s.exports[iface.Name] = e
	metricsOn := s.metricsOn
	s.mu.Unlock()
	if metricsOn {
		e.EnableMetrics()
	}
	return e, nil
}

// Terminated reports whether the export has been terminated.
func (e *Export) Terminated() bool { return e.terminated.Load() }

// Calls returns the number of completed invocations.
func (e *Export) Calls() uint64 { return e.calls.sum() }

// Terminate withdraws the interface and revokes every binding minted for
// it, following the paper's domain-termination semantics (section 5.3):
// new calls fail with ErrRevoked; calls in progress complete their handler
// but return ErrCallFailed to the caller; callers parked waiting for an
// argument stack are woken and fail with ErrRevoked.
func (e *Export) Terminate() {
	if !e.terminated.CompareAndSwap(false, true) {
		return
	}
	e.sys.emitTrace(TraceTerminate, e.iface.Name, "", nil)
	e.mu.Lock()
	bindings := append([]*Binding(nil), e.bindings...)
	e.mu.Unlock()

	// Revoke every issued binding record: one atomic flip per binding,
	// observed by the next validate of every caller.
	for _, b := range bindings {
		b.rec.revoked.Store(true)
	}

	e.sys.mu.Lock()
	// Only unregister the name if it still refers to this export: the
	// name may have been re-exported by a successor domain.
	if cur, ok := e.sys.exports[e.iface.Name]; ok && cur == e {
		delete(e.sys.exports, e.iface.Name)
	}
	e.sys.mu.Unlock()

	// Release every caller parked for admission: a terminated domain
	// will never free capacity, so waiting would be forever.
	if a := e.admission.Load(); a != nil {
		a.revoke()
	}

	// Release every thread blocked on an exhausted A-stack pool: a
	// terminated domain can never return a stack, so waiting would be
	// forever.
	seen := make(map[*astackPool]bool)
	for _, b := range bindings {
		for _, p := range b.pools {
			if !seen[p] {
				seen[p] = true
				p.revoke()
			}
		}
	}
}

// AStackPolicy selects what a call does when every argument stack of its
// procedure is in use (section 5.2: "the client can either wait for one to
// become available (when an earlier call finishes), or allocate more").
type AStackPolicy int

const (
	// AllocateAStack mints an overflow stack — calls never block on pool
	// exhaustion (the default).
	AllocateAStack AStackPolicy = iota
	// WaitForAStack blocks the caller until an in-flight call returns
	// its stack.
	WaitForAStack
	// FailOnExhaustion returns ErrNoAStacks, for callers preferring
	// back-pressure.
	FailOnExhaustion
)

// ErrNoAStacks reports pool exhaustion under FailOnExhaustion.
var ErrNoAStacks = errors.New("lrpc: no argument stack available")

// Binding is a client's handle on an imported interface: the binding
// object (id + nonce, matched on every call against the kernel's record,
// so a tampered or revoked binding never reaches a server) and the
// per-procedure argument-stack pools. Validation is bind-time work — the
// per-call check is three immutable compares and one atomic load.
type Binding struct {
	sys   *System
	exp   *Export
	id    uint64
	nonce uint64
	rec   *bindingRecord
	pools []*astackPool

	// Policy selects the pool-exhaustion behavior; zero value allocates.
	Policy AStackPolicy
}

// Import binds the caller to the named exported interface.
func (s *System) Import(name string) (*Binding, error) {
	s.mu.Lock()
	e, ok := s.exports[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotExported, name)
	}
	s.nextID++
	id := s.nextID
	nonce := s.rng.Uint64()
	s.mu.Unlock()

	rec := &bindingRecord{id: id, nonce: nonce, export: e}
	b := &Binding{sys: s, exp: e, id: id, nonce: nonce, rec: rec}
	groups := make(map[string]*astackPool)
	for i := range e.iface.Procs {
		p := &e.iface.Procs[i]
		size := p.AStackSize
		if size <= 0 {
			size = DefaultAStackSize
		}
		n := p.NumAStacks
		if n <= 0 {
			n = DefaultNumAStacks
		}
		if p.ShareGroup != "" {
			if pool, ok := groups[p.ShareGroup]; ok {
				// Every member contributes: the shared pool grows to
				// the group's largest stack size and its combined
				// stack count, so the group admits the combined
				// number of concurrent calls.
				pool.grow(size, n)
				b.pools = append(b.pools, pool)
				continue
			}
		}
		pool := newAStackPool(size, n)
		pool.sys = s
		pool.iface = e.iface.Name
		if p.ShareGroup != "" {
			pool.group = p.ShareGroup
			groups[p.ShareGroup] = pool
		} else {
			pool.group = p.Name
		}
		b.pools = append(b.pools, pool)
	}
	e.mu.Lock()
	if e.terminated.Load() {
		// The export died between lookup and registration; hand the
		// caller a binding that is already revoked rather than one whose
		// pools would never be released.
		e.mu.Unlock()
		rec.revoked.Store(true)
		for _, p := range b.pools {
			p.revoke()
		}
		return b, nil
	}
	e.bindings = append(e.bindings, b)
	e.mu.Unlock()
	// Registration precedes the recorder probe, so a concurrent
	// EnableMetrics either sees the binding in e.bindings or we see its
	// installed recorder here — never neither.
	if e.metrics.Load() != nil {
		for _, p := range b.pools {
			p.enableObs()
		}
	}
	s.emitTrace(TraceBind, name, "", nil)
	return b, nil
}

// Names returns the exported interface names.
func (s *System) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.exports))
	for n := range s.exports {
		names = append(names, n)
	}
	return names
}

// Call invokes procedure proc with the given argument bytes and returns
// the result bytes. The call path is the paper's: validate the binding,
// take an argument stack from the procedure's pool, copy the arguments
// once onto it, run the server procedure directly on the calling
// goroutine, copy the results once to the caller. For in-band arguments
// and results the path takes no locks and performs no heap allocations
// beyond the result copy; see CallAppend to elide that too.
func (b *Binding) Call(proc int, args []byte) ([]byte, error) {
	return b.CallAppend(proc, args, nil)
}

// CallAppend is Call appending the results to dst (which may be nil),
// letting callers reuse result buffers across calls. With a dst of
// sufficient capacity the whole call is zero-alloc.
func (b *Binding) CallAppend(proc int, args, dst []byte) ([]byte, error) {
	return b.callAppend(proc, args, dst, PriorityNormal)
}

// callAppend is the direct-transfer call path, shared by Call/CallAppend
// and the priority-carrying CallWithOpts route (resilience.go).
//
// It is the invocation core (begin/finish below) specialised for {pool
// A-stack, no deadline, no cancel, no bulk, results appended inline},
// written out because routing it through the record was measured:
// BenchmarkWallClockLRPC/Null 58–62 → 66–79 ns, inproc-small 12.8–15.2 M
// → 10.7–13.1 M calls/s (DESIGN §5.17). It alone times the copies (the
// copy histogram is a measurement of this path). TestDispatch*
// (dispatch_test.go) pins it to the core: one scenario table through
// both, identical results, error classes and accounting required.
func (b *Binding) callAppend(proc int, args, dst []byte, prio Priority) ([]byte, error) {
	// The Call record comes first: it carries the sampling countdown
	// (metrics.go), so whether this invocation is timed is settled before
	// the first stamp. With the recorder absent, or present and the call
	// not sampled, the path reads no clock, takes no lock, and allocates
	// nothing.
	c := callPool.Get().(*Call)
	m := b.exp.metrics.Load()
	var started int64
	if m != nil && m.sample(c) {
		started = monoNow()
	}

	p, pool, err := b.validate(proc, args)
	if err != nil {
		c.release()
		b.traceValidateFail(proc, err)
		return nil, err
	}

	// Admission control (resilience.go): one nil-checked load when off;
	// one CAS when on and under the cap. A shed call never touches an
	// A-stack.
	adm := b.exp.admission.Load()
	if adm != nil {
		if err := adm.enter(prio, time.Time{}, nil); err != nil {
			c.release()
			if err == ErrOverload {
				b.recordShed(p, pool, err)
			}
			return nil, err
		}
	}

	// Client stub: argument stack off the pool's per-P cache or
	// lock-free ring, single copy in.
	buf, err := pool.get(b.Policy, nil, c.stripe)
	if err != nil {
		c.release()
		if adm != nil {
			adm.exit()
		}
		return nil, err
	}
	// Copy A is timed from here to runHandler's handler-start stamp.
	var copyA int64
	if c.timed {
		copyA = monoNow()
	}
	prepareCall(c, p, buf.b, args)

	// Domain transfer: the calling goroutine executes the server's
	// procedure directly — no scheduler rendezvous. A handler panic is
	// contained in runHandler and surfaces as the call-failed exception.
	if herr := b.exp.runHandler(p, c); herr != nil {
		pool.putPoisoned(buf, c.stripe)
		if adm != nil {
			adm.exit()
		}
		return nil, herr
	}

	// Return: copy results to their final destination (copy F, timed
	// from runHandler's handler-end stamp; its end closes the dispatch
	// span too).
	out := dst
	if c.resLen > 0 {
		out = append(dst, c.result()...)
	}
	if c.timed {
		done := monoNow()
		m.copySpan.record(c.stripe, time.Duration(c.hStart-copyA+done-c.hEnd))
		m.dispatch.record(c.stripe, time.Duration(done-started))
	}
	pool.put(buf, c.stripe)
	if adm != nil {
		// The slot is released only after the A-stack went back, so the
		// cap bounds stack pressure as well as handler concurrency.
		adm.exit()
	}

	b.exp.calls.add(c.stripe, 1)
	c.release()
	if b.exp.terminated.Load() {
		// The server terminated while we were inside it: the call,
		// completed or not, returns the call-failed exception.
		return nil, ErrCallFailed
	}
	return out, nil
}

// traceValidateFail reports a pre-dispatch rejection (revoked or forged
// binding, bad index, oversized arguments) to the tracer, if one is
// installed. Nothing is constructed when tracing is off.
func (b *Binding) traceValidateFail(proc int, err error) {
	if b.sys.tracer.Load() == nil {
		return
	}
	name := ""
	if proc >= 0 && proc < len(b.exp.iface.Procs) {
		name = b.exp.iface.Procs[proc].Name
	}
	b.sys.emitTrace(TraceValidateFail, b.exp.iface.Name, name, err)
}

// validate is the kernel half of a call, moved to bind time: the binding
// object is matched against the immutable record issued at Import, and
// revocation is observed through the record's atomic flag. No lock, no
// table lookup.
func (b *Binding) validate(proc int, args []byte) (*Proc, *astackPool, error) {
	rec := b.rec
	if rec == nil || rec.id != b.id || rec.nonce != b.nonce || rec.export != b.exp || rec.revoked.Load() {
		return nil, nil, ErrRevoked
	}
	if proc < 0 || proc >= len(b.pools) {
		return nil, nil, ErrBadProcedure
	}
	if len(args) > MaxOOBSize {
		return nil, nil, ErrTooLarge
	}
	return &b.exp.iface.Procs[proc], b.pools[proc], nil
}

// prepareCall stages the arguments on the A-stack (copy A) and fills in
// the server's view of the invocation.
func prepareCall(c *Call, p *Proc, astack, args []byte) {
	callArgs := args
	if len(args) <= len(astack) {
		copy(astack, args) // copy A
		callArgs = astack[:len(args)]
	}
	// else: oversized arguments stay in the caller's buffer — the Go
	// analog of the out-of-band segment, which is itself just another
	// pairwise-shared region.
	stageCall(c, p, astack, callArgs)
}

// stageCall fills in the server's view of an invocation whose arguments
// are already where the handler will read them: the tail of prepareCall,
// and all there is to do on an adopted A-stack.
func stageCall(c *Call, p *Proc, astack, args []byte) {
	c.astack = astack
	c.args = args
	c.oob = nil
	c.resLen = 0
	if p.ProtectArgs && len(args) > 0 {
		cp := make([]byte, len(args))
		copy(cp, args) // copy E: immutability-sensitive procedures
		c.args = cp
	}
}

// invocation is the record of one call through the invocation core, the
// one sequence every general entry point shares (DESIGN §5.17): its
// fields are the options, begin and finish the halves around the
// handler. Synchronous callers keep it on their stack; callers that
// hand finish to another goroutine embed it in their activation.
type invocation struct {
	// Options, filled by the caller before begin.
	proc     int
	args     []byte
	prio     Priority
	deadline time.Time       // bounds the wait for admission; zero is none
	cancel   <-chan struct{} // closed when the caller gives up; nil is never
	// astack, when non-nil, is adopted in place of a pool A-stack (the
	// shm slot, the chain's scratch): the arguments are already staged,
	// on it or out of band, and the results are left on it.
	astack []byte
	segs   [][]byte // bulk payload (bulk.go); dir 0 is none
	dir    BulkDir
	bulkIn int

	// Carried from begin to finish.
	p       *Proc
	pool    *astackPool
	buf     *astackBuf // the pool A-stack; nil when astack was adopted
	adm     *admission
	c       *Call
	m       *exportMetrics
	started int64 // monoNow at entry, when c.timed

	// Outcome, valid once finish returns nil. out is a private copy for
	// a pool A-stack; for an adopted one it aliases the stack (or the
	// handler's out-of-band buffer, when len(out) > len(astack)).
	out      []byte
	produced int // bulk bytes the handler wrote
}

// begin is the first half of the core, up to the domain transfer. It
// runs on the caller's goroutine, so a rejected, shed or cancelled call
// is a synchronous verdict that holds no A-stack, and after an error
// there is nothing to undo. A fired cancel channel surfaces as
// errWaitCancelled; each caller words its own timeout.
func (b *Binding) begin(inv *invocation) error {
	// The Call record first, so the sampling decision precedes the stamp;
	// stamped before admission, since time queued for it is dispatch
	// latency.
	c := callPool.Get().(*Call)
	inv.m = b.exp.metrics.Load()
	if inv.m != nil && inv.m.sample(c) {
		inv.started = monoNow()
	}
	p, pool, err := b.validate(inv.proc, inv.args)
	if err != nil {
		c.release()
		b.traceValidateFail(inv.proc, err)
		return err
	}
	// The gate precedes the cancel check: a call that cannot be admitted
	// before its deadline reports the true cause — shed, not timed out.
	adm := b.exp.admission.Load()
	if adm != nil {
		if err := adm.enter(inv.prio, inv.deadline, inv.cancel); err != nil {
			c.release()
			if err == ErrOverload {
				b.recordShed(p, pool, err)
			}
			return err
		}
	}
	select {
	case <-inv.cancel: // never ready when nil
		c.release()
		if adm != nil {
			adm.exit()
		}
		return errWaitCancelled
	default:
	}
	if inv.astack != nil {
		stageCall(c, p, inv.astack, inv.args)
	} else {
		buf, err := pool.get(b.Policy, inv.cancel, c.stripe)
		if err != nil {
			c.release()
			if adm != nil {
				adm.exit()
			}
			return err
		}
		inv.buf = buf
		prepareCall(c, p, buf.b, inv.args)
	}
	c.bulkSegs, c.bulkDir, c.bulkIn, c.bulkOut = inv.segs, inv.dir, inv.bulkIn, 0
	inv.p, inv.pool, inv.adm, inv.c = p, pool, adm, c
	return nil
}

// finish is the second half of the core, from the domain transfer to
// the return. It may run on an activation goroutine whose caller has
// gone: the A-stack and the admission slot are held until the handler
// actually returns, never recycled under a running one. A non-nil error
// (*PanicError, or ErrCallFailed when the server terminated mid-call)
// means no results, on every plane.
func (b *Binding) finish(inv *invocation) error {
	c := inv.c
	herr := b.exp.runHandler(inv.p, c)
	if herr == nil {
		inv.produced = c.bulkOut
		if inv.buf == nil {
			inv.out = c.result()
		} else if c.resLen > 0 {
			inv.out = append([]byte(nil), c.result()...) // copy F
		}
	}
	if inv.buf != nil {
		if herr != nil {
			inv.pool.putPoisoned(inv.buf, c.stripe)
		} else {
			inv.pool.put(inv.buf, c.stripe)
		}
	}
	if inv.adm != nil {
		// After the A-stack went back, so the cap bounds stack pressure
		// as well as handler concurrency.
		inv.adm.exit()
	}
	if herr != nil {
		// Not a completion, and the Call is not released: the panicked
		// handler may still hold references into it.
		return herr
	}
	b.exp.calls.add(c.stripe, 1)
	if c.timed {
		span := &inv.m.dispatch
		if inv.dir != 0 {
			span = &inv.m.bulkSpan
		}
		span.record(c.stripe, time.Duration(monoNow()-inv.started))
	}
	c.release()
	if b.exp.terminated.Load() {
		// The server terminated while we were inside it: the call,
		// completed or not, returns the call-failed exception.
		inv.out, inv.produced = nil, 0
		return ErrCallFailed
	}
	return nil
}

// CallByName invokes a procedure by name, resolved through the index
// built at Export time.
func (b *Binding) CallByName(name string, args []byte) ([]byte, error) {
	if i, ok := b.exp.nameIdx[name]; ok {
		return b.Call(i, args)
	}
	return nil, fmt.Errorf("%w: %q", ErrBadProcedure, name)
}
