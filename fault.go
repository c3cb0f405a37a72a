package lrpc

// This file is the resilience layer over the wall-clock call path: the
// paper's section 5.3 uncommon cases made survivable rather than merely
// described. A handler that panics becomes the call-failed exception
// instead of crashing the caller's goroutine; a handler that stalls can be
// abandoned through a context deadline (the client regains its thread with
// call-aborted state, the paper's captured-thread replacement); and a
// deterministic fault-injection hook lets tests drive all of it on a
// schedule (see internal/faultinject).

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// ErrCallTimeout is raised in callers that abandoned a call because its
// deadline expired or its context was cancelled: the wall-clock analog of
// the paper's captured-thread case, where the client receives a
// replacement thread with call-aborted state while the server keeps the
// captured one until the procedure returns.
var ErrCallTimeout = &sentinelError{"lrpc: call timed out (server holds the thread)"}

type sentinelError struct{ s string }

func (e *sentinelError) Error() string { return e.s }

// PanicError is the call-failed exception produced when a server handler
// panics. It wraps ErrCallFailed, so errors.Is(err, ErrCallFailed) holds,
// and carries the recovered panic value and stack for diagnosis.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the handler goroutine's stack at the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("lrpc: call failed (handler panic: %v)", e.Value)
}

// Unwrap makes a handler panic satisfy errors.Is(err, ErrCallFailed): to
// the caller it is the same call-failed exception a terminating server
// domain raises.
func (e *PanicError) Unwrap() error { return ErrCallFailed }

// PanicPolicy selects what an export does when one of its handlers
// panics. Whatever the policy, the caller of the panicking invocation
// receives a *PanicError (wrapping ErrCallFailed) rather than a crash.
type PanicPolicy int32

const (
	// ContainPanic (the default) confines the damage to the one call:
	// the A-stack in use is poisoned (replaced, never reused) and the
	// export keeps serving.
	ContainPanic PanicPolicy = iota
	// TerminateOnPanic treats any handler panic as the server domain
	// dying: the export is terminated, bindings are revoked, and
	// concurrent callers get the call-failed exception — the paper's
	// "domain terminates due to an unhandled exception".
	TerminateOnPanic
	// PropagatePanic re-raises the panic on the calling goroutine (the
	// pre-resilience behavior), for servers that prefer to crash loudly.
	PropagatePanic
)

// SetPanicPolicy selects the export's reaction to handler panics.
func (e *Export) SetPanicPolicy(p PanicPolicy) { e.panicPolicy.Store(int32(p)) }

// PanicPolicy returns the export's current policy.
func (e *Export) PanicPolicy() PanicPolicy {
	return PanicPolicy(e.panicPolicy.Load())
}

// HandlerFault is one injected fault, consulted immediately before a
// handler runs. The zero value injects nothing.
type HandlerFault struct {
	Stall      time.Duration   // sleep this long before dispatching
	Hold       <-chan struct{} // block until closed (deterministic stall)
	Terminate  bool            // terminate the export mid-call
	Panic      bool            // panic instead of running the handler
	PanicValue any             // value to panic with (nil selects a default)
}

// FaultInjector is the hook interface through which a fault schedule
// (internal/faultinject) reaches the dispatch path. Implementations must
// be safe for concurrent use.
type FaultInjector interface {
	// HandlerFault is consulted once per dispatch with the interface and
	// procedure names; whatever it returns is injected.
	HandlerFault(iface, proc string) HandlerFault
}

// SetFaultInjector installs (or, with nil, removes) a fault injector
// consulted on every handler dispatch of every export in the system.
func (s *System) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		s.injector.Store(nil)
		return
	}
	s.injector.Store(&fi)
}

func (s *System) faultInjector() FaultInjector {
	if p := s.injector.Load(); p != nil {
		return *p
	}
	return nil
}

// runHandler dispatches one invocation with panic containment and fault
// injection. It returns nil on success or a *PanicError when the handler
// panicked; every transport (direct call, message rendezvous, network
// dispatch) funnels through here so the containment semantics hold on all
// planes. The export's active-call count is held for exactly the span of
// the handler, which is what lets termination and abandonment reason
// about in-flight activations.
func (e *Export) runHandler(p *Proc, c *Call) (err error) {
	e.active.add(c.stripe, 1)
	defer e.active.add(c.stripe, -1)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.panics.Add(1)
		e.sys.emitTrace(TracePanic, e.iface.Name, p.Name, nil)
		switch e.PanicPolicy() {
		case PropagatePanic:
			panic(r)
		case TerminateOnPanic:
			e.Terminate()
		}
		err = &PanicError{Value: r, Stack: debug.Stack()}
	}()
	if fi := e.sys.faultInjector(); fi != nil {
		f := fi.HandlerFault(e.iface.Name, p.Name)
		if f.Stall > 0 {
			time.Sleep(f.Stall)
		}
		if f.Hold != nil {
			// A deterministic stall: the activation parks until the
			// schedule releases it, letting overload tests pin handlers
			// in place without wall-clock sleeps.
			<-f.Hold
		}
		if f.Terminate {
			e.Terminate()
		}
		if f.Panic {
			v := f.PanicValue
			if v == nil {
				v = "injected handler panic"
			}
			panic(v)
		}
	}
	// Every dispatch plane funnels through here, so the handler span
	// histogram covers the direct, context, network, and message paths
	// alike, for the invocations their caller sampled (metrics.go). The
	// stamps stay on the Call: callAppend's copy spans end and start at
	// them.
	if c.timed {
		c.hStart = monoNow()
		p.Handler(c)
		c.hEnd = monoNow()
		e.metrics.Load().handler.record(c.stripe, time.Duration(c.hEnd-c.hStart))
		return nil
	}
	p.Handler(c)
	return nil
}

// Active returns the number of handler activations currently executing in
// the export's domain (including activations whose callers have already
// abandoned them).
func (e *Export) Active() int64 { return e.active.sum() }

// Abandoned returns how many calls were abandoned by their callers
// (deadline expiry or cancellation) while the handler was still running.
func (e *Export) Abandoned() uint64 { return e.abandoned.Load() }

// HandlerPanics returns how many handler invocations panicked.
func (e *Export) HandlerPanics() uint64 { return e.panics.Load() }

// Outstanding returns the number of A-stacks currently checked out of the
// binding's pools — stacks held by running (or abandoned-but-running)
// activations. After every call has resolved and every activation has
// returned, it is zero: the reclamation invariant the stress tests assert.
func (b *Binding) Outstanding() int {
	seen := make(map[*astackPool]bool)
	n := 0
	for _, p := range b.pools {
		if seen[p] {
			continue
		}
		seen[p] = true
		n += int(p.outstanding.sum())
	}
	return n
}

// CallOpts carries per-call options for CallWithOpts.
type CallOpts struct {
	// Deadline, when nonzero, bounds the call: if the handler has not
	// returned by then the caller abandons it and gets ErrCallTimeout.
	// Under admission control the deadline also bounds the wait for
	// admission — a call that cannot be admitted in time is shed with
	// ErrOverload (resilience.go).
	Deadline time.Time

	// Priority is the call's load-shedding class: under admission
	// pressure lower classes shed first. Zero is PriorityNormal.
	Priority Priority
}

// CallWithOpts is Call with per-call options.
func (b *Binding) CallWithOpts(proc int, args []byte, opts CallOpts) ([]byte, error) {
	if opts.Deadline.IsZero() {
		return b.callAppend(proc, args, nil, opts.Priority)
	}
	ctx, cancel := context.WithDeadline(context.Background(), opts.Deadline)
	defer cancel()
	return b.callContextPrio(ctx, proc, args, opts.Priority)
}

// CallContext is Call under a context: if ctx is cancelled or its deadline
// expires while the server procedure is still running, the caller abandons
// the call and returns ErrCallTimeout immediately — the paper's §5.3
// answer to a server that captures the client's thread. The linkage record
// for the activation is marked abandoned, and the A-stack is returned to
// its pool only when the server-side activation actually returns, so the
// shared buffer is never recycled under a running handler.
//
// A context that can never be cancelled (context.Background()) takes the
// ordinary direct-handoff path with no extra goroutine.
func (b *Binding) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	return b.callContextPrio(ctx, proc, args, PriorityNormal)
}

// callContextPrio is CallContext carrying the call's load-shedding class:
// the invocation core with the context's deadline and Done channel, and
// the second half on an activation goroutine the caller may abandon.
func (b *Binding) callContextPrio(ctx context.Context, proc int, args []byte, prio Priority) ([]byte, error) {
	if ctx == nil || ctx.Done() == nil {
		return b.callAppend(proc, args, nil, prio)
	}
	inv := invocation{proc: proc, args: args, prio: prio, cancel: ctx.Done()}
	inv.deadline, _ = ctx.Deadline()
	if err := b.begin(&inv); err != nil {
		if err == errWaitCancelled {
			err = timeoutError(ctx.Err())
		}
		return nil, err
	}

	// The activation: the server-side half of the call, which owns the
	// A-stack until the handler returns. Abandoning it never cuts the
	// handler short — a captured thread stays captured until the server
	// lets go, exactly as in the paper.
	act := &activation{inv: inv, done: make(chan struct{})}
	go func() {
		act.err = b.finish(&act.inv)
		close(act.done)
	}()

	select {
	case <-act.done:
		return act.inv.out, act.err
	case <-ctx.Done():
		b.exp.abandoned.Add(1)
		// Register the orphan: the handler is still running — possibly
		// in an export that terminates before it returns — and the
		// reaper (resilience.go) accounts for it until it does.
		b.sys.addOrphan(act, b.exp, inv.p.Name)
		b.sys.emitTrace(TraceAbandon, b.exp.iface.Name, inv.p.Name, ctx.Err())
		return nil, timeoutError(ctx.Err())
	}
}

// activation is the wall-clock linkage record for one in-flight call:
// the caller's handle on the server-side execution it may abandon. The
// invocation record rides in it, so the pair costs one allocation.
type activation struct {
	inv  invocation
	done chan struct{}
	err  error
}

// timeoutError wraps a context error as the package's timeout exception.
func timeoutError(cause error) error {
	return fmt.Errorf("%w: %v", ErrCallTimeout, cause)
}
