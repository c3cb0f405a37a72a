package lrpc

// The differential test for the invocation core (lrpc.go begin/finish)
// and the one path deliberately written out beside it, callAppend: one
// table of scenarios runs through every entry point that can express it,
// and each entry point's outcome — result bytes, error class, and the
// export's accounting afterwards — must equal CallAppend's. The table
// runs with metrics off and on each side of the sampling rule, where
// the outcome must not change either. callAppend is kept out of the
// core for speed (DESIGN §5.17); this table is what keeps it from
// drifting, and it is repeated by `make onecore`.

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// The fixture interface. Every A-stack is dispatchStack bytes so the
// in-band/out-of-band split falls at the same length on a pool stack, a
// chain scratch stack and the fake shm slot.
const dispatchStack = 64

const (
	dpEcho = iota
	dpBig
	dpProtect
	dpPanic
	dpDie
	dpGate
)

// dispatchFixture is one fresh system per (scenario, entry point) pair,
// so every counter reads as a delta from zero.
type dispatchFixture struct {
	sys *System
	exp *Export
	b   *Binding

	// The Gate procedure parks its first caller while armed: the way a
	// scenario pins an admission slot or the procedure's only A-stack.
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newDispatchFixture(t *testing.T) *dispatchFixture {
	t.Helper()
	fx := &dispatchFixture{entered: make(chan struct{}), release: make(chan struct{})}
	echo := func(c *Call) {
		a := c.Args()
		copy(c.ResultsBuf(len(a)), a)
	}
	fx.sys = NewSystem()
	var err error
	fx.exp, err = fx.sys.Export(&Interface{Name: "Diff", Procs: []Proc{
		dpEcho: {Name: "Echo", AStackSize: dispatchStack, Handler: echo},
		dpBig: {Name: "Big", AStackSize: dispatchStack, Handler: func(c *Call) {
			r := c.ResultsBuf(3 * dispatchStack)
			for i := range r {
				r[i] = byte(i)
			}
		}},
		// Scribbles over the results buffer before reading the arguments:
		// without copy E the two alias and the echo comes back as 0xFF.
		dpProtect: {Name: "Protect", AStackSize: dispatchStack, ProtectArgs: true, Handler: func(c *Call) {
			a := c.Args()
			r := c.ResultsBuf(len(a))
			for i := range r {
				r[i] = 0xFF
			}
			copy(r, a)
		}},
		dpPanic: {Name: "Panic", AStackSize: dispatchStack, Handler: func(*Call) { panic("dispatch_test") }},
		dpDie: {Name: "Die", AStackSize: dispatchStack, Handler: func(c *Call) {
			fx.exp.Terminate()
			echo(c)
		}},
		dpGate: {Name: "Gate", AStackSize: dispatchStack, NumAStacks: 1, Handler: func(c *Call) {
			if fx.armed.CompareAndSwap(true, false) {
				close(fx.entered)
				<-fx.release
			}
			echo(c)
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Admission is on in every scenario, with room to spare, so an entry
	// point that forgets its exit shows up as a slot still in use.
	fx.exp.SetAdmission(AdmissionConfig{MaxConcurrent: 4})
	if fx.b, err = fx.sys.Import("Diff"); err != nil {
		t.Fatal(err)
	}
	return fx
}

// pin parks one Gate call inside its handler and returns the function
// that lets it go and waits for it.
func (fx *dispatchFixture) pin(t *testing.T) (unpin func()) {
	t.Helper()
	fx.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := fx.b.Call(dpGate, nil)
		done <- err
	}()
	<-fx.entered
	return func() {
		close(fx.release)
		if err := <-done; err != nil {
			t.Errorf("pinned Gate call: %v", err)
		}
	}
}

// dispatchEntry is one way into the dispatch path. open runs before the
// scenario is armed (the shm plane must dial before the export dies) and
// returns the call to make.
type dispatchEntry struct {
	name string
	// adopts marks entry points that bring their own A-stack: pool
	// exhaustion cannot be expressed through them.
	adopts bool
	open   func(t *testing.T, fx *dispatchFixture) func(proc int, args []byte) ([]byte, error)
}

// dispatchEntries starts with the reference; dispatch_linux_test.go
// appends the shared-memory plane, both halves of it.
var dispatchEntries = []dispatchEntry{
	{name: "CallAppend", open: func(_ *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
		return func(proc int, args []byte) ([]byte, error) { return fx.b.CallAppend(proc, args, nil) }
	}},
	{name: "CallContext", open: func(t *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		t.Cleanup(cancel)
		return func(proc int, args []byte) ([]byte, error) { return fx.b.CallContext(ctx, proc, args) }
	}},
	{name: "CallAsync", open: func(_ *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
		return func(proc int, args []byte) ([]byte, error) {
			f, err := fx.b.CallAsync(proc, args)
			if err != nil {
				return nil, err
			}
			return f.Wait()
		}
	}},
	{name: "CallBulk", open: func(_ *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
		return func(proc int, args []byte) ([]byte, error) {
			return fx.b.CallBulk(proc, args, NewBulkIn([]byte{0}))
		}
	}},
	{name: "CallChain", adopts: true, open: func(_ *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
		return func(proc int, args []byte) ([]byte, error) {
			return fx.b.CallChain(NewChain().Add(proc, args))
		}
	}},
}

// dispatchScenario is one row of the table. arm, when set, prepares the
// fixture after the entry point is open and returns its undo.
type dispatchScenario struct {
	name      string
	proc      int
	args      []byte
	needsPool bool
	arm       func(t *testing.T, fx *dispatchFixture) (disarm func())
}

// dispatchScenarios builds the table (a function, so the oversized
// argument block lives only while the test runs).
func dispatchScenarios() []dispatchScenario {
	return []dispatchScenario{
		{name: "ok in-band", proc: dpEcho, args: []byte("in-band")},
		{name: "ok out-of-band result", proc: dpBig},
		{name: "ok out-of-band arguments", proc: dpEcho, args: bytes.Repeat([]byte{7}, dispatchStack+1)},
		{name: "ProtectArgs", proc: dpProtect, args: []byte("immutable")},
		{name: "panic contained", proc: dpPanic, args: []byte("x")},
		{name: "panic terminates", proc: dpPanic, arm: func(_ *testing.T, fx *dispatchFixture) func() {
			fx.exp.SetPanicPolicy(TerminateOnPanic)
			return nil
		}},
		{name: "Terminate inside the handler", proc: dpDie, args: []byte("last words")},
		{name: "admission shed at the cap", proc: dpEcho, args: []byte("x"), arm: func(t *testing.T, fx *dispatchFixture) func() {
			fx.exp.SetAdmission(AdmissionConfig{MaxConcurrent: 1})
			return fx.pin(t)
		}},
		{name: "A-stack exhaustion, fail policy", proc: dpGate, needsPool: true, arm: func(t *testing.T, fx *dispatchFixture) func() {
			fx.b.Policy = FailOnExhaustion
			return fx.pin(t)
		}},
		{name: "bad procedure", proc: 99},
		{name: "arguments past MaxOOBSize", proc: dpEcho, args: make([]byte, MaxOOBSize+1)},
		{name: "revoked binding", proc: dpEcho, args: []byte("x"), arm: func(_ *testing.T, fx *dispatchFixture) func() {
			fx.exp.Terminate()
			return nil
		}},
	}
}

// dispatchOutcome is everything one run is compared on.
type dispatchOutcome struct {
	result      string
	class       string
	calls       uint64
	sheds       uint64
	panics      uint64
	active      int64
	outstanding int
	admitted    int64 // admission slots still in use
	terminated  bool
}

// dispatchClass names err's errors.Is class. A chain wraps its stage's
// error in *ChainError, which errors.Is sees through; a *PanicError is
// ErrCallFailed by its Unwrap (the panics counter tells it from a
// termination), which is also all that survives a wire.
func dispatchClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range []error{ErrRevoked, ErrBadProcedure, ErrTooLarge, ErrOverload,
		ErrNoAStacks, ErrCallFailed, ErrCallTimeout} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// dispatchMetrics is the recorder state a pass of the table runs under:
// off, on during warm-up (every call timed), and on past warm-up (about
// one call in sampleEvery timed, so almost every run takes the untimed
// branch).
type dispatchMetrics int

const (
	metricsOff dispatchMetrics = iota
	metricsWarm
	metricsSampled
)

func (m dispatchMetrics) String() string {
	return [...]string{"metrics off", "metrics in warm-up", "metrics past warm-up"}[m]
}

func runDispatchScenario(t *testing.T, sc dispatchScenario, en dispatchEntry, mode dispatchMetrics) dispatchOutcome {
	t.Helper()
	fx := newDispatchFixture(t)
	if mode != metricsOff {
		fx.exp.EnableMetrics()
		if mode == metricsSampled {
			fx.exp.metrics.Load().warm.Store(warmSpans)
		}
	}
	call := en.open(t, fx)
	var disarm func()
	if sc.arm != nil {
		disarm = sc.arm(t, fx)
	}
	res, err := call(sc.proc, sc.args)
	if disarm != nil {
		disarm()
	}
	return dispatchOutcome{
		result:      string(res),
		class:       dispatchClass(err),
		calls:       fx.exp.Calls(),
		sheds:       fx.exp.Sheds(),
		panics:      fx.exp.HandlerPanics(),
		active:      fx.exp.Active(),
		outstanding: fx.b.Outstanding(),
		admitted:    fx.exp.admission.Load().inflight.Load(),
		terminated:  fx.exp.Terminated(),
	}
}

func TestDispatchCoreMatchesFastPath(t *testing.T) {
	for _, sc := range dispatchScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var off dispatchOutcome
			for mode := metricsOff; mode <= metricsSampled; mode++ {
				ref := runDispatchScenario(t, sc, dispatchEntries[0], mode)
				if ref.active != 0 || ref.outstanding != 0 || ref.admitted != 0 {
					t.Fatalf("%s leaks, %s: %+v", dispatchEntries[0].name, mode, ref)
				}
				if mode == metricsOff {
					off = ref
				} else if ref != off {
					t.Errorf("%s with %s differs from metrics off:\n got  %+v\n want %+v",
						dispatchEntries[0].name, mode, ref, off)
				}
				for _, en := range dispatchEntries[1:] {
					if sc.needsPool && en.adopts {
						continue
					}
					if got := runDispatchScenario(t, sc, en, mode); got != ref {
						t.Errorf("%s differs from %s, %s:\n got  %+v\n want %+v",
							en.name, dispatchEntries[0].name, mode, got, ref)
					}
				}
			}
		})
	}
}

// TestDispatchNotExecuted pins the one non-execution predicate: every
// member of the union, the failures that must stay outside it, and the
// chain rule (a chain's own vouch decides, not the sentinel it wraps).
func TestDispatchNotExecuted(t *testing.T) {
	for _, err := range []error{
		ErrNotExecuted, ErrRevoked, ErrNotExported, ErrOverload, ErrNoAStacks,
		ErrQuotaExceeded, ErrTenantSuspended, ErrNotSent, ErrBreakerOpen, ErrShmUnsupported,
		notSent(ErrConnClosed),
		&RemoteError{Msg: "refused", NotExecuted: true},
		&ChainError{Stage: 0, Executed: 0, Err: ErrBadProcedure},
	} {
		if !notExecuted(err) {
			t.Errorf("notExecuted(%v) = false", err)
		}
	}
	for _, err := range []error{
		ErrCallFailed, ErrCallTimeout, ErrConnClosed,
		&PanicError{Value: "x"},
		&RemoteError{Msg: "failed"},
		&ChainError{Stage: 2, Executed: 2, Err: ErrOverload},
	} {
		if notExecuted(err) {
			t.Errorf("notExecuted(%v) = true", err)
		}
	}
}
