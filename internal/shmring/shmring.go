// Package shmring is a bounded lock-free MPMC ring laid out over a raw
// byte region, so that two OS processes mapping the same memory segment
// can exchange small values — doorbell slot indices — without sockets,
// locks, or kernel data copies. The protocol is the Vyukov per-slot
// sequence design used by the in-process A-stack pool (astack.go), with
// two differences forced by the cross-process setting: every cursor and
// slot lives at a fixed offset inside the shared region rather than in
// a Go struct, and the park/wake fallback after a bounded spin is a
// shared futex (FUTEX_WAIT/FUTEX_WAKE without the private flag) so a
// waiter in one process can be woken by a producer in another.
//
// A wait runs in three phases. It first polls with plain atomic loads
// (Probe), which cost no syscall and leave the Go scheduler alone; this
// phase runs only where the process may use more than one CPU, since on
// one CPU the peer cannot move until this side gives the processor up.
// It then spins with Yield, handing the processor to the peer, and
// finally parks on the futex.
//
// Layout of a ring over a region (offsets in bytes, all fields
// little-endian, region must be 64-byte aligned):
//
//	  0  mask   u64  (capacity-1; written by Init, checked by Attach)
//	 64  enq    u64  (producer cursor, own cache line)
//	128  deq    u64  (consumer cursor, own cache line)
//	192  waiters u32 (count of parked consumers)
//	196  seq    u32  (futex word: bumped by producers after a push)
//	256  slots  [cap]{seq u64, val u64}
package shmring

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	offMask    = 0
	offEnq     = 64
	offDeq     = 128
	offWaiters = 192
	offSeq     = 196
	slotsOff   = 256
	slotBytes  = 16
)

// CapFor rounds n up to the power of two the ring will actually hold.
func CapFor(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Size returns the number of region bytes a ring of capacity CapFor(n)
// occupies.
func Size(n int) int { return slotsOff + CapFor(n)*slotBytes }

// slot is the shared-memory image of one ring entry. The two fields are
// accessed only through atomics: val carries no pointers (a pointer
// would be meaningless in the peer's address space).
type slot struct {
	seq atomic.Uint64
	val atomic.Uint64
}

// Ring is one process's view of a shared ring. The struct itself lives
// in private memory; every field it points at lives in the region.
type Ring struct {
	mask    uint64
	enq     *atomic.Uint64
	deq     *atomic.Uint64
	waiters *atomic.Uint32
	seq     *atomic.Uint32
	slots   []slot
}

var (
	errMisaligned = errors.New("shmring: region is not 64-byte aligned")
	errShort      = errors.New("shmring: region too small for capacity")
	errMask       = errors.New("shmring: region mask does not match capacity")
)

func view(region []byte, n int) (*Ring, error) {
	c := CapFor(n)
	if len(region) < Size(c) {
		return nil, errShort
	}
	if uintptr(unsafe.Pointer(&region[0]))&63 != 0 {
		return nil, errMisaligned
	}
	r := &Ring{
		mask:    uint64(c - 1),
		enq:     (*atomic.Uint64)(unsafe.Pointer(&region[offEnq])),
		deq:     (*atomic.Uint64)(unsafe.Pointer(&region[offDeq])),
		waiters: (*atomic.Uint32)(unsafe.Pointer(&region[offWaiters])),
		seq:     (*atomic.Uint32)(unsafe.Pointer(&region[offSeq])),
		slots:   unsafe.Slice((*slot)(unsafe.Pointer(&region[slotsOff])), c),
	}
	return r, nil
}

// Init formats the region as an empty ring of capacity CapFor(n) and
// returns the initializing side's view. Only one side Inits; the peer
// Attaches.
func Init(region []byte, n int) (*Ring, error) {
	r, err := view(region, n)
	if err != nil {
		return nil, err
	}
	(*atomic.Uint64)(unsafe.Pointer(&region[offMask])).Store(r.mask)
	r.enq.Store(0)
	r.deq.Store(0)
	r.waiters.Store(0)
	r.seq.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
		r.slots[i].val.Store(0)
	}
	return r, nil
}

// Attach builds a view over a ring the peer already initialized,
// verifying the recorded capacity matches the expected one.
func Attach(region []byte, n int) (*Ring, error) {
	r, err := view(region, n)
	if err != nil {
		return nil, err
	}
	if got := (*atomic.Uint64)(unsafe.Pointer(&region[offMask])).Load(); got != r.mask {
		return nil, errMask
	}
	return r, nil
}

// Push enqueues v; it reports false when the ring is full.
func (r *Ring) Push(v uint64) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.val.Store(v)
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full
		default:
			pos = r.enq.Load()
		}
	}
}

// Pop dequeues a value, or reports false when the ring is empty.
func (r *Ring) Pop() (uint64, bool) {
	pos := r.deq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := s.val.Load()
				s.seq.Store(pos + r.mask + 1)
				return v, true
			}
			pos = r.deq.Load()
		case seq < pos+1:
			return 0, false // empty
		default:
			pos = r.deq.Load()
		}
	}
}

// PopBatch dequeues up to len(dst) values into dst and returns the
// count — the bulk completion reap. Each element is claimed with the
// same CAS protocol as Pop, so concurrent consumers stay safe; the
// batch is best-effort and returns short when the ring runs dry.
func (r *Ring) PopBatch(dst []uint64) int {
	n := 0
	for n < len(dst) {
		v, ok := r.Pop()
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

// Bump publishes "there may be work" after one or more pushes: it
// advances the futex word and wakes one parked consumer, if any. The
// waiter check keeps the doorbell to a single atomic add when nobody is
// parked (the spin-hit fast path).
func (r *Ring) Bump() {
	r.seq.Add(1)
	if r.waiters.Load() != 0 {
		futexWake(r.seq, 1)
	}
}

// WakeAll unconditionally wakes every parked consumer — the shutdown
// broadcast.
func (r *Ring) WakeAll() {
	r.seq.Add(1)
	futexWake(r.seq, 1<<30)
}

// spare is how many goroutines of this process may busy-wait at once:
// one fewer than the CPUs it may run on, so one is always left to the
// peer being waited for, and 0 on one CPU, where a busy wait only
// delays that peer. It is the wait policy's one reading of the CPU
// count, made once at init.
var spare = runtime.NumCPU() - 1

// Spare reports how many goroutines of this process may busy-wait at
// once (spare). Probe's budget follows it, and so do the TCP plane's
// read probes in package lrpc.
func Spare() int { return spare }

// probeBudget is how long Probe polls before giving up, set once at
// init: 3 µs where this process may run on more than one CPU, and 0 on
// one CPU, where loads cannot see a peer that is not running. It is a
// time, not a count of loads, so a build whose loads are slower (the
// race detector instruments each one) probes about as long.
var probeBudget = probeTime(spare + 1)

func probeTime(ncpu int) time.Duration {
	if ncpu > 1 {
		return 3 * time.Microsecond
	}
	return 0
}

// probeStride is how many loads Probe makes between reads of the clock.
const probeStride = 32

// Probe polls ready with plain loads, for up to the probe budget, and
// reports whether it turned true. It calls neither runtime.Gosched nor
// the kernel: Gosched wakes a spinning thread whenever a P is idle
// (runtime wakep), which on a two-process ping-pong costs more than the
// wait it polls for. It is the first phase of every wait on the plane;
// a false return leaves the caller to its yielding spin.
func Probe(ready func() bool) bool {
	if probeBudget <= 0 {
		return false
	}
	start := time.Now()
	for {
		for i := 0; i < probeStride; i++ {
			if ready() {
				return true
			}
		}
		if time.Since(start) >= probeBudget {
			return false
		}
	}
}

// ready reports whether a Pop would find a value, claiming nothing.
func (r *Ring) ready() bool {
	pos := r.deq.Load()
	return r.slots[pos&r.mask].seq.Load() > pos
}

// Yield surrenders the processor between spin probes — first to
// other goroutines in this process (the producer may be a sibling
// goroutine), then to other OS processes (the producer may be the peer
// domain on the far side of the segment). On a single-CPU host the
// second yield is what turns the spin phase into a fast handoff: the
// kernel's round-robin runs the peer immediately instead of this side
// burning its quantum and falling back to a futex park, which costs a
// full sleep/wake context switch per direction. Each Yield is a
// sched_yield syscall, so the spin phase follows the load phase
// (Probe) rather than replacing it.
func Yield() {
	runtime.Gosched()
	OSYield()
}

// PopWait pops, probing with loads (Probe), spinning `spin` yielding
// iterations and then parking on the futex in quanta of `wait`, until a
// value arrives or stop() reports the consumer should give up. With
// spin 0 it neither probes nor spins: it parks at once. With wait 0 the
// park has no timeout: only a Bump or WakeAll ends it, so a consumer
// whose stop can turn true must have WakeAll follow that store. The
// pop→load-seq→re-pop→wait ordering closes the lost-wakeup window: a
// producer that pushed after our last failed Pop necessarily bumped
// seq, so the futex wait returns immediately instead of sleeping
// through the doorbell. The same holds for stop: seq is loaded before
// the last stop check, so a WakeAll after a store that check missed
// changes seq and the wait returns at once.
func (r *Ring) PopWait(spin int, wait time.Duration, stop func() bool) (uint64, bool) {
	for {
		if v, ok := r.Pop(); ok {
			return v, true
		}
		if stop != nil && stop() {
			return 0, false
		}
		if spin > 0 {
			Probe(r.ready)
		}
		for i := 0; i < spin; i++ {
			if v, ok := r.Pop(); ok {
				return v, true
			}
			Yield()
		}
		g := r.seq.Load()
		if v, ok := r.Pop(); ok {
			return v, true
		}
		if stop != nil && stop() {
			return 0, false
		}
		r.waiters.Add(1)
		futexWait(r.seq, g, wait)
		r.waiters.Add(^uint32(0))
	}
}
