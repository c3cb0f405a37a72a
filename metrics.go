package lrpc

// This file is the observability layer over the wall-clock call path: the
// measurement plane the paper's evaluation depends on (Table 2's
// microsecond breakdown, Figure 2's throughput curves), rebuilt for a
// production system that cannot stop to be measured.
//
// The design rule is the fault-injector's: every hook is an
// atomic.Pointer consulted with a single nil-checked load on the dispatch
// path, so the layer costs nothing when off — Binding.Call stays 0 locks
// / 0 allocs (asserted in concurrency_test.go and gated by
// cmd/benchcheck) — and stays lock-free and cheap when on:
//
//   - latency is sampled (DESIGN §5.9): an export times its first
//     warmSpans invocations, then about one in sampleEvery, chosen by a
//     countdown on the Call record with a random gap; every other
//     invocation reads no clock at all. The timed ones read one
//     monotonic clock (monoNow);
//   - latency histograms are log-bucketed atomic counters, striped across
//     cache lines by the invocation's Call stripe (the stripedUint64
//     pattern of astack.go), recording three spans per timed call:
//     dispatch (the whole client-visible path), handler (the server
//     procedure proper), and copy (argument/result staging);
//   - A-stack pool gauges (checkouts, overflow allocations, waits,
//     drops) hang off each pool behind one atomic pointer, and like the
//     call counters they count every call, timed or not;
//   - trace events cover the uncommon cases only (bind, validate-fail,
//     stack-wait, abandon, panic, terminate, reconnect), so the
//     successful fast path never constructs an event.
//
// All three dispatch planes — the direct path (Binding.Call), the
// context path (CallContext), and the network gateway (ServeNetwork,
// which dispatches through Binding.Call) — funnel through runHandler and
// the pools, so one Snapshot covers them all; the message-passing
// baseline reports its handler spans through the same funnel.

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// --- Tracer: the uncommon-case event hook ---

// TraceKind classifies a TraceEvent.
type TraceKind uint8

const (
	// TraceBind: a client bound to an exported interface (Import).
	TraceBind TraceKind = iota
	// TraceValidateFail: a call was rejected before dispatch — revoked
	// or forged binding, bad procedure index, oversized arguments.
	TraceValidateFail
	// TraceStackWait: a caller parked on an exhausted A-stack pool
	// under WaitForAStack.
	TraceStackWait
	// TraceAbandon: a caller abandoned an in-flight call at its
	// deadline (the captured-thread case of the paper's section 5.3).
	TraceAbandon
	// TracePanic: a handler invocation panicked.
	TracePanic
	// TraceTerminate: an export was terminated and its bindings revoked.
	TraceTerminate
	// TraceReconnect: a network client re-established a broken
	// connection.
	TraceReconnect
	// TraceShed: admission control shed a call with ErrOverload
	// (resilience.go).
	TraceShed
	// TraceBreakerOpen: a network client's circuit breaker opened —
	// subsequent calls fail fast with ErrBreakerOpen.
	TraceBreakerOpen
	// TraceBreakerClose: a half-open probe succeeded and the breaker
	// closed again.
	TraceBreakerClose
	// TraceRebind: a Supervisor re-imported after its binding was
	// revoked.
	TraceRebind
	// TraceReap: the orphan reaper closed the books on an abandoned
	// activation that has since returned.
	TraceReap
	// TraceWriteFail: a reply or request write failed on the wire; the
	// connection is torn down so the peer redials instead of waiting on
	// a half-dead pipe.
	TraceWriteFail
	// TraceShmBind: a peer process bound over the shared-memory plane —
	// the segment was created, mapped, and its fd passed (shm.go).
	TraceShmBind
	// TraceShmPeerCrash: the peer process on a shared-memory session
	// died without a clean detach; the segment was reclaimed and the
	// session's bindings revoked.
	TraceShmPeerCrash
	// TraceShmTornDoorbell: a doorbell rang for a slot that carried no
	// staged request (torn or duplicated write); the ring entry was
	// discarded.
	TraceShmTornDoorbell
	// TraceElection: a registry replica won a leader election
	// (registry.go); Proc carries the replica id and term.
	TraceElection
	// TraceLeaseExpire: the registry leader expired a lease whose holder
	// stopped renewing; the binding was removed from every replica
	// through the replicated log.
	TraceLeaseExpire
	// TraceFailover: a replicated supervisor abandoned one endpoint and
	// re-imported through another (failover.go); Err carries the failure
	// that triggered it.
	TraceFailover
	// TraceOneWayDrop: a one-way (fire-and-forget) call failed in
	// execution and the error was discarded — nobody is waiting for a
	// reply (async.go; DESIGN §5.13). Err carries the dropped error.
	TraceOneWayDrop
	// TraceBulkSpill: in-band arguments overflowed a shm slot and were
	// spilled to the session's bulk region instead of being rejected
	// (bulk.go, shm.go); Proc carries the procedure when known.
	TraceBulkSpill
	// TraceBulkReject: a bulk payload or spill was refused — bulk region
	// absent, payload beyond its capacity, or descriptor invalid. Err
	// carries the classification the caller saw.
	TraceBulkReject

	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	"bind", "validate-fail", "stack-wait", "abandon", "panic", "terminate", "reconnect",
	"shed", "breaker-open", "breaker-close", "rebind", "reap", "write-fail",
	"shm-bind", "shm-peer-crash", "shm-torn-doorbell",
	"election", "lease-expire", "failover", "one-way-drop",
	"bulk-spill", "bulk-reject",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceEvent is one uncommon-case event on any dispatch plane.
type TraceEvent struct {
	Kind  TraceKind
	Iface string // exported interface name ("" when unknown)
	Proc  string // procedure (or share-group) label, when known
	Err   error  // the error surfaced to the caller, when any
}

func (ev TraceEvent) String() string {
	s := ev.Kind.String()
	if ev.Iface != "" {
		s += " " + ev.Iface
		if ev.Proc != "" {
			s += "." + ev.Proc
		}
	}
	if ev.Err != nil {
		s += ": " + ev.Err.Error()
	}
	return s
}

// Tracer receives uncommon-case events from the dispatch planes.
// Implementations must be safe for concurrent use and should return
// quickly: the hook runs on the goroutine that hit the event.
type Tracer interface {
	TraceEvent(TraceEvent)
}

// SetTracer installs (or, with nil, removes) the system's tracer. Like
// the fault injector, the hook is an atomic pointer: the fast path pays
// one nil-checked load only at the event sites, never per successful
// call.
func (s *System) SetTracer(t Tracer) {
	if t == nil {
		s.tracer.Store(nil)
		return
	}
	s.tracer.Store(&t)
}

// emitTrace delivers one event to the installed tracer, if any. Callers
// sit on uncommon paths only; the event struct is built after the nil
// check so the common case constructs nothing.
func (s *System) emitTrace(kind TraceKind, iface, proc string, err error) {
	if p := s.tracer.Load(); p != nil {
		(*p).TraceEvent(TraceEvent{Kind: kind, Iface: iface, Proc: proc, Err: err})
	}
}

// TraceLog is a lock-free bounded ring of trace events plus per-kind
// counters: the ready-made Tracer for tests, lrpcstat, and debugging.
// Writers claim a slot with one atomic add and publish with one atomic
// pointer store; when the ring wraps, old events are overwritten.
type TraceLog struct {
	slots  []atomic.Pointer[TraceEvent]
	next   atomic.Uint64
	counts [numTraceKinds]atomic.Uint64
}

// NewTraceLog returns a TraceLog keeping the last capacity events
// (<= 0 selects 1024).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &TraceLog{slots: make([]atomic.Pointer[TraceEvent], capacity)}
}

// TraceEvent implements Tracer.
func (l *TraceLog) TraceEvent(ev TraceEvent) {
	if int(ev.Kind) < len(l.counts) {
		l.counts[ev.Kind].Add(1)
	}
	idx := l.next.Add(1) - 1
	l.slots[idx%uint64(len(l.slots))].Store(&ev)
}

// Count returns how many events of the given kind were recorded
// (including events since overwritten in the ring).
func (l *TraceLog) Count(kind TraceKind) uint64 {
	if int(kind) >= len(l.counts) {
		return 0
	}
	return l.counts[kind].Load()
}

// Events returns the retained events, oldest first (best effort under
// concurrent writes).
func (l *TraceLog) Events() []TraceEvent {
	n := l.next.Load()
	cap64 := uint64(len(l.slots))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]TraceEvent, 0, n-start)
	for i := start; i < n; i++ {
		if p := l.slots[i%cap64].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// --- Latency histograms ---

// histBuckets is the bucket count of the log-scaled histograms: bucket i
// counts spans in [2^i, 2^(i+1)) nanoseconds, so 40 buckets span 1 ns to
// ~18 minutes. 40 buckets * 8 bytes = 320 bytes per stripe, an exact
// multiple of the cache line, so stripes never straddle a line.
const histBuckets = 40

// histStripe is one cache-line-aligned slice of a histogram: all of one
// stripe's buckets are contiguous, and distinct stripes touch distinct
// lines, so concurrent recorders never bounce a counter line — the same
// striping argument as stripedUint64, applied per bucket.
type histStripe struct {
	buckets [histBuckets]atomic.Uint64
}

// histogram is a lock-free log-bucketed latency histogram, striped by
// the invocation's Call stripe. Recording is one atomic add.
type histogram struct {
	stripes [numStripes]histStripe
}

// record adds one span. d <= 0 lands in the first bucket.
func (h *histogram) record(stripe uint32, d time.Duration) {
	ns := uint64(1)
	if d > 0 {
		ns = uint64(d)
	}
	b := bits.Len64(ns) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.stripes[stripe&(numStripes-1)].buckets[b].Add(1)
}

// snapshot folds the stripes into a HistogramSnapshot.
func (h *histogram) snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for s := range h.stripes {
		for b := 0; b < histBuckets; b++ {
			counts[b] += h.stripes[s].buckets[b].Load()
		}
	}
	var sn HistogramSnapshot
	var sum float64
	for b := 0; b < histBuckets; b++ {
		if counts[b] == 0 {
			continue
		}
		lo := uint64(1) << b
		hi := uint64(1) << (b + 1)
		sn.Buckets = append(sn.Buckets, HistBucket{LoNs: lo, HiNs: hi, Count: counts[b]})
		total += counts[b]
		sum += float64(counts[b]) * (float64(lo) + float64(hi)) / 2
	}
	sn.Count = total
	sn.SumNs = sum
	return sn
}

// HistBucket is one non-empty histogram bucket: Count spans observed in
// [LoNs, HiNs) nanoseconds.
type HistBucket struct {
	LoNs  uint64 `json:"lo_ns"`
	HiNs  uint64 `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one latency histogram.
// Count is the number of timed invocations: all of an export's first
// 1,024, then about one in 64 (see System.EnableMetrics).
type HistogramSnapshot struct {
	Count   uint64       `json:"count"`
	SumNs   float64      `json:"sum_ns"` // approximate: bucket midpoints
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Percentile returns the q-th percentile (q in [0,100]), interpolated
// linearly within the containing bucket. Zero when the histogram is
// empty.
func (h HistogramSnapshot) Percentile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 100 {
		q = 100
	}
	rank := q / 100 * float64(h.Count)
	var seen float64
	for _, b := range h.Buckets {
		next := seen + float64(b.Count)
		if next >= rank {
			frac := 0.5
			if b.Count > 0 {
				frac = (rank - seen) / float64(b.Count)
			}
			return time.Duration(float64(b.LoNs) + frac*float64(b.HiNs-b.LoNs))
		}
		seen = next
	}
	last := h.Buckets[len(h.Buckets)-1]
	return time.Duration(last.HiNs)
}

// Mean returns the approximate mean span (bucket midpoints).
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNs / float64(h.Count))
}

// Max returns the upper bound of the highest occupied bucket.
func (h HistogramSnapshot) Max() time.Duration {
	if len(h.Buckets) == 0 {
		return 0
	}
	return time.Duration(h.Buckets[len(h.Buckets)-1].HiNs)
}

// --- Per-export metrics ---

// exportMetrics is the recording state behind Export.metrics. Installed
// once by EnableMetrics; the dispatch path consults it with one atomic
// load and, when nil, does not even read the clock.
type exportMetrics struct {
	// warm counts the invocations timed during warm-up. It has a cache
	// line to itself: every sampled-or-not decision reads it, and it is
	// written only until it reaches warmSpans.
	_    [56]byte
	warm atomic.Uint64
	_    [56]byte

	dispatch histogram // whole client-visible call path
	handler  histogram // server procedure proper (all planes, via runHandler)
	copySpan histogram // argument staging + result copy (stub copies A and F)
	bulkSpan histogram // bulk-carrying dispatches end to end, payload movement included
}

// The sampling rule (DESIGN §5.9). An export times its first warmSpans
// invocations, so a short run or a test sees every span; after that it
// times about one invocation in sampleEvery.
const (
	warmSpans   = 1024
	sampleEvery = 64
)

// sample decides whether c's invocation is timed, and marks it so in
// c.timed for runHandler and the caller's own stamps. Every plane
// decides here. Past warm-up an untimed call costs a load of the
// read-shared warm-up line, one decrement and one predictable branch on
// the Call record's countdown; when the countdown runs out, the call is
// timed and the next gap drawn. The gap is random,
// not a fixed stride, so a caller cycling through procedures in a
// period that shares a factor with the stride cannot hide some of them.
func (m *exportMetrics) sample(c *Call) bool {
	if m.warm.Load() < warmSpans && m.warm.Add(1) <= warmSpans {
		c.timed = true
		return true
	}
	if c.skip > 0 {
		c.skip--
		return false
	}
	c.skip = sampleGap()
	c.timed = true
	return true
}

// sampleGap draws the number of untimed calls before the next timed one:
// uniform on [0, 2*sampleEvery-2], so one call in sampleEvery on average.
func sampleGap() uint32 { return rand.Uint32N(2*sampleEvery - 1) }

// epoch anchors monoNow.
var epoch = time.Now()

// monoNow reads the monotonic clock in nanoseconds since epoch: the one
// clock the dispatch path stamps with, and about half the cost of
// time.Now, which reads the wall clock too.
func monoNow() int64 { return int64(time.Since(epoch)) }

// poolObs is the gauge block behind astackPool.obs: checkout traffic and
// the uncommon pool events, striped like every other hot counter.
type poolObs struct {
	checkouts stripedUint64 // stacks checked out (all tiers)
	overflows stripedUint64 // overflow allocations beyond the provisioned set
	waits     stripedUint64 // WaitForAStack parks
	drops     stripedUint64 // stacks dropped: overflow into a full ring, or a revoked pool
	sheds     stripedUint64 // calls shed by admission control before reaching the pool
}

// EnableMetrics switches the recording plane on for every current and
// future export of the system: per-export latency histograms and
// per-pool gauges. Enabling is one-way and idempotent; it never blocks
// in-flight calls — recorders appear to them at the next atomic load.
//
// Latency is sampled so metrics can stay on: each export times its first
// 1,024 invocations, then about one in 64, and every other invocation
// reads no clock. Past warm-up, HistogramSnapshot.Count counts the timed
// calls and the percentiles are estimates from them; the call counters
// and pool gauges stay exact.
func (s *System) EnableMetrics() {
	s.mu.Lock()
	s.metricsOn = true
	exports := make([]*Export, 0, len(s.exports))
	for _, e := range s.exports {
		exports = append(exports, e)
	}
	s.mu.Unlock()
	for _, e := range exports {
		e.EnableMetrics()
	}
}

// EnableMetrics switches recording on for this export alone (histograms
// plus the pool gauges of every binding minted from it, including
// bindings imported before the call).
func (e *Export) EnableMetrics() {
	e.metrics.CompareAndSwap(nil, &exportMetrics{})
	e.mu.Lock()
	bindings := append([]*Binding(nil), e.bindings...)
	e.mu.Unlock()
	for _, b := range bindings {
		for _, p := range b.pools {
			p.enableObs()
		}
	}
}

// MetricsEnabled reports whether the export is recording.
func (e *Export) MetricsEnabled() bool { return e.metrics.Load() != nil }

// --- Snapshots ---

// Snapshot is a point-in-time copy of the whole system's observability
// state, fit for JSON (the MetricsHandler wire format, which lrpcstat
// renders).
type Snapshot struct {
	TakenAt    time.Time        `json:"taken_at"`
	Interfaces []ExportSnapshot `json:"interfaces"`
}

// ExportSnapshot is one export's counters, spans, and pool gauges.
type ExportSnapshot struct {
	Name       string `json:"name"`
	Terminated bool   `json:"terminated"`

	Calls       uint64 `json:"calls"`         // completed, non-panicked invocations
	Active      int64  `json:"active"`        // handler activations running now
	Abandoned   uint64 `json:"abandoned"`     // calls abandoned at their deadline
	Panics      uint64 `json:"panics"`        // handler invocations that panicked
	Sheds       uint64 `json:"sheds"`         // calls shed with ErrOverload
	Orphans     int    `json:"orphans"`       // live orphaned activations
	OneWayDrops uint64 `json:"one_way_drops"` // one-way errors discarded (async.go)

	// Chain plane (chain.go). Chains counts executed chain submissions;
	// ChainStages counts the individual stages those chains ran (a
	// depth-4 chain adds 1 and 4 respectively). Omitted when zero so
	// pre-chain snapshots round-trip unchanged.
	Chains      uint64 `json:"chains,omitempty"`       // chain executions completed or vouched
	ChainStages uint64 `json:"chain_stages,omitempty"` // stages run inside chains

	// Admission reports the overload controller's configuration and
	// occupancy; nil when admission control is off.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`

	Dispatch HistogramSnapshot `json:"dispatch"`
	Handler  HistogramSnapshot `json:"handler"`
	Copy     HistogramSnapshot `json:"copy"`
	Bulk     HistogramSnapshot `json:"bulk"`

	Pools PoolSnapshot `json:"pools"`
}

// PoolSnapshot aggregates the A-stack pool gauges across every binding
// of one export (share-group pools counted once).
type PoolSnapshot struct {
	Bindings    int   `json:"bindings"`
	Seeded      int   `json:"seeded"`      // stacks provisioned at bind time
	Free        int   `json:"free"`        // stacks visible in the rings now
	Outstanding int64 `json:"outstanding"` // stacks checked out right now

	Checkouts uint64 `json:"checkouts"`
	Overflows uint64 `json:"overflows"`
	Waits     uint64 `json:"waits"`
	Drops     uint64 `json:"drops"`
	Sheds     uint64 `json:"sheds"` // calls shed before reaching the pool
}

// AdmissionSnapshot is the overload controller's point-in-time state.
type AdmissionSnapshot struct {
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	Inflight      int64 `json:"inflight"` // admitted calls running now
	Queued        int   `json:"queued"`   // callers waiting for admission
}

// MetricsSnapshot returns the export's current observability state. The
// histograms are empty until EnableMetrics.
func (e *Export) MetricsSnapshot() ExportSnapshot {
	sn := ExportSnapshot{
		Name:       e.iface.Name,
		Terminated: e.terminated.Load(),
		Calls:      e.Calls(),
		Active:     e.Active(),
		Abandoned:  e.Abandoned(),
		Panics:     e.HandlerPanics(),
		Sheds:      e.Sheds(),
		Orphans:    e.Orphans(),
	}
	sn.OneWayDrops = e.OneWayDrops()
	sn.Chains = e.Chains()
	sn.ChainStages = e.ChainStages()
	if a := e.admission.Load(); a != nil {
		sn.Admission = &AdmissionSnapshot{
			MaxConcurrent: a.cfg.MaxConcurrent,
			MaxQueue:      a.cfg.MaxQueue,
			Inflight:      a.inflight.Load(),
			Queued:        int(a.waiters.Load()),
		}
	}
	if m := e.metrics.Load(); m != nil {
		sn.Dispatch = m.dispatch.snapshot()
		sn.Handler = m.handler.snapshot()
		sn.Copy = m.copySpan.snapshot()
		sn.Bulk = m.bulkSpan.snapshot()
	}
	e.mu.Lock()
	bindings := append([]*Binding(nil), e.bindings...)
	e.mu.Unlock()
	sn.Pools.Bindings = len(bindings)
	seen := make(map[*astackPool]bool)
	for _, b := range bindings {
		for _, p := range b.pools {
			if seen[p] {
				continue
			}
			seen[p] = true
			sn.Pools.Seeded += p.seeded
			sn.Pools.Free += p.free()
			sn.Pools.Outstanding += p.outstanding.sum()
			if o := p.obs.Load(); o != nil {
				sn.Pools.Checkouts += o.checkouts.sum()
				sn.Pools.Overflows += o.overflows.sum()
				sn.Pools.Waits += o.waits.sum()
				sn.Pools.Drops += o.drops.sum()
				sn.Pools.Sheds += o.sheds.sum()
			}
		}
	}
	return sn
}

// Snapshot returns the observability state of every live export, sorted
// by interface name.
func (s *System) Snapshot() Snapshot {
	s.mu.RLock()
	exports := make([]*Export, 0, len(s.exports))
	for _, e := range s.exports {
		exports = append(exports, e)
	}
	s.mu.RUnlock()
	sn := Snapshot{TakenAt: time.Now()}
	for _, e := range exports {
		sn.Interfaces = append(sn.Interfaces, e.MetricsSnapshot())
	}
	sort.Slice(sn.Interfaces, func(i, j int) bool {
		return sn.Interfaces[i].Name < sn.Interfaces[j].Name
	})
	return sn
}

// --- Exports: expvar, text, HTTP ---

// PublishExpvar registers the system's snapshot under the given expvar
// name (visible at /debug/vars once net/http serves). Each read of the
// variable takes a fresh snapshot.
func (s *System) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return s.Snapshot() }))
}

// WriteMetricsText renders the snapshot in a flat, line-oriented text
// form (Prometheus-style names and labels), for scraping or eyeballing.
func (s *System) WriteMetricsText(w io.Writer) error {
	sn := s.Snapshot()
	for _, e := range sn.Interfaces {
		lbl := fmt.Sprintf("{iface=%q}", e.Name)
		if _, err := fmt.Fprintf(w,
			"lrpc_calls_total%s %d\nlrpc_active%s %d\nlrpc_abandoned_total%s %d\nlrpc_handler_panics_total%s %d\nlrpc_sheds_total%s %d\nlrpc_orphans%s %d\nlrpc_one_way_drops_total%s %d\n",
			lbl, e.Calls, lbl, e.Active, lbl, e.Abandoned, lbl, e.Panics,
			lbl, e.Sheds, lbl, e.Orphans, lbl, e.OneWayDrops); err != nil {
			return err
		}
		if e.Chains > 0 {
			if _, err := fmt.Fprintf(w,
				"lrpc_chains_total%s %d\nlrpc_chain_stages_total%s %d\n",
				lbl, e.Chains, lbl, e.ChainStages); err != nil {
				return err
			}
		}
		if a := e.Admission; a != nil {
			if _, err := fmt.Fprintf(w,
				"lrpc_admission_max%s %d\nlrpc_admission_inflight%s %d\nlrpc_admission_queued%s %d\n",
				lbl, a.MaxConcurrent, lbl, a.Inflight, lbl, a.Queued); err != nil {
				return err
			}
		}
		for _, span := range []struct {
			name string
			h    HistogramSnapshot
		}{{"dispatch", e.Dispatch}, {"handler", e.Handler}, {"copy", e.Copy}, {"bulk", e.Bulk}} {
			if _, err := fmt.Fprintf(w, "lrpc_span_count{iface=%q,span=%q} %d\n",
				e.Name, span.name, span.h.Count); err != nil {
				return err
			}
			if span.h.Count == 0 {
				continue
			}
			for _, q := range []float64{50, 90, 99} {
				if _, err := fmt.Fprintf(w, "lrpc_span_ns{iface=%q,span=%q,q=\"p%.0f\"} %d\n",
					e.Name, span.name, q, span.h.Percentile(q).Nanoseconds()); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintf(w,
			"lrpc_pool_seeded%s %d\nlrpc_pool_free%s %d\nlrpc_pool_outstanding%s %d\nlrpc_pool_checkouts_total%s %d\nlrpc_pool_overflow_allocs_total%s %d\nlrpc_pool_waits_total%s %d\nlrpc_pool_drops_total%s %d\nlrpc_pool_sheds_total%s %d\n",
			lbl, e.Pools.Seeded, lbl, e.Pools.Free, lbl, e.Pools.Outstanding,
			lbl, e.Pools.Checkouts, lbl, e.Pools.Overflows, lbl, e.Pools.Waits,
			lbl, e.Pools.Drops, lbl, e.Pools.Sheds); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler serving the snapshot: JSON by
// default (the format lrpcstat consumes), line-oriented text with
// ?format=text.
func (s *System) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = s.WriteMetricsText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
}

// --- Rendering (shared by cmd/lrpcstat and the tests) ---

// Render formats the snapshot as the Table-2-style terminal report
// lrpcstat prints: per interface, the call counters, a per-span
// percentile breakdown, the residual stub/validation overhead, and the
// pool gauges.
func (sn Snapshot) Render() string {
	var b strings.Builder
	for i, e := range sn.Interfaces {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Render())
	}
	if len(sn.Interfaces) == 0 {
		b.WriteString("(no exported interfaces)\n")
	}
	return b.String()
}

// Render formats one export's snapshot.
func (e ExportSnapshot) Render() string {
	var b strings.Builder
	state := ""
	if e.Terminated {
		state = "  [terminated]"
	}
	fmt.Fprintf(&b, "interface %s%s\n", e.Name, state)
	fmt.Fprintf(&b, "  calls %d   active %d   abandoned %d   panics %d   sheds %d   orphans %d\n",
		e.Calls, e.Active, e.Abandoned, e.Panics, e.Sheds, e.Orphans)
	if e.Chains > 0 {
		fmt.Fprintf(&b, "  chains %d   stages %d   (mean depth %.1f)\n",
			e.Chains, e.ChainStages, float64(e.ChainStages)/float64(e.Chains))
	}
	if a := e.Admission; a != nil {
		fmt.Fprintf(&b, "  admission: cap %d, queue %d; %d inflight, %d queued\n",
			a.MaxConcurrent, a.MaxQueue, a.Inflight, a.Queued)
	}
	if e.Dispatch.Count > 0 || e.Handler.Count > 0 || e.Copy.Count > 0 || e.Bulk.Count > 0 {
		fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s %10s\n",
			"span", "p50", "p90", "p99", "max", "mean")
		for _, span := range []struct {
			name string
			h    HistogramSnapshot
		}{{"dispatch", e.Dispatch}, {"handler", e.Handler}, {"copy", e.Copy}, {"bulk", e.Bulk}} {
			if span.h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s %10s\n", span.name,
				fmtDur(span.h.Percentile(50)), fmtDur(span.h.Percentile(90)),
				fmtDur(span.h.Percentile(99)), fmtDur(span.h.Max()), fmtDur(span.h.Mean()))
		}
		// The Table-2 analog: total minus the measured server and copy
		// work is the facility's own overhead (stubs, validation, pool
		// traffic) — the column the paper calls "Overhead".
		if over := e.Dispatch.Mean() - e.Handler.Mean() - e.Copy.Mean(); e.Dispatch.Count > 0 && over > 0 {
			fmt.Fprintf(&b, "  overhead (dispatch - handler - copy, mean): %s\n", fmtDur(over))
		}
		b.WriteString(renderHistogram("  dispatch", e.Dispatch))
	}
	fmt.Fprintf(&b, "  pools: %d binding(s), %d seeded, %d free, %d outstanding; %d checkouts, %d overflow allocs, %d waits, %d drops, %d sheds\n",
		e.Pools.Bindings, e.Pools.Seeded, e.Pools.Free, e.Pools.Outstanding,
		e.Pools.Checkouts, e.Pools.Overflows, e.Pools.Waits, e.Pools.Drops, e.Pools.Sheds)
	return b.String()
}

// renderHistogram draws the bucket distribution as a bar chart.
func renderHistogram(title string, h HistogramSnapshot) string {
	if h.Count == 0 {
		return ""
	}
	var max uint64
	for _, bk := range h.Buckets {
		if bk.Count > max {
			max = bk.Count
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s latency distribution (%d samples):\n", title, h.Count)
	for _, bk := range h.Buckets {
		bar := int(40 * bk.Count / max)
		if bar == 0 && bk.Count > 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  %10s..%-10s %8d %s\n",
			fmtDur(time.Duration(bk.LoNs)), fmtDur(time.Duration(bk.HiNs)),
			bk.Count, strings.Repeat("#", bar))
	}
	return b.String()
}

// fmtDur renders a duration compactly at ns/µs/ms/s granularity.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
