package main

import (
	"slices"
	"time"
)

// epoch anchors the monotonic clock the untraced loops read.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// window is the length of one sample of the end-to-end metrics: each is
// first taken per window, and a run reports a location of the windows, so
// a stall on the shared host moves some samples, not the result.
const window = 100 * time.Millisecond

// stepResult is one caller-visible operation: a block of in-process
// calls, one cross-process call, one batch, or one bulk call.
type stepResult struct {
	calls  int
	failed int   // errors plus wrong results
	bytes  int   // payload bytes the verified calls moved
	latNs  int64 // first call issued → last reply in hand
	end    int64 // nanotime when the operation ended
}

// windowStats is one window's rates and median latency.
type windowStats struct {
	CallsPerS float64 `json:"calls_per_s"`
	BytesPerS float64 `json:"bytes_per_s"`
	P50Ns     float64 `json:"lat_p50_ns"`
}

// pass is the raw record of one closed-loop run of one workload.
type pass struct {
	lat       []float32 // ns per call, one sample per operation
	sorted    []float32 // lat in ascending order, made on first use
	wins      []windowStats
	attempted uint64
	failed    uint64
}

// runPass drives step in a closed loop — the next operation starts when
// the previous one has returned and been checked — for dur. The buffers
// are allocated and touched before the clock starts; the windows'
// medians are worked out after it stops.
func runPass(step func(*tracer) stepResult, tr *tracer, dur time.Duration) *pass {
	// 400k samples/s is twice what the fastest per-call workload reaches.
	p := &pass{
		lat:  make([]float32, int(dur.Seconds()*400e3)+1024),
		wins: make([]windowStats, 0, dur/window+1),
	}
	for i := range p.lat {
		p.lat[i] = 1
	}
	p.lat = p.lat[:0]
	ends := make([]int, 0, cap(p.wins)) // len(p.lat) at the end of each window
	start := nanotime()
	winStart, calls, bytes := start, 0, 0
	closeWindow := func(end int64) {
		el := float64(end-winStart) / 1e9
		p.wins = append(p.wins, windowStats{CallsPerS: float64(calls) / el, BytesPerS: float64(bytes) / el})
		ends = append(ends, len(p.lat))
		winStart, calls, bytes = end, 0, 0
	}
	for {
		r := step(tr)
		p.attempted += uint64(r.calls)
		p.failed += uint64(r.failed)
		if len(p.lat) < cap(p.lat) {
			p.lat = append(p.lat, float32(r.latNs)/float32(r.calls))
		}
		calls += r.calls - r.failed
		bytes += r.bytes
		if r.end-winStart >= int64(window) && len(p.wins) < cap(p.wins) {
			closeWindow(r.end)
		}
		if r.end-start >= int64(dur) {
			break
		}
	}
	if len(p.wins) == 0 { // shorter than one window: the pass is the window
		closeWindow(nanotime())
	}
	from := 0
	for i, to := range ends {
		seg := slices.Clone(p.lat[from:to])
		slices.Sort(seg)
		p.wins[i].P50Ns = quantile(seg, 0.5)
		from = to
	}
	return p
}

// merge folds the rounds of one workload into one record.
func merge(rounds []*pass) *pass {
	m := &pass{}
	for _, p := range rounds {
		m.lat = append(m.lat, p.lat...)
		m.wins = append(m.wins, p.wins...)
		m.attempted += p.attempted
		m.failed += p.failed
	}
	return m
}

// quantile of an ascending slice.
func quantile[T int64 | float32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

func median[T int64 | float32 | float64](v []T) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latencies returns the pass's per-call samples in ascending order.
func (p *pass) latencies() []float32 {
	if p.sorted == nil {
		p.sorted = slices.Clone(p.lat)
		slices.Sort(p.sorted)
	}
	return p.sorted
}

// timeBlocks is the probes' clock: it runs fn in blocks of n for about
// dur and returns the median ns of one fn, so two clock reads are spread
// over a block.
func timeBlocks(dur time.Duration, n int, fn func()) float64 {
	var samples []int64
	for start := nanotime(); nanotime()-start < int64(dur) || len(samples) < 3; {
		t0 := nanotime()
		for i := 0; i < n; i++ {
			fn()
		}
		samples = append(samples, nanotime()-t0)
	}
	return median(samples) / float64(n)
}
