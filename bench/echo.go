package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"lrpc"
)

// The bench.echo interface: the paper's Table 4 procedures, each with a
// result the caller can check, a stamped twin of each for the traced
// pass, and two bulk procedures. The handlers are benchmark code; the
// program under test sees only their arguments and results.
const ifaceName = "bench.echo"

const (
	procNull = iota
	procAdd
	procBigIn
	procBigInOut
)

// Each small procedure has a stamped twin at proc+stampOff: the same
// work, with the handler's entry and exit time.Now().UnixNano() appended
// to the result, so a traced cross-domain call splits into request leg,
// handler and reply leg without a span inside the program.
const (
	stampOff   = 4
	stampBytes = 16
)

const (
	procBulkSum  = 2*stampOff + iota // BulkIn: strided checksum of the payload
	procBulkFill                     // BulkOut: the seeded pattern, copied into the payload
)

const (
	bigBytes = 200
	maxBulk  = 8 << 20
)

var procNames = [4]string{"null", "add", "bigin", "biginout"}

var le = binary.LittleEndian

// wordHash is FNV-1a folded over little-endian 64-bit words instead of
// bytes: 25 multiplies for BigIn's 200 bytes, so the check stays small
// beside an 80-ns in-process call.
func wordHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ le.Uint64(b)) * 1099511628211
	}
	return h
}

// bulkStride is prime so the sampled offsets wander through the cache
// line and the page rather than hitting the same byte of each.
const bulkStride = 4099

func stridedSum(segs [][]byte, n int) uint64 {
	var sum uint64
	off := 0 // offset of the next sample within the current segment
	for _, s := range segs {
		if len(s) > n {
			s = s[:n]
		}
		for ; off < len(s); off += bulkStride {
			sum = sum*31 + uint64(s[off])
		}
		off -= len(s)
		n -= len(s)
	}
	return sum
}

// fillPattern writes the seeded pattern both sides of a BulkOut call
// generate independently.
func fillPattern(buf []byte, seed uint64) {
	x := seed | 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		le.PutUint64(buf[i:], x)
	}
}

// small runs the four Table 4 bodies; it reads its arguments before it
// asks for the result buffer, which may alias them.
func small(proc int, c *lrpc.Call, extra int) []byte {
	a := c.Args()
	switch proc {
	case procAdd:
		sum := le.Uint32(a) + le.Uint32(a[4:])
		r := c.ResultsBuf(4 + extra)
		le.PutUint32(r, sum)
		return r
	case procBigIn:
		h := wordHash(a)
		r := c.ResultsBuf(8 + extra)
		le.PutUint64(r, h)
		return r
	case procBigInOut:
		r := c.ResultsBuf(len(a) + extra)
		copy(r, a)
		return r
	}
	return c.ResultsBuf(extra)
}

func echoInterface() *lrpc.Interface {
	plain := func(proc int) lrpc.Handler {
		return func(c *lrpc.Call) { small(proc, c, 0) }
	}
	stamped := func(proc int) lrpc.Handler {
		return func(c *lrpc.Call) {
			entry := time.Now().UnixNano()
			r := small(proc, c, stampBytes)
			le.PutUint64(r[len(r)-16:], uint64(entry))
			le.PutUint64(r[len(r)-8:], uint64(time.Now().UnixNano()))
		}
	}
	procs := make([]lrpc.Proc, 0, procBulkFill+1)
	for p, name := range procNames {
		procs = append(procs, lrpc.Proc{Name: name, AStackSize: 256, Handler: plain(p)})
	}
	for p, name := range procNames {
		procs = append(procs, lrpc.Proc{Name: name + "_stamped", AStackSize: 256, Handler: stamped(p)})
	}
	var (
		mu          sync.Mutex // bulkfill may run on any server worker
		pattern     []byte
		patternSeed uint64
	)
	procs = append(procs,
		lrpc.Proc{Name: "bulksum", AStackSize: 64, Handler: func(c *lrpc.Call) {
			le.PutUint64(c.ResultsBuf(8), stridedSum(c.BulkSegments(), c.BulkLen()))
		}},
		// args: u64 pattern seed, u64 bytes wanted. The pattern is built
		// on the first call with a new seed (inside set-up's warm-up) and
		// copied afterwards, as a file server copies from its cache.
		lrpc.Proc{Name: "bulkfill", AStackSize: 64, Handler: func(c *lrpc.Call) {
			a := c.Args()
			seed, n := le.Uint64(a), int(le.Uint64(a[8:]))
			mu.Lock()
			if pattern == nil || seed != patternSeed {
				pattern = make([]byte, maxBulk)
				fillPattern(pattern, seed)
				patternSeed = seed
			}
			pattern := pattern
			mu.Unlock()
			if n > c.BulkCap() || n > len(pattern) {
				panic("bench: bulkfill larger than the reserved capacity")
			}
			done := 0
			for _, s := range c.BulkSegments() {
				done += copy(s, pattern[done:n])
			}
			c.SetBulkLen(done)
		}},
	)
	return &lrpc.Interface{Name: ifaceName, Procs: procs}
}

// newServer exports bench.echo on a fresh System, with the library's
// metrics on or off.
func newServer(metricsOn bool) (*lrpc.System, *lrpc.Export, error) {
	sys := lrpc.NewSystem()
	exp, err := sys.Export(echoInterface())
	if err != nil {
		return nil, nil, err
	}
	if metricsOn {
		sys.EnableMetrics()
	}
	return sys, exp, nil
}

// op is one generated small call and the result it must produce.
type op struct {
	proc int
	args []byte
	want []byte
}

// payload is the argument and result bytes one call moves.
func (o *op) payload() int { return len(o.args) + len(o.want) }

const opCount = 1024

// genOps makes the small mix from the seed: operand values and, within
// each group of four, the order of the four procedures. Every aligned
// group holds each procedure once, so any block or batch whose size is a
// multiple of four carries the same mix whatever the seed.
func genOps(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, opCount)
	for len(ops) < opCount {
		for _, p := range rng.Perm(4) {
			o := op{proc: p}
			switch p {
			case procAdd:
				o.args = make([]byte, 8)
				a, b := rng.Uint32(), rng.Uint32()
				le.PutUint32(o.args, a)
				le.PutUint32(o.args[4:], b)
				o.want = le.AppendUint32(nil, a+b)
			case procBigIn:
				o.args = make([]byte, bigBytes)
				rng.Read(o.args)
				o.want = le.AppendUint64(nil, wordHash(o.args))
			case procBigInOut:
				o.args = make([]byte, bigBytes)
				rng.Read(o.args)
				o.want = o.args
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// check reports whether res is the result o must produce. A stamped
// result carries 16 trailing bytes, returned as the handler's entry and
// exit times.
func (o *op) check(res []byte, stamped bool) (ok bool, entry, exit int64) {
	if stamped {
		if len(res) < stampBytes {
			return false, 0, 0
		}
		tail := res[len(res)-stampBytes:]
		entry, exit = int64(le.Uint64(tail)), int64(le.Uint64(tail[8:]))
		res = res[:len(res)-stampBytes]
	}
	return bytes.Equal(res, o.want), entry, exit
}

// bulkOp is one generated bulk call.
type bulkOp struct {
	size bulkSize
	out  bool
}

type bulkSize struct {
	name  string
	bytes int
}

var bulkSizes = []bulkSize{{"64k", 64 << 10}, {"1m", 1 << 20}, {"8m", maxBulk}}

// bulkSpan names the span around one CallBulk by direction and size.
func bulkSpan(dir string, size bulkSize) string {
	return "ShmClient.CallBulk/" + dir + "/" + size.name
}

func (o bulkOp) span() string {
	if o.out {
		return bulkSpan("out", o.size)
	}
	return bulkSpan("in", o.size)
}

// genBulkOps is a seeded order of a cycle holding every size in both
// directions twice: the order varies with the seed, the bytes per cycle
// do not, so every window sees the same mix.
func genBulkOps(seed int64) []bulkOp {
	var ops []bulkOp
	for i := 0; i < 2; i++ {
		for _, s := range bulkSizes {
			ops = append(ops, bulkOp{s, false}, bulkOp{s, true})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
