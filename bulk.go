// Bulk-data plane: Mercury-style separation of control and data
// (arXiv 1510.02135). The RPC plane keeps carrying small in-band
// messages through A-stacks, slots, and frames; payloads too large for
// that path travel through a BulkHandle registered with the call. Each
// transport moves the handle's bytes with its cheapest mechanism:
//
//   - in-process: the caller's buffer is passed by reference — zero
//     copies, under the ownership contract documented on CallBulk;
//   - shared memory: the payload lives in a bulk page region of the
//     shared segment, described to the server by a scatter/gather run
//     descriptor in the slot header; the handler reads the client's
//     pages in place (see shm.go);
//   - TCP: the payload streams outside the frame envelope, chunked by
//     the kernel; an *os.File source hands the copy to sendfile(2)
//     via io.Copy's ReadFrom fast path (see net.go).
//
// The same handle works against every transport, so TransparentBinding
// can pick the mechanism per call without the caller caring.
package lrpc

import (
	"fmt"
	"io"
)

// MaxBulkSize bounds one call's bulk payload (1 GiB). In-band
// arguments and results stay bounded by MaxOOBSize; the bulk plane
// exists exactly for payloads between those two limits. Shared-memory
// sessions are additionally bounded by the bulk region negotiated at
// dial time (ShmDialOptions.BulkBytes).
const MaxBulkSize = 1 << 30

// BulkDir is the direction a BulkHandle moves data.
type BulkDir uint8

const (
	// BulkIn sends the handle's payload client → server.
	BulkIn BulkDir = 1
	// BulkOut reserves capacity for a server → client payload.
	BulkOut BulkDir = 2
)

// bulkDirSpill marks a shm slot whose in-band arguments overflowed the
// slot and were spilled to the bulk region (never visible in handlers).
const bulkDirSpill = 3

func (d BulkDir) String() string {
	switch d {
	case BulkIn:
		return "in"
	case BulkOut:
		return "out"
	default:
		return fmt.Sprintf("BulkDir(%d)", uint8(d))
	}
}

// BulkHandle names a bulk payload for one call: a buffer or stream on
// the client side, registered with CallBulk, that the transport moves
// out-of-band. A handle is single-use state for the duration of one
// call — not safe for concurrent calls — but may be re-registered
// afterwards. Transferred reports the bytes moved by the last call.
type BulkHandle struct {
	dir  BulkDir
	buf  []byte
	src  io.Reader
	dst  io.Writer
	size int64
	n    int64
}

// NewBulkIn registers buf as a client → server payload. The transport
// reads buf during the call; the caller must not mutate it until the
// call returns. In-process the handler sees buf itself (by reference);
// the other planes copy or stream it exactly once.
func NewBulkIn(buf []byte) *BulkHandle {
	return &BulkHandle{dir: BulkIn, buf: buf}
}

// NewBulkOut registers buf as capacity for a server → client payload.
// The handler produces up to len(buf) bytes; Transferred reports how
// many landed.
func NewBulkOut(buf []byte) *BulkHandle {
	return &BulkHandle{dir: BulkOut, buf: buf}
}

// NewBulkReader registers a streaming client → server payload of
// exactly size bytes read from r. On the TCP plane the stream is
// copied straight to the socket (io.Copy, so an *os.File source uses
// sendfile where the platform provides it); on the shm plane it is
// read directly into shared pages; in-process it is materialized once.
func NewBulkReader(r io.Reader, size int64) *BulkHandle {
	return &BulkHandle{dir: BulkIn, src: r, size: size}
}

// NewBulkWriter registers a streaming server → client sink: up to max
// bytes produced by the handler are written to w after (TCP: while)
// the reply arrives.
func NewBulkWriter(w io.Writer, max int64) *BulkHandle {
	return &BulkHandle{dir: BulkOut, dst: w, size: max}
}

// Dir returns the handle's direction.
func (h *BulkHandle) Dir() BulkDir { return h.dir }

// Transferred returns the payload bytes moved by the last call through
// this handle: the bytes offered for BulkIn, the bytes the handler
// produced for BulkOut.
func (h *BulkHandle) Transferred() int64 { return h.n }

// length is the payload size (BulkIn) or reserved capacity (BulkOut).
func (h *BulkHandle) length() int64 {
	if h.buf != nil || (h.src == nil && h.dst == nil) {
		return int64(len(h.buf))
	}
	return h.size
}

// check validates the handle before any transport work.
func (h *BulkHandle) check() error {
	switch h.dir {
	case BulkIn, BulkOut:
	default:
		return fmt.Errorf("lrpc: bulk handle has no direction (use NewBulkIn/NewBulkOut)")
	}
	n := h.length()
	if n < 0 {
		return fmt.Errorf("lrpc: negative bulk size %d", n)
	}
	if n > MaxBulkSize {
		return fmt.Errorf("%w: bulk payload of %d bytes exceeds MaxBulkSize (%d)", ErrTooLarge, n, MaxBulkSize)
	}
	return nil
}

// materialize returns the full BulkIn payload as one slice: the
// registered buffer itself, or size bytes read from the stream.
func (h *BulkHandle) materialize() ([]byte, error) {
	if h.src == nil {
		return h.buf, nil
	}
	buf := make([]byte, h.size)
	if _, err := io.ReadFull(h.src, buf); err != nil {
		return nil, fmt.Errorf("lrpc: bulk source: %w", err)
	}
	return buf, nil
}

// Handler-side view -----------------------------------------------------

// HasBulk reports whether this invocation carries a bulk payload
// (attached by the client's CallBulk).
func (c *Call) HasBulk() bool { return c.bulkDir == BulkIn || c.bulkDir == BulkOut }

// BulkDir returns the bulk payload's direction, or 0 when the call
// carries none.
func (c *Call) BulkDir() BulkDir {
	if !c.HasBulk() {
		return 0
	}
	return c.bulkDir
}

// BulkLen returns the valid payload bytes of a BulkIn call.
func (c *Call) BulkLen() int { return c.bulkIn }

// BulkCap returns the total bulk capacity reserved for this call — the
// ceiling on what a BulkOut handler may produce.
func (c *Call) BulkCap() int {
	n := 0
	for _, s := range c.bulkSegs {
		n += len(s)
	}
	return n
}

// BulkSegments returns the payload's in-order segments, aliasing the
// transport's memory directly (the caller's buffer in-process, shared
// segment pages on shm): the zero-copy read/write surface. Like Args,
// the segments are valid only for the handler's duration and must not
// be retained.
func (c *Call) BulkSegments() [][]byte { return c.bulkSegs }

// Bulk returns the BulkIn payload as one contiguous slice. When the
// transport delivered a single segment this aliases it directly; a
// scattered payload is linearized with one copy (cached across calls
// to Bulk within the same invocation). Handlers that can work
// segment-at-a-time should prefer BulkSegments or BulkReader.
func (c *Call) Bulk() []byte {
	if len(c.bulkSegs) == 1 {
		return c.bulkSegs[0][:c.bulkIn]
	}
	if c.bulkFlat == nil {
		c.bulkFlat = make([]byte, c.bulkIn)
		r := bulkSegReader{c: c}
		io.ReadFull(&r, c.bulkFlat)
	}
	return c.bulkFlat[:c.bulkIn]
}

// BulkReader returns a reader over the BulkIn payload.
func (c *Call) BulkReader() io.Reader { return &bulkSegReader{c: c} }

// BulkWriter returns a writer that appends to the BulkOut payload,
// filling the reserved segments in order. Writing beyond BulkCap
// returns ErrTooLarge. The bytes written become the reply payload.
func (c *Call) BulkWriter() io.Writer { return &bulkSegWriter{c: c} }

// SetBulkLen declares that the handler produced n payload bytes by
// writing into BulkSegments directly (the in-place alternative to
// BulkWriter). Panics if n exceeds BulkCap.
func (c *Call) SetBulkLen(n int) {
	if n < 0 || n > c.BulkCap() {
		panic(fmt.Sprintf("lrpc: SetBulkLen(%d) outside bulk capacity %d", n, c.BulkCap()))
	}
	c.bulkOut = n
}

// bulkSegReader reads the BulkIn payload across segments.
type bulkSegReader struct {
	c   *Call
	off int
}

func (r *bulkSegReader) Read(p []byte) (int, error) {
	c := r.c
	if r.off >= c.bulkIn {
		return 0, io.EOF
	}
	if max := c.bulkIn - r.off; len(p) > max {
		p = p[:max]
	}
	seg, segOff := seekBulkSeg(c.bulkSegs, r.off)
	n := copy(p, seg[segOff:])
	r.off += n
	return n, nil
}

// bulkSegWriter appends to the BulkOut payload across segments,
// advancing the call's produced count.
type bulkSegWriter struct{ c *Call }

func (w *bulkSegWriter) Write(p []byte) (int, error) {
	c := w.c
	n := 0
	for len(p) > 0 {
		seg, segOff := seekBulkSeg(c.bulkSegs, c.bulkOut)
		if seg == nil {
			return n, fmt.Errorf("%w: bulk results exceed the reserved %d-byte capacity", ErrTooLarge, c.BulkCap())
		}
		k := copy(seg[segOff:], p)
		p = p[k:]
		c.bulkOut += k
		n += k
	}
	return n, nil
}

// seekBulkSeg locates the segment containing payload offset off.
func seekBulkSeg(segs [][]byte, off int) ([]byte, int) {
	for _, s := range segs {
		if off < len(s) {
			return s, off
		}
		off -= len(s)
	}
	return nil, 0
}

// Client side ----------------------------------------------------------

// CallBulk invokes proc with small in-band args plus the bulk payload
// named by h (nil h degrades to a plain Call). In-process the handler
// sees the handle's buffer by reference — zero copies — under this
// ownership contract: the caller must not touch the buffer while the
// call runs, and the handler must not retain any bulk segment after it
// returns. Stream-backed handles are materialized once. In-band args
// and results keep their usual limits; the payload is bounded by
// MaxBulkSize.
func (b *Binding) CallBulk(proc int, args []byte, h *BulkHandle) ([]byte, error) {
	if h == nil {
		return b.Call(proc, args)
	}
	if err := h.check(); err != nil {
		return nil, err
	}
	var segs [][]byte
	inLen := 0
	var outBuf []byte
	switch h.dir {
	case BulkIn:
		buf, err := h.materialize()
		if err != nil {
			return nil, err
		}
		segs = [][]byte{buf}
		inLen = len(buf)
	case BulkOut:
		outBuf = h.buf
		if outBuf == nil {
			outBuf = make([]byte, h.size)
		}
		segs = [][]byte{outBuf}
	}
	res, produced, err := b.dispatchBulk(proc, args, h.dir, segs, inLen)
	if err != nil {
		return nil, err
	}
	if h.dir == BulkIn {
		h.n = int64(inLen)
	} else {
		h.n = int64(produced)
		if h.dst != nil {
			if _, werr := h.dst.Write(outBuf[:produced]); werr != nil {
				return res, fmt.Errorf("lrpc: bulk sink: %w", werr)
			}
		}
	}
	return res, nil
}

// dispatchBulk is the server-side funnel shared by the in-process plane
// and the TCP server: the invocation core with the bulk segments
// attached. A bulk-carrying invocation lands in the bulk span histogram
// (metrics.go), payload movement included, so bulk latency is observable
// separately from the in-band path.
func (b *Binding) dispatchBulk(proc int, args []byte, dir BulkDir, segs [][]byte, inLen int) (res []byte, produced int, err error) {
	inv := invocation{proc: proc, args: args, segs: segs, dir: dir, bulkIn: inLen}
	if err := b.begin(&inv); err != nil {
		return nil, 0, err
	}
	if err := b.finish(&inv); err != nil {
		return nil, 0, err
	}
	return inv.out, inv.produced, nil
}
