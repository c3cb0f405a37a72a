//go:build linux

package lrpc

// Cross-process LRPC over a shared-memory segment: the paper's design
// carried between two real OS protection domains. The structure maps
// onto §§3.1–3.3 directly:
//
//   - Bind time (§3.1): the client connects to the server's Unix domain
//     socket and names an interface. The server validates the name (the
//     clerk's import check), creates an anonymous mmap'd segment holding
//     pairwise A-stacks and two doorbell rings, and passes the segment's
//     file descriptor back over SCM_RIGHTS — the analog of the kernel
//     handing the client a Binding Object plus A-stack list. Only a peer
//     the server explicitly answered ever holds the mapping.
//   - Call time (§3.2, technique 2): the client stub writes arguments
//     once, directly into a shared A-stack slot, and rings a doorbell (a
//     lock-free ring entry naming the slot). No sockets, no frames, no
//     kernel copy: the only data movement is the single argument copy in
//     and the single result copy out.
//   - Control transfer (§3.2, technique 1's trap analog): the doorbell
//     write plus a bounded spin on the peer's side; when the peer is not
//     spinning, a shared-futex wake replaces the trap into the kernel.
//   - Termination/crash (§5.3): each side watches the handshake socket.
//     EOF without a clean "bye" (plus a still-armed ring epoch) means
//     the peer died: in-flight calls resolve ErrCallFailed, subsequent
//     calls ErrRevoked — the same exceptions the in-process plane raises
//     — and the segment is unmapped once every activation has drained.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"lrpc/internal/shmring"
)

// --- segment layout ---

const (
	shmMagic   = uint64(0x314D4853_43505254) // segment/handshake tag ("TRPCSHM1")
	shmVersion = uint32(2)                   // v2: bulk region + per-slot descriptors

	shmHdrSize  = 128
	slotHdrSize = 64

	// Bulk region geometry: the segment tail past the slots is a
	// page-granular pool the client allocates from; a call names its
	// pages through a scatter/gather descriptor area between the slot
	// header and the payload, and the server reads them in place —
	// Mercury's registered-bulk-handle model over the paper's pairwise
	// segment (DESIGN §5.14).
	bulkPageSize = 64 << 10
	bulkDescSize = 256 // u32 run count + maxBulkRuns × (u32 page, u32 count)
	maxBulkRuns  = (bulkDescSize - 4) / 8

	// slotPayloadOff is where the in-band payload starts inside a slot's
	// stride: header, then descriptor area, then A-stack bytes.
	slotPayloadOff = slotHdrSize + bulkDescSize

	// segment header offsets
	shmOffMagic       = 0
	shmOffVersion     = 8
	shmOffNSlots      = 12
	shmOffSlotSize    = 16
	shmOffServerEpoch = 20
	shmOffClientEpoch = 24
	shmOffBulkBytes   = 32 // u64: granted bulk-region size

	// per-slot header offsets (relative to the slot base)
	slotOffState   = 0
	slotOffProc    = 4
	slotOffArgLen  = 8
	slotOffResLen  = 12
	slotOffCode    = 16
	slotOffCallID  = 24
	slotOffBulkLen = 32 // u64: payload length (in/spill) or produced length (out reply)
	slotOffBulkCap = 40 // u64: capacity the descriptor's pages provide
	slotOffBulkDir = 48 // u32: BulkDir, bulkDirSpill, or 0 for a plain call
	slotOffNoHint  = 56 // u64: call ID up to which a spinning caller wants no reply hint; 0 = always hint

	// slot states
	slotIdle    = uint32(0)
	slotPosted  = uint32(1)
	slotActive  = uint32(2)
	slotDoneOK  = uint32(3)
	slotDoneErr = uint32(4)

	// slotCodeFailure is a failed call's reply code word: the payload is
	// its failure record (appendFailure, chain.go). Codes 1–6 (a sentinel
	// code over bare text) are read from older servers only.
	slotCodeFailure = uint32(7)

	// handshake
	shmReplySize = 256
	shmByeByte   = byte('B')
)

// shmLayout is the deterministic geometry of a segment, computed
// identically on both sides from the handshake's (nslots, slotSize,
// bulkBytes).
type shmLayout struct {
	nslots    int
	slotSize  int
	bulkBytes int // granted bulk-region size; 0 disables the bulk plane
	ringCap   int
	c2sOff    int
	s2cOff    int
	slotsOff  int
	stride    int
	bulkOff   int
	segSize   int
}

func shmLayoutFor(nslots, slotSize int, bulkBytes int) shmLayout {
	align := func(n, a int) int { return (n + a - 1) &^ (a - 1) }
	l := shmLayout{nslots: nslots, slotSize: slotSize, bulkBytes: bulkBytes}
	// The rings hold slot indices plus slack, so a torn or duplicated
	// doorbell can never wedge a full ring.
	l.ringCap = shmring.CapFor(2 * nslots)
	// Each ring region starts 64-byte aligned regardless of capacity.
	ringSize := align(shmring.Size(l.ringCap), 64)
	l.c2sOff = shmHdrSize
	l.s2cOff = l.c2sOff + ringSize
	l.slotsOff = l.s2cOff + ringSize
	l.stride = slotPayloadOff + align(slotSize, 64)
	l.bulkOff = align(l.slotsOff+nslots*l.stride, 4096)
	l.segSize = align(l.bulkOff+bulkBytes, 4096)
	return l
}

func (l shmLayout) slotBase(i uint32) int { return l.slotsOff + int(i)*l.stride }

func shmU32(seg []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&seg[off]))
}

func shmU64(seg []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&seg[off]))
}

// shmPut32 and shmPut64 write a slot header word with a plain store. They
// serve the words a later store of the slot's state word publishes: the
// request header before slotPosted, the reply header before the done
// state (DESIGN §5.11, "No lock on the client's call path").
func shmPut32(seg []byte, off int, v uint32) { *(*uint32)(unsafe.Pointer(&seg[off])) = v }

func shmPut64(seg []byte, off int, v uint64) { *(*uint64)(unsafe.Pointer(&seg[off])) = v }

// --- segment creation ---

// newShmSegment creates an anonymous shared segment of the given size
// and maps it. The backing file is created in /dev/shm (tmpfs) when
// available and unlinked immediately: the fd — soon to be passed over
// SCM_RIGHTS — is the only capability that reaches the mapping, which
// is what preserves a measure of the paper's binding-object
// unforgeability (see DESIGN §5.11).
func newShmSegment(size int) (*os.File, []byte, error) {
	dir := "/dev/shm"
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "lrpc-seg-*")
	if err != nil {
		return nil, nil, fmt.Errorf("lrpc: shm segment: %w", err)
	}
	os.Remove(f.Name())
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("lrpc: shm segment: %w", err)
	}
	seg, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("lrpc: shm mmap: %w", err)
	}
	return f, seg, nil
}

// --- server ---

// ShmServer accepts shared-memory sessions for a System over a Unix
// domain socket: the same-machine, separate-process transport plane.
// It mirrors ServeNetwork's shape — accept, bind, serve, teardown —
// but after the bind handshake no call ever touches the socket.
type ShmServer struct {
	sys  *System
	opts ShmServeOptions

	mu        sync.Mutex
	listeners map[*net.UnixListener]struct{}
	sessions  map[*shmSession]struct{}
	closed    bool

	sessionsTotal  atomic.Uint64
	activeSessions atomic.Int64
	reclaimed      atomic.Uint64
	segBytes       atomic.Int64
	calls          atomic.Uint64
	torn           atomic.Uint64
	replyHints     atomic.Uint64
	peerCrashes    atomic.Uint64
	cleanDetaches  atomic.Uint64
}

// NewShmServer builds a server for sys. Serve it on one or more
// listeners; Close tears down listeners and all live sessions.
func NewShmServer(sys *System, opts ShmServeOptions) *ShmServer {
	opts.fill()
	return &ShmServer{
		sys:       sys,
		opts:      opts,
		listeners: make(map[*net.UnixListener]struct{}),
		sessions:  make(map[*shmSession]struct{}),
	}
}

// ListenShm listens on a Unix domain socket path for shared-memory
// bind handshakes, replacing any stale socket file at that path.
func ListenShm(path string) (*net.UnixListener, error) {
	os.Remove(path)
	return net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
}

// ServeShm serves shared-memory sessions on l with default options,
// blocking until the listener fails or the server is closed.
func (s *System) ServeShm(l *net.UnixListener) error {
	return NewShmServer(s, ShmServeOptions{}).Serve(l)
}

// Serve accepts bind handshakes until the listener fails (or Close).
func (sv *ShmServer) Serve(l *net.UnixListener) error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	sv.listeners[l] = struct{}{}
	sv.mu.Unlock()
	for {
		conn, err := l.AcceptUnix()
		if err != nil {
			sv.mu.Lock()
			delete(sv.listeners, l)
			closed := sv.closed
			sv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go sv.handshake(conn)
	}
}

// Stats snapshots the server side of the plane.
func (sv *ShmServer) Stats() ShmServerStats {
	return ShmServerStats{
		Sessions:          sv.sessionsTotal.Load(),
		ActiveSessions:    sv.activeSessions.Load(),
		SegmentsReclaimed: sv.reclaimed.Load(),
		SegmentBytes:      sv.segBytes.Load(),
		Calls:             sv.calls.Load(),
		TornDoorbells:     sv.torn.Load(),
		ReplyHints:        sv.replyHints.Load(),
		PeerCrashes:       sv.peerCrashes.Load(),
		CleanDetaches:     sv.cleanDetaches.Load(),
	}
}

// Close stops the listeners and signals every live session to shut
// down. Session teardown is asynchronous: each session unmaps its
// segment once its in-flight handlers have drained (watch Stats).
func (sv *ShmServer) Close() error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil
	}
	sv.closed = true
	ls := make([]*net.UnixListener, 0, len(sv.listeners))
	for l := range sv.listeners {
		ls = append(ls, l)
	}
	ss := make([]*shmSession, 0, len(sv.sessions))
	for s := range sv.sessions {
		ss = append(ss, s)
	}
	sv.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, s := range ss {
		s.serverClose()
	}
	return nil
}

// handshake answers one bind request: validate the import, build and
// map the segment, pass its fd, then serve the session on this
// goroutine (which becomes the crash watchdog).
func (sv *ShmServer) handshake(conn *net.UnixConn) {
	// A refused bind answers with its text and, in bytes 4–8, its
	// sentinel code (wireSentinels), so the client's error matches the
	// local Import failure under errors.Is.
	fail := func(err error) {
		code, msg := wireFailure(err)
		reply := make([]byte, shmReplySize)
		reply[0] = 1
		binary.LittleEndian.PutUint32(reply[4:8], code)
		if len(msg) > shmReplySize-26 {
			msg = msg[:shmReplySize-26]
		}
		binary.LittleEndian.PutUint16(reply[24:26], uint16(len(msg)))
		copy(reply[26:], msg)
		conn.Write(reply)
		conn.Close()
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	frame, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	if len(frame) < 30 || binary.LittleEndian.Uint64(frame[0:8]) != shmMagic {
		fail(errors.New("lrpc: bad shm bind request"))
		return
	}
	if v := binary.LittleEndian.Uint32(frame[8:12]); v != shmVersion {
		fail(fmt.Errorf("lrpc: shm version %d unsupported", v))
		return
	}
	slots := int(binary.LittleEndian.Uint32(frame[12:16]))
	slotSize := int(binary.LittleEndian.Uint32(frame[16:20]))
	bulkBytes := int64(binary.LittleEndian.Uint64(frame[20:28]))
	nameLen := int(binary.LittleEndian.Uint16(frame[28:30]))
	if len(frame) < 30+nameLen {
		fail(errors.New("lrpc: truncated shm bind request"))
		return
	}
	name := string(frame[30 : 30+nameLen])
	// Optional trailing tenant identity (u16 len + bytes): clients
	// predating the field send exactly 30+nameLen bytes, so its absence
	// is not an error — the Admit hook then sees "".
	tenant := ""
	if rest := frame[30+nameLen:]; len(rest) > 0 {
		if len(rest) < 2 {
			fail(errors.New("lrpc: truncated shm bind request"))
			return
		}
		tl := int(binary.LittleEndian.Uint16(rest[0:2]))
		if tl > brokerMaxIdent || len(rest) != 2+tl {
			fail(errors.New("lrpc: malformed tenant field in shm bind request"))
			return
		}
		tenant = string(rest[2 : 2+tl])
	}
	// Bind-time tenant admission, ahead of any resource work: a refused
	// tenant costs the server one reply frame, not a segment.
	if sv.opts.Admit != nil {
		if aerr := sv.opts.Admit(tenant, name); aerr != nil {
			fail(aerr)
			return
		}
	}
	if slots < 1 {
		slots = 1
	}
	if slots > sv.opts.MaxSlots {
		slots = sv.opts.MaxSlots
	}
	if slotSize < 64 {
		slotSize = 64
	}
	// A slot request the server cannot honor is a deterministic bind
	// failure, never a silent clamp: a clamped slot would truncate the
	// arguments of calls the client sized against what it asked for.
	if slotSize > sv.opts.MaxSlotSize {
		fail(fmt.Errorf("%w: requested %d-byte slots exceed the server's %d-byte maximum",
			ErrTooLarge, slotSize, sv.opts.MaxSlotSize))
		return
	}
	// The bulk grant, by contrast, is a negotiation: the client checks
	// every payload against the granted size, so capping it loses no
	// data. Round up to whole pages.
	if bulkBytes < 0 {
		bulkBytes = 0
	}
	if bulkBytes > sv.opts.MaxBulkBytes {
		bulkBytes = sv.opts.MaxBulkBytes
	}
	if bulkBytes > MaxBulkSize {
		bulkBytes = MaxBulkSize
	}
	bulkBytes = (bulkBytes + bulkPageSize - 1) &^ (bulkPageSize - 1)

	// Bind-time validation: the import either succeeds now or the
	// caller never gets a segment — there is no per-call name check.
	b, err := sv.sys.Import(name)
	if err != nil {
		fail(err)
		return
	}

	lay := shmLayoutFor(slots, slotSize, int(bulkBytes))
	f, seg, err := newShmSegment(lay.segSize)
	if err != nil {
		fail(err)
		return
	}
	shmU64(seg, shmOffMagic).Store(shmMagic)
	shmU32(seg, shmOffVersion).Store(shmVersion)
	shmU32(seg, shmOffNSlots).Store(uint32(slots))
	shmU32(seg, shmOffSlotSize).Store(uint32(slotSize))
	shmU64(seg, shmOffBulkBytes).Store(uint64(bulkBytes))
	shmU32(seg, shmOffServerEpoch).Store(1)
	c2s, err := shmring.Init(seg[lay.c2sOff:lay.s2cOff], lay.ringCap)
	if err == nil {
		var s2c *shmring.Ring
		s2c, err = shmring.Init(seg[lay.s2cOff:lay.slotsOff], lay.ringCap)
		if err == nil {
			ss := &shmSession{
				sv:   sv,
				conn: conn,
				seg:  seg,
				lay:  lay,
				c2s:  c2s,
				s2c:  s2c,
				b:    b,
			}
			reply := make([]byte, shmReplySize)
			reply[0] = 0
			binary.LittleEndian.PutUint32(reply[4:8], uint32(slots))
			binary.LittleEndian.PutUint32(reply[8:12], uint32(slotSize))
			binary.LittleEndian.PutUint64(reply[16:24], uint64(lay.segSize))
			binary.LittleEndian.PutUint64(reply[32:40], uint64(bulkBytes))
			rights := syscall.UnixRights(int(f.Fd()))
			if _, _, werr := conn.WriteMsgUnix(reply, rights, nil); werr != nil {
				err = werr
			} else {
				f.Close()
				conn.SetDeadline(time.Time{})
				sv.mu.Lock()
				if sv.closed {
					sv.mu.Unlock()
					syscall.Munmap(seg)
					conn.Close()
					return
				}
				sv.sessions[ss] = struct{}{}
				sv.mu.Unlock()
				sv.sessionsTotal.Add(1)
				sv.activeSessions.Add(1)
				sv.segBytes.Add(int64(lay.segSize))
				sv.sys.emitTrace(TraceShmBind, name, "", nil)
				ss.run()
				return
			}
		}
	}
	f.Close()
	syscall.Munmap(seg)
	fail(fmt.Errorf("lrpc: shm session setup: %v", err))
}

// shmSession is the server side of one client process's segment.
type shmSession struct {
	sv   *ShmServer
	conn *net.UnixConn
	seg  []byte
	lay  shmLayout
	c2s  *shmring.Ring
	s2c  *shmring.Ring
	b    *Binding

	stop        atomic.Bool
	byServer    atomic.Bool
	wg          sync.WaitGroup
	closeOnce   sync.Once
	sendByeOnce sync.Once
}

// run starts the dispatch workers and then watches the handshake socket
// for the peer's fate; it returns after the segment is reclaimed.
func (ss *shmSession) run() {
	for i := 0; i < ss.sv.opts.Workers; i++ {
		ss.wg.Add(1)
		go ss.worker()
	}
	// The socket carries no calls; a read resolves only when the peer
	// detaches ("bye") or dies (EOF/error) — §5.3's termination signal.
	clean := false
	if _, err := ss.conn.Read(make([]byte, 16)); err == nil {
		clean = true // any bytes at all are the client's bye frame
	}
	// Second signal: a crashing client never cleared its ring epoch.
	if !clean && shmU32(ss.seg, shmOffClientEpoch).Load() == 0 {
		clean = true
	}
	if ss.byServer.Load() {
		clean = true
	}
	ss.teardown(clean)
}

// serverClose initiates a server-side session shutdown: tell the client
// ("bye" + close), which also unblocks the watchdog read in run().
func (ss *shmSession) serverClose() {
	ss.byServer.Store(true)
	ss.sendByeOnce.Do(func() {
		ss.conn.SetWriteDeadline(time.Now().Add(time.Second))
		writeFrame(ss.conn, []byte{shmByeByte})
	})
	ss.conn.Close()
}

// teardown drains the workers and reclaims the segment — the server
// never unmaps under a running handler.
func (ss *shmSession) teardown(clean bool) {
	ss.closeOnce.Do(func() {
		ss.stop.Store(true)
		ss.c2s.WakeAll()
		ss.conn.Close()
		ss.wg.Wait()
		sv := ss.sv
		sv.mu.Lock()
		delete(sv.sessions, ss)
		sv.mu.Unlock()
		syscall.Munmap(ss.seg)
		sv.activeSessions.Add(-1)
		sv.segBytes.Add(-int64(ss.lay.segSize))
		sv.reclaimed.Add(1)
		if clean {
			sv.cleanDetaches.Add(1)
		} else {
			sv.peerCrashes.Add(1)
			sv.sys.emitTrace(TraceShmPeerCrash, ss.b.exp.iface.Name, "", nil)
		}
	})
}

// worker pops doorbells and dispatches. The pop spins briefly (the
// server "spinning on a shared variable" while the call is in flight),
// then parks on the shared futex with no timer: a doorbell wakes it, or
// teardown's WakeAll once stop is set.
func (ss *shmSession) worker() {
	defer ss.wg.Done()
	for {
		v, ok := ss.c2s.PopWait(ss.sv.opts.Spin, 0, ss.stop.Load)
		if !ok {
			return
		}
		ss.dispatch(v)
	}
}

// dispatch runs one doorbell: validate the slot, run the handler on
// the shared A-stack, publish the reply in the slot's state word, and
// ring back unless a spinning synchronous caller asked not to be.
func (ss *shmSession) dispatch(v uint64) {
	sv := ss.sv
	if v >= uint64(ss.lay.nslots) {
		sv.torn.Add(1)
		sv.sys.emitTrace(TraceShmTornDoorbell, ss.b.exp.iface.Name, "", nil)
		return
	}
	base := ss.lay.slotBase(uint32(v))
	state := shmU32(ss.seg, base+slotOffState)
	if !state.CompareAndSwap(slotPosted, slotActive) {
		// A doorbell for a slot with no staged request: torn write,
		// duplicate, or injected garbage. Discard the ring entry; the
		// slot (if any) is untouched.
		sv.torn.Add(1)
		sv.sys.emitTrace(TraceShmTornDoorbell, ss.b.exp.iface.Name, "", nil)
		return
	}
	proc := int(shmU32(ss.seg, base+slotOffProc).Load())
	argLen := int(shmU32(ss.seg, base+slotOffArgLen).Load())
	dir := shmU32(ss.seg, base+slotOffBulkDir).Load()
	callID := shmU64(ss.seg, base+slotOffCallID).Load()
	payload := ss.seg[base+slotPayloadOff : base+slotPayloadOff+ss.lay.slotSize]
	var (
		resLen   int
		oob      []byte
		produced int
		err      error
	)
	switch {
	case argLen > ss.lay.slotSize:
		err = fmt.Errorf("%w: %d argument bytes exceed the %d-byte slot",
			ErrTooLarge, argLen, ss.lay.slotSize)
	case dir == 0:
		resLen, oob, _, err = ss.b.callSharedBulk(proc, payload, payload[:argLen], nil, 0, 0)
	case dir == uint32(bulkDirChain):
		resLen, err = ss.dispatchChain(payload, argLen)
	default:
		resLen, oob, produced, err = ss.dispatchBulk(base, dir, proc, payload, argLen)
	}
	if err == nil && oob != nil {
		// Out-of-band results do not fit the pairwise A-stack; the shm
		// plane has no side channel for them, so they surface as the
		// size exception rather than silent truncation.
		err = fmt.Errorf("%w: %d result bytes exceed the %d-byte slot",
			ErrTooLarge, resLen, ss.lay.slotSize)
	}
	if err == nil && dir == uint32(BulkOut) {
		shmPut64(ss.seg, base+slotOffBulkLen, uint64(produced))
	}
	done := slotDoneOK
	if err != nil {
		done = slotDoneErr
		body := appendFailure(payload[:0], err, ss.lay.slotSize)
		shmPut32(ss.seg, base+slotOffResLen, uint32(len(body)))
		shmPut32(ss.seg, base+slotOffCode, slotCodeFailure)
	} else {
		shmPut32(ss.seg, base+slotOffResLen, uint32(resLen))
		shmPut32(ss.seg, base+slotOffCode, 0)
	}
	// The state word is the reply, and its Swap publishes the plain stores
	// of the reply header above (DESIGN §5.11). A spinning synchronous
	// caller polls it and wants nothing more, and says so by posting with
	// the slot's no-hint word at its own call ID. The word is read once,
	// after the state is published (awaitReply has the ordering
	// argument), and decides only whether a ring entry follows: zero, or
	// a mark left by an earlier occupant, means this call is hinted. It
	// is client-writable, like the ID it is compared with, so a lying
	// client can withhold nothing but its own wake-up.
	//
	// Swap, not Store: the load below must not pass it (the store→load
	// pair with awaitReply). Under the race detector a sync/atomic Store
	// to memory outside the Go heap, such as the mapped segment, is
	// release-only; a read-modify-write is a full barrier in both builds
	// and is the XCHG amd64 already emits for Store.
	state.Swap(done)
	noHint := shmU64(ss.seg, base+slotOffNoHint).Load()
	sv.calls.Add(1)
	if noHint != 0 && noHint >= callID {
		return
	}
	sv.replyHints.Add(1)
	for !ss.s2c.Push(v) {
		// Cannot persist: the ring holds 2× the slots.
		shmring.Yield()
	}
	ss.s2c.Bump()
}

// readBulkDesc parses and validates one slot's scatter/gather
// descriptor. The descriptor lives in client-writable memory, so every
// field is hostile until proven in-bounds: run counts, page indices,
// and totals are checked against the granted bulk region before any
// segment slice is built — a forged descriptor must never hand a
// handler bytes outside the bulk region.
func (ss *shmSession) readBulkDesc(base int) (segs [][]byte, total int64, err error) {
	if ss.lay.bulkBytes == 0 {
		return nil, 0, errors.New("lrpc: shm bulk call on a session with no bulk region")
	}
	npages := ss.lay.bulkBytes / bulkPageSize
	desc := ss.seg[base+slotHdrSize : base+slotPayloadOff]
	nruns := int(binary.LittleEndian.Uint32(desc[0:4]))
	if nruns > maxBulkRuns {
		return nil, 0, fmt.Errorf("lrpc: shm bulk descriptor claims %d runs", nruns)
	}
	segs = make([][]byte, 0, nruns)
	for i := 0; i < nruns; i++ {
		start := int(binary.LittleEndian.Uint32(desc[4+i*8:]))
		count := int(binary.LittleEndian.Uint32(desc[8+i*8:]))
		if count <= 0 || start > npages-count {
			return nil, 0, fmt.Errorf(
				"lrpc: shm bulk descriptor run [%d,+%d) outside the %d-page region",
				start, count, npages)
		}
		off := ss.lay.bulkOff + start*bulkPageSize
		segs = append(segs, ss.seg[off:off+count*bulkPageSize])
		total += int64(count) * bulkPageSize
	}
	return segs, total, nil
}

// truncSegs limits a segment list to its first n bytes.
func truncSegs(segs [][]byte, n int64) [][]byte {
	out := segs[:0]
	for _, s := range segs {
		if n <= 0 {
			break
		}
		if int64(len(s)) > n {
			s = s[:n]
		}
		out = append(out, s)
		n -= int64(len(s))
	}
	return out
}

// dispatchBulk runs one bulk-carrying doorbell: validate the
// descriptor, then route by direction — spilled arguments re-enter the
// plain dispatch path with the bulk pages as the argument bytes, while
// in/out payloads surface through the Call's bulk accessors with the
// pages read and written in place (the plane's zero-copy transfer).
func (ss *shmSession) dispatchBulk(base int, dir uint32, proc int, payload []byte, argLen int) (resLen int, oob []byte, produced int, err error) {
	segs, total, err := ss.readBulkDesc(base)
	if err != nil {
		return 0, nil, 0, err
	}
	bulkCap := int64(shmU64(ss.seg, base+slotOffBulkCap).Load())
	bulkLen := int64(shmU64(ss.seg, base+slotOffBulkLen).Load())
	if bulkCap > total {
		bulkCap = total
	}
	if bulkLen < 0 || bulkLen > bulkCap {
		return 0, nil, 0, fmt.Errorf(
			"lrpc: shm bulk length %d outside the %d-byte descriptor capacity", bulkLen, bulkCap)
	}
	segs = truncSegs(segs, bulkCap)
	switch dir {
	case uint32(bulkDirSpill):
		// The arguments themselves spilled past the slot: hand them to
		// the plain dispatch path. A single run aliases the pages
		// directly; a scattered spill is linearized once.
		var args []byte
		if len(segs) == 1 {
			args = segs[0][:bulkLen]
		} else {
			args = make([]byte, bulkLen)
			n := 0
			for _, s := range segs {
				n += copy(args[n:], s)
			}
		}
		resLen, oob, _, err = ss.b.callSharedBulk(proc, payload, args, nil, 0, 0)
		return resLen, oob, 0, err
	case uint32(BulkIn), uint32(BulkOut):
		return ss.b.callSharedBulk(proc, payload, payload[:argLen], segs, BulkDir(dir), int(bulkLen))
	}
	return 0, nil, 0, fmt.Errorf("lrpc: shm bulk direction %d invalid", dir)
}

// dispatchChain runs one chain-carrying doorbell: the slot payload is
// an LBC1 descriptor, and the whole dependent pipeline executes in this
// domain (execChain, chain.go) before the single reply doorbell rings
// back — the paper's domain-crossing elimination applied to N dependent
// calls at once. A failure surfaces as a *ChainError, whose failure
// record dispatch writes.
func (ss *shmSession) dispatchChain(payload []byte, argLen int) (int, error) {
	stages, perr := parseChain(payload[:argLen])
	if perr != nil {
		// Malformed descriptor: nothing dispatched, vouch zero stages.
		return 0, &ChainError{Stage: 0, Executed: 0, Err: perr}
	}
	out, cerr := ss.b.execChain(stages, time.Time{})
	if cerr != nil {
		return 0, cerr
	}
	if len(out) > ss.lay.slotSize {
		// The slot is the only reply channel; an oversized final result
		// is the size exception, same as a plain shm call's oob case.
		// Every stage ran, so the record says so.
		return 0, &ChainError{Stage: len(stages) - 1, Executed: len(stages), Err: fmt.Errorf(
			"%w: %d result bytes exceed the %d-byte slot", ErrTooLarge, len(out), ss.lay.slotSize)}
	}
	return copy(payload, out), nil
}

// callSharedBulk is the dispatch half of a shared-memory call: the
// invocation core adopting the segment's pairwise slot as its A-stack.
// The arguments are already on it when the doorbell rings (or, for a
// spilled call, in bulk pages), so there is no copy A and no pool
// checkout; an optional bulk payload is exposed to the handler in
// place. In-band results are in the slot when it returns; results that
// outgrew it come back as oob. After a panic the slot is reused freely
// — the client overwrites it on its next call.
func (b *Binding) callSharedBulk(proc int, astack, args []byte, segs [][]byte, dir BulkDir, bulkIn int) (resLen int, oob []byte, produced int, err error) {
	inv := invocation{proc: proc, args: args, astack: astack, segs: segs, dir: dir, bulkIn: bulkIn}
	if err := b.begin(&inv); err != nil {
		return 0, nil, 0, err
	}
	if err := b.finish(&inv); err != nil {
		return 0, nil, 0, err
	}
	if len(inv.out) > len(astack) {
		oob = inv.out
	}
	return len(inv.out), oob, inv.produced, nil
}

// --- client ---

// ShmClient is one process's client side of a shared-memory session:
// the holder of the passed segment fd, a free-list of pairwise A-stack
// slots, and the doorbell rings.
type ShmClient struct {
	name string
	opts ShmDialOptions
	conn *net.UnixConn
	seg  []byte
	lay  shmLayout
	c2s  *shmring.Ring
	s2c  *shmring.Ring

	// The call path takes no lock (DESIGN §5.11): refs, the free-slot
	// stack and the segment's own words are all it shares.
	//
	// The free slots, the A-stack queue of §3.1 on the client's side of
	// the wall: a LIFO stack, so a lone caller reuses one hot slot. freeTop
	// packs a tag, bumped by every change, above the top slot's index + 1
	// (0: empty), so a stale compare-and-swap always fails (no ABA);
	// freeNext[id] links slot id to the index + 1 below it. A caller that
	// finds the stack empty, or callers waiting, counts itself in
	// freeWaiters and sleeps on freeToken, which holds at most one token
	// (acquire, recycle).
	freeTop     atomic.Uint64
	freeNext    []atomic.Uint32
	freeWaiters atomic.Int32
	freeToken   chan struct{}

	sigs   []chan struct{}
	callID atomic.Uint64

	// Bulk plane: the client owns page allocation in the segment's bulk
	// region; bulkHeld marks slots holding pages so the recycle fast
	// path skips the allocator lock for plain calls. nil/absent when the
	// session was granted no bulk region.
	bulk     *shmBulkAlloc
	bulkHeld []atomic.Bool

	// Async plane (shm_async.go): per-slot submission kind and, for
	// kindAsync slots, the future awaiting the reply. Both are written
	// before the slot is posted and claimed exactly once on completion
	// (futs by Swap, kinds by CompareAndSwap), so a duplicated or torn
	// reply hint cannot double-complete.
	kinds []atomic.Uint32
	futs  []atomic.Pointer[Future]

	// parked counts callers (and orphan watchers) blocked on a sigs
	// channel, and the async, one-way and handed-over batch submissions
	// in flight; kick rouses the demultiplexer out of its process-local
	// sleep when the count goes positive. While parked is zero the
	// demultiplexer holds no futex wait, so the server's reply doorbell
	// costs no wake syscall — the spin-regime fast path, which a batch
	// drained by its own waiter stays on (shm_async.go).
	parked atomic.Int32
	kick   chan struct{}

	dead       chan struct{}
	deadOnce   sync.Once
	userClosed atomic.Bool
	crashed    atomic.Bool
	demuxDone  chan struct{}

	// refs counts the references calls hold on the mapping (begin, end).
	// refClosing is set once, by Close or markDead; after it no reference
	// is taken, and the end that leaves the bit alone closes drained,
	// which the reaper waits for before it unmaps.
	refs    atomic.Int64
	drained chan struct{}

	mu       sync.Mutex // Close's epoch store against the reaper's unmap
	unmapped bool

	calls       atomic.Uint64
	chains      atomic.Uint64
	failures    atomic.Uint64
	timeouts    atomic.Uint64
	spinReplies atomic.Uint64
	parkReplies atomic.Uint64

	asyncCalls   atomic.Uint64
	oneWays      atomic.Uint64
	oneWayDrops  atomic.Uint64
	batches      atomic.Uint64
	batchedCalls atomic.Uint64
}

// DialShm binds to an interface served by another process's ShmServer
// at the given Unix socket path, with default options.
func DialShm(path, name string) (*ShmClient, error) {
	return DialShmOpts(path, name, ShmDialOptions{})
}

// DialShmOpts performs the bind-time handshake: send the request, and
// receive the reply carrying the segment fd over SCM_RIGHTS. On
// success the returned client calls entirely through shared memory.
func DialShmOpts(path, name string, opts ShmDialOptions) (*ShmClient, error) {
	opts.fill()
	conn, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := make([]byte, 0, 30+len(name))
	req = binary.LittleEndian.AppendUint64(req, shmMagic)
	req = binary.LittleEndian.AppendUint32(req, shmVersion)
	req = binary.LittleEndian.AppendUint32(req, uint32(opts.Slots))
	req = binary.LittleEndian.AppendUint32(req, uint32(opts.SlotSize))
	req = binary.LittleEndian.AppendUint64(req, uint64(opts.BulkBytes))
	req = binary.LittleEndian.AppendUint16(req, uint16(len(name)))
	req = append(req, name...)
	if opts.Tenant != "" {
		if len(opts.Tenant) > brokerMaxIdent {
			conn.Close()
			return nil, fmt.Errorf("lrpc: tenant identity exceeds %d bytes", brokerMaxIdent)
		}
		req = binary.LittleEndian.AppendUint16(req, uint16(len(opts.Tenant)))
		req = append(req, opts.Tenant...)
	}
	if err := writeFrame(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	reply := make([]byte, shmReplySize)
	oob := make([]byte, 128)
	got, oobGot := 0, 0
	for got < shmReplySize {
		n, oobn, _, _, rerr := conn.ReadMsgUnix(reply[got:], oob[oobGot:])
		if rerr != nil {
			conn.Close()
			return nil, fmt.Errorf("lrpc: shm handshake: %w", rerr)
		}
		got += n
		oobGot += oobn
	}
	if reply[0] != 0 {
		n := int(binary.LittleEndian.Uint16(reply[24:26]))
		if n > shmReplySize-26 {
			n = shmReplySize - 26
		}
		conn.Close()
		return nil, &RemoteError{Msg: string(reply[26 : 26+n]), code: binary.LittleEndian.Uint32(reply[4:8])}
	}
	nslots := int(binary.LittleEndian.Uint32(reply[4:8]))
	slotSize := int(binary.LittleEndian.Uint32(reply[8:12]))
	segSize := int(binary.LittleEndian.Uint64(reply[16:24]))
	bulkBytes := int64(binary.LittleEndian.Uint64(reply[32:40]))
	fd, err := parseSegmentFd(oob[:oobGot])
	if err != nil {
		conn.Close()
		return nil, err
	}
	lay := shmLayoutFor(nslots, slotSize, int(bulkBytes))
	if lay.segSize != segSize || nslots < 1 ||
		bulkBytes < 0 || bulkBytes > MaxBulkSize || bulkBytes%bulkPageSize != 0 {
		syscall.Close(fd)
		conn.Close()
		return nil, errors.New("lrpc: shm handshake geometry mismatch")
	}
	seg, err := syscall.Mmap(fd, 0, segSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	syscall.Close(fd)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("lrpc: shm mmap: %w", err)
	}
	if shmU64(seg, shmOffMagic).Load() != shmMagic ||
		shmU32(seg, shmOffNSlots).Load() != uint32(nslots) ||
		shmU32(seg, shmOffSlotSize).Load() != uint32(slotSize) ||
		shmU64(seg, shmOffBulkBytes).Load() != uint64(bulkBytes) {
		syscall.Munmap(seg)
		conn.Close()
		return nil, errors.New("lrpc: shm segment header mismatch")
	}
	c2s, err := shmring.Attach(seg[lay.c2sOff:lay.s2cOff], lay.ringCap)
	if err != nil {
		syscall.Munmap(seg)
		conn.Close()
		return nil, err
	}
	s2c, err := shmring.Attach(seg[lay.s2cOff:lay.slotsOff], lay.ringCap)
	if err != nil {
		syscall.Munmap(seg)
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c := &ShmClient{
		name:      name,
		opts:      opts,
		conn:      conn,
		seg:       seg,
		lay:       lay,
		c2s:       c2s,
		s2c:       s2c,
		freeNext:  make([]atomic.Uint32, nslots),
		freeToken: make(chan struct{}, 1),
		sigs:      make([]chan struct{}, nslots),
		kinds:     make([]atomic.Uint32, nslots),
		futs:      make([]atomic.Pointer[Future], nslots),
		kick:      make(chan struct{}, 1),
		dead:      make(chan struct{}),
		demuxDone: make(chan struct{}),
		drained:   make(chan struct{}),
	}
	if bulkBytes > 0 {
		c.bulk = newShmBulkAlloc(int(bulkBytes/bulkPageSize), nslots)
		c.bulkHeld = make([]atomic.Bool, nslots)
	}
	for i := nslots - 1; i >= 0; i-- {
		c.pushFree(uint32(i))
		c.sigs[i] = make(chan struct{}, 1)
	}
	// Arm the ring epoch: a crash leaves it set, which is how the
	// server distinguishes death from a detach whose bye was lost.
	shmU32(seg, shmOffClientEpoch).Store(1)
	if t := opts.Tracer; t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceShmBind, Iface: name})
	}
	go c.demux()
	go c.watchdog()
	return c, nil
}

func parseSegmentFd(oob []byte) (int, error) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return -1, fmt.Errorf("lrpc: shm handshake control message: %w", err)
	}
	for _, m := range msgs {
		fds, err := syscall.ParseUnixRights(&m)
		if err != nil || len(fds) == 0 {
			continue
		}
		for _, fd := range fds[1:] {
			syscall.Close(fd)
		}
		return fds[0], nil
	}
	return -1, errors.New("lrpc: shm handshake carried no segment fd")
}

// Name returns the bound interface name.
func (c *ShmClient) Name() string { return c.name }

// Slots returns the session's concurrent-call capacity.
func (c *ShmClient) Slots() int { return c.lay.nslots }

// SlotSize returns the per-call shared A-stack capacity in bytes.
func (c *ShmClient) SlotSize() int { return c.lay.slotSize }

// Stats snapshots the client side of the session.
func (c *ShmClient) Stats() ShmClientStats {
	return ShmClientStats{
		Calls:        c.calls.Load(),
		Chains:       c.chains.Load(),
		Failures:     c.failures.Load(),
		Timeouts:     c.timeouts.Load(),
		SpinReplies:  c.spinReplies.Load(),
		ParkReplies:  c.parkReplies.Load(),
		PeerCrashed:  c.crashed.Load(),
		AsyncCalls:   c.asyncCalls.Load(),
		OneWays:      c.oneWays.Load(),
		OneWayDrops:  c.oneWayDrops.Load(),
		Batches:      c.batches.Load(),
		BatchedCalls: c.batchedCalls.Load(),
	}
}

// call is the synchronous driver under every blocking call kind (plain,
// chain, bulk; the entries are sugar in shm_common.go): prepare the slot,
// post it and wait (roundTrip), read the reply, settle a bulk handle, and
// recycle the slot.
func (c *ShmClient) call(ctx context.Context, r shmReq, dst []byte) ([]byte, error) {
	c.calls.Add(1)
	if r.chain {
		c.chains.Add(1)
	}
	id, callID, err := c.prepare(ctx, r, true)
	if err != nil {
		return nil, err
	}
	if f := c.opts.Faults; f != nil && f().TornDoorbell {
		c.ringDoorbell(uint64(c.lay.nslots) + 7) // garbage index ahead of the real bell
	}
	if err := c.roundTrip(ctx, id, callID); err != nil {
		return nil, err
	}
	body, err := c.reply(id)
	var out []byte
	if err == nil {
		out = append(dst, body...) // the single result copy out
		if r.h != nil {
			err = c.collectBulk(id, r.h)
		}
	} else {
		c.failures.Add(1)
	}
	c.recycle(id)
	c.end()
	return out, err
}

// prepare runs the steps every call kind takes before its slot is posted
// — check, acquire, stage, header — and settles the accounting of
// whichever fails. On success the caller holds slot id, staged under
// callID, and one reference.
func (c *ShmClient) prepare(ctx context.Context, r shmReq, block bool) (id uint32, callID uint64, err error) {
	if err := c.check(r); err != nil {
		c.failures.Add(1)
		return 0, 0, err
	}
	if r.h != nil {
		r.h.n = 0
	}
	if id, err = c.acquire(ctx, block); err != nil {
		return 0, 0, err
	}
	if err := c.stage(id, r); err != nil {
		c.failures.Add(1)
		c.recycle(id)
		c.end()
		return 0, 0, err
	}
	return id, c.header(id, r.proc), nil
}

// check is the one size classification, made before any slot is taken.
// What it refuses no retry on this session can fix (ErrTooLarge, or a
// bulk call on a session without a bulk region), so it never shares a
// sentinel with the transient page exhaustion stage can meet
// (ErrNoAStacks). Plain args past the slot spill into the bulk region
// when one was granted and the spill fits it whole — the in-process and
// TCP planes' MaxOOBSize contract; a chain descriptor and a bulk call's
// args must fit the slot.
func (c *ShmClient) check(r shmReq) error {
	n := len(r.args)
	switch {
	case r.h != nil:
		if err := r.h.check(); err != nil {
			return err
		}
		if n > c.lay.slotSize {
			return fmt.Errorf("%w: %d argument bytes exceed the %d-byte slot (bulk calls carry args in-slot)",
				ErrTooLarge, n, c.lay.slotSize)
		}
		if c.bulk == nil {
			return errors.New("lrpc: shm session has no bulk region (dial with BulkBytes > 0)")
		}
		if size := r.h.length(); size > int64(c.lay.bulkBytes) {
			return fmt.Errorf("%w: %d-byte bulk payload exceeds the session's %d-byte bulk region",
				ErrTooLarge, size, c.lay.bulkBytes)
		}
	case r.chain:
		if n > c.lay.slotSize {
			return fmt.Errorf("%w: %d-byte chain descriptor exceeds the %d-byte slot",
				ErrTooLarge, n, c.lay.slotSize)
		}
	case n <= c.lay.slotSize:
	case n > MaxOOBSize:
		return ErrTooLarge
	case c.bulk == nil:
		return fmt.Errorf("%w: %d argument bytes exceed the %d-byte slot",
			ErrTooLarge, n, c.lay.slotSize)
	case n > c.lay.bulkBytes:
		return fmt.Errorf("%w: %d argument bytes exceed the session's %d-byte bulk region",
			ErrTooLarge, n, c.lay.bulkBytes)
	}
	return nil
}

// acquire is the one slot take: a reference, then a free slot popped off
// the stack, with the stale wakeup a prior occupant may have left
// drained. block=false returns errWouldBlock rather than wait (batch
// staging flushes and retries); a blocking take gives up when the session
// dies or ctx ends.
//
// A caller that finds the stack empty, or callers already waiting,
// counts itself a waiter and sleeps on the token; the first waiter pops
// once more before it sleeps. A recycle pushes and then reads the count,
// and only a push onto an empty stack sends: either that waiter's pop sees
// the slot or the push sees the waiter. Pushes onto a non-empty stack send
// nothing, so a woken waiter that takes a slot passes the token on while
// slots and waiters remain. The channel wakes its sleepers in turn, and a
// caller that comes back for another slot queues behind them instead of
// taking the one it has just returned.
func (c *ShmClient) acquire(ctx context.Context, block bool) (uint32, error) {
	if err := c.begin(); err != nil {
		c.failures.Add(1)
		return 0, err
	}
	var id uint32
	ok := false
	if c.freeWaiters.Load() == 0 {
		id, ok = c.popFree()
	}
	if !ok {
		if !block {
			c.end()
			return 0, errWouldBlock
		}
		if c.freeWaiters.Add(1) == 1 {
			id, ok = c.popFree()
		}
		for ; !ok; id, ok = c.popFree() {
			// Slots held by batch entries come back only when somebody
			// drains for them; nobody may while this caller sleeps.
			c.handOverAll()
			select {
			case <-c.freeToken:
			case <-c.dead:
				c.freeWaiters.Add(-1)
				c.failures.Add(1)
				c.end()
				return 0, c.deadErr(false)
			case <-ctx.Done():
				c.freeWaiters.Add(-1)
				c.timeouts.Add(1)
				c.end()
				return 0, timeoutError(ctx.Err())
			}
		}
		if c.freeWaiters.Add(-1) > 0 && uint32(c.freeTop.Load()) != 0 {
			c.wakeWaiter()
		}
	}
	select {
	case <-c.sigs[id]:
	default:
	}
	return id, nil
}

// stage is the one copy into the slot: the arguments, or a chain's
// descriptor, straight into the shared A-stack, and the direction word
// that routes the server's dispatch (a plain call leaves the zero that
// recycle stored). A bulk handle's pages and an argument spill — args past
// the slot, carried in bulk pages the slot's descriptor names, the
// paper's out-of-band segment pressed into argument service — go through
// stageBulk.
func (c *ShmClient) stage(id uint32, r shmReq) error {
	base := c.lay.slotBase(id)
	args, dir := r.args, uint32(0)
	switch {
	case r.h != nil:
		if err := c.stageBulk(id, base, r.h); err != nil {
			return err
		}
		dir = uint32(r.h.dir)
	case r.chain:
		dir = bulkDirChain
	case len(args) > c.lay.slotSize:
		if err := c.stageBulk(id, base, &BulkHandle{dir: BulkIn, buf: args}); err != nil {
			return err
		}
		args, dir = nil, bulkDirSpill
		if t := c.opts.Tracer; t != nil {
			t.TraceEvent(TraceEvent{Kind: TraceBulkSpill, Iface: c.name})
		}
	}
	copy(c.seg[base+slotPayloadOff:base+slotPayloadOff+c.lay.slotSize], args)
	shmPut32(c.seg, base+slotOffArgLen, uint32(len(args)))
	if dir != 0 {
		shmPut32(c.seg, base+slotOffBulkDir, dir)
	}
	return nil
}

// stageBulk reserves bulk pages for h on slot id and publishes them in
// the slot's descriptor with the payload length and capacity. A BulkIn
// payload is copied in once, from the caller's buffer or streamed from
// its reader; BulkOut pages are left for the handler to fill. The request
// passed check, so an allocation failure is transient exhaustion.
func (c *ShmClient) stageBulk(id uint32, base int, h *BulkHandle) error {
	size := h.length()
	runs, err := c.bulk.alloc(id, size)
	if err != nil {
		return err
	}
	if runs != nil {
		c.bulkHeld[id].Store(true)
	}
	in := int64(0)
	if h.dir == BulkIn {
		for _, r := range runs {
			dst := c.bulkRunBytes(r)
			if int64(len(dst)) > size-in {
				dst = dst[:size-in]
			}
			if h.src != nil {
				if _, err := io.ReadFull(h.src, dst); err != nil {
					return fmt.Errorf("lrpc: bulk source: %w", err)
				}
			} else {
				copy(dst, h.buf[in:])
			}
			in += int64(len(dst))
		}
	}
	c.writeBulkDesc(base, runs)
	shmPut64(c.seg, base+slotOffBulkLen, uint64(in))
	shmPut64(c.seg, base+slotOffBulkCap, uint64(size))
	return nil
}

// header is the one request-header write: the procedure, a cleared
// reply, and a fresh call ID, which it returns. Like stage's, its stores
// are plain: the post's store of slotPosted publishes them.
func (c *ShmClient) header(id uint32, proc int) uint64 {
	base := c.lay.slotBase(id)
	callID := c.callID.Add(1)
	shmPut32(c.seg, base+slotOffProc, uint32(proc))
	shmPut32(c.seg, base+slotOffResLen, 0)
	shmPut32(c.seg, base+slotOffCode, 0)
	shmPut64(c.seg, base+slotOffCallID, callID)
	return callID
}

// roundTrip posts a prepared slot synchronously: post, ring the doorbell,
// and wait for the reply. A non-nil err has already settled the caller's
// accounting (see awaitReply) and the slot must not be touched again.
//
// The slot is posted with its no-hint word at the call's own ID: the
// reply is the state word itself, which awaitReply polls, so the server
// skips the reply ring unless this caller leaves its spin window and
// zeroes the word. Only this path writes the word. A spin hit leaves it
// standing — IDs only grow, so the mark never covers a later occupant:
// async, one-way and batch submissions (and a peer built before the word
// existed, which sees zero) get their hint without touching it, and a
// server that reads the word late, after the slot has moved on, still
// decides for the call it served.
func (c *ShmClient) roundTrip(ctx context.Context, id uint32, callID uint64) error {
	base := c.lay.slotBase(id)
	state := shmU32(c.seg, base+slotOffState)
	shmPut64(c.seg, base+slotOffNoHint, callID)
	state.Store(slotPosted)
	if err := c.ringDoorbell(uint64(id)); err != nil {
		c.failures.Add(1)
		c.end()
		return err
	}
	return c.awaitReply(ctx, id, state, shmU64(c.seg, base+slotOffNoHint))
}

// reply is the one reply read, once slot id's state word says done. The
// results alias the shared A-stack, their length clamped to the slot, and
// are valid until the slot is recycled. A failed call's payload is its
// failure record, a chain's when the slot's dir word says it carried one;
// an older server's sentinel code over bare text is read as that text.
func (c *ShmClient) reply(id uint32) ([]byte, error) {
	base := c.lay.slotBase(id)
	n := int(shmU32(c.seg, base+slotOffResLen).Load())
	if n > c.lay.slotSize {
		n = c.lay.slotSize
	}
	body := c.seg[base+slotPayloadOff : base+slotPayloadOff+n]
	if shmU32(c.seg, base+slotOffState).Load() == slotDoneOK {
		return body, nil
	}
	if code := shmU32(c.seg, base+slotOffCode).Load(); code != slotCodeFailure {
		return nil, &RemoteError{Msg: string(body), code: code}
	}
	return nil, parseFailure(body, shmU32(c.seg, base+slotOffBulkDir).Load() == bulkDirChain)
}

// collectBulk settles h after an ok reply. BulkIn moved the whole
// payload; BulkOut copies the produced bytes to the caller's buffer or
// sink out of the page runs this side allocated — never out of the slot's
// descriptor, which the peer can rewrite. A sink error is returned beside
// the results, which stand.
func (c *ShmClient) collectBulk(id uint32, h *BulkHandle) error {
	size := h.length()
	if h.dir == BulkIn {
		h.n = size
		return nil
	}
	remain := int64(shmU64(c.seg, c.lay.slotBase(id)+slotOffBulkLen).Load())
	if remain < 0 || remain > size {
		remain = size // a corrupt reply length cannot overrun the handle
	}
	for _, r := range c.bulk.held[id] {
		if remain <= 0 {
			break
		}
		src := c.bulkRunBytes(r)
		if int64(len(src)) > remain {
			src = src[:remain]
		}
		if h.dst != nil {
			if _, err := h.dst.Write(src); err != nil {
				return fmt.Errorf("lrpc: bulk sink: %w", err)
			}
		} else {
			copy(h.buf[h.n:], src)
		}
		h.n += int64(len(src))
		remain -= int64(len(src))
	}
	return nil
}

// push enqueues a slot index on the doorbell ring without bumping the
// futex word; false means the session died first. The ring holds twice
// the slot count, so with at most one doorbell per posted slot it cannot
// stay full; the retry loop only spins when fault injection floods it
// with torn entries.
func (c *ShmClient) push(v uint64) bool {
	for !c.c2s.Push(v) {
		select {
		case <-c.dead:
			return false
		default:
			shmring.Yield()
		}
	}
	return true
}

// ringDoorbell pushes a slot index to the server and bumps the futex word.
func (c *ShmClient) ringDoorbell(v uint64) error {
	if !c.push(v) {
		return c.deadErr(false)
	}
	c.c2s.Bump()
	return nil
}

// abandon detaches the caller from a posted slot at its deadline. The
// slot stays checked out — the server may still be writing it — and an
// orphan watcher inherits both the slot and the caller's reference,
// recycling them when the reply lands (or the session dies).
func (c *ShmClient) abandon(id uint32, state *atomic.Uint32) {
	go func() {
		for {
			select {
			case <-c.sigs[id]:
				if st := state.Load(); st >= slotDoneOK {
					c.parked.Add(-1)
					c.recycle(id)
					c.end()
					return
				}
			case <-c.dead:
				c.parked.Add(-1)
				c.end()
				return
			}
		}
	}()
}

// recycle returns a slot to the free list, releasing any bulk pages it
// held and clearing its bulk direction — the single funnel every
// completion path (sync, async, one-way, orphaned) drains through, so
// pages can never leak with their slot. Plain calls skip the allocator
// lock via the bulkHeld fast check. A push onto an empty stack wakes a
// waiter, if any (acquire).
func (c *ShmClient) recycle(id uint32) {
	base := c.lay.slotBase(id)
	// The direction word is cleared unconditionally: a chain posts
	// bulkDirChain with no bulk pages (and possibly no bulk region at
	// all), and a stale direction would route the slot's next occupant
	// down the wrong dispatch path. The next post publishes the clear.
	shmPut32(c.seg, base+slotOffBulkDir, 0)
	if c.bulk != nil && c.bulkHeld[id].Load() {
		c.bulk.release(id)
		c.bulkHeld[id].Store(false)
	}
	shmU32(c.seg, base+slotOffState).Store(slotIdle)
	if c.pushFree(id) && c.freeWaiters.Load() > 0 {
		c.wakeWaiter()
	}
}

// pushFree puts slot id on top of the free stack and reports whether
// the stack was empty before.
func (c *ShmClient) pushFree(id uint32) (wasEmpty bool) {
	for {
		top := c.freeTop.Load()
		c.freeNext[id].Store(uint32(top))
		if c.freeTop.CompareAndSwap(top, (top>>32+1)<<32|uint64(id+1)) {
			return uint32(top) == 0
		}
	}
}

// popFree takes the slot on top of the free stack; false when it is
// empty.
func (c *ShmClient) popFree() (uint32, bool) {
	for {
		top := c.freeTop.Load()
		i := uint32(top)
		if i == 0 {
			return 0, false
		}
		if c.freeTop.CompareAndSwap(top, (top>>32+1)<<32|uint64(c.freeNext[i-1].Load())) {
			return i - 1, true
		}
	}
}

// wakeWaiter leaves the one token for a caller sleeping in acquire; a
// token already there wakes one just as well.
func (c *ShmClient) wakeWaiter() {
	select {
	case c.freeToken <- struct{}{}:
	default:
	}
}

// window is the one shm wait window, shared by a synchronous caller's
// reply wait (awaitReply) and a batch waiter's (shmBatch.drive): a probe
// of ready with plain loads (shmring.Probe; with both domains on distinct
// processors the reply usually lands within it), then up to Spin rounds
// that drain the reply ring and yield, handing a single processor
// straight to the server domain. It reports whether ready turned true;
// false leaves the caller to park. The caller holds a reference.
func (c *ShmClient) window(ready func() bool) bool {
	if shmring.Probe(ready) {
		return true
	}
	for i := 0; i < c.opts.Spin; i++ {
		// Spinners drain the reply ring themselves: with the
		// demultiplexer asleep, hints for async and batch siblings must
		// not accumulate, and a hint for a parked sibling is forwarded
		// to its signal channel. With no hints in the ring the drain
		// stays in this side's cache.
		c.drainReplies()
		if ready() {
			return true
		}
		shmring.Yield()
	}
	return false
}

// awaitReply waits for slot id's reply in two phases: the wait window
// (window) over the slot's state word, then a park on the per-slot
// signal fed by the doorbell demultiplexer. A non-nil return has already
// settled the caller's accounting: dead sessions release the reference
// here, timeouts hand the slot (and the reference) to an orphan watcher.
//
// The slot was posted with noHint at this call's ID, so while the caller
// probes or spins the server publishes the reply in the state word and
// nothing else. Leaving the window stores zero and then re-reads the state,
// mirroring the server's store of the state followed by its load of the
// word: both stores are read-modify-writes (full barriers), so either this
// re-read sees the reply or the server's load sees zero and pushes the hint
// the parked regime waits on. A wake is never lost; at worst both happen and
// the hint is a stale one the next drain absorbs. ctx is consulted only
// once parked, when the word is already zero, so the orphan watcher of
// an abandoned call is always hinted.
func (c *ShmClient) awaitReply(ctx context.Context, id uint32, state *atomic.Uint32, noHint *atomic.Uint64) error {
	if c.window(func() bool { return state.Load() >= slotDoneOK }) {
		c.spinReplies.Add(1)
		return nil
	}
	// Swap, not Store, for the reason given at the server's half of the
	// pair (shmSession.dispatch): the re-read below must not pass it.
	noHint.Swap(0)
	if state.Load() >= slotDoneOK {
		c.spinReplies.Add(1)
		return nil
	}
	// Crossing into the parked regime: register so the reply doorbell
	// takes the futex path, and rouse the demultiplexer.
	c.parked.Add(1)
	c.kickDemux()
	for {
		select {
		case <-c.sigs[id]:
			if st := state.Load(); st >= slotDoneOK {
				c.parked.Add(-1)
				c.parkReplies.Add(1)
				return nil
			}
		case <-c.dead:
			c.parked.Add(-1)
			c.failures.Add(1)
			c.end()
			return c.deadErr(true)
		case <-ctx.Done():
			c.timeouts.Add(1)
			// The orphan watcher inherits this caller's parked
			// registration along with its reference.
			c.abandon(id, state)
			return timeoutError(ctx.Err())
		}
	}
}

// --- client-owned bulk page allocator ---

// bulkRun is one contiguous extent of bulk pages.
type bulkRun struct{ start, count uint32 }

// shmBulkAlloc hands out page runs from the segment's bulk region. The
// client owns the whole allocation lifecycle (the server only ever
// follows descriptors), so a plain mutex suffices: the lock is taken
// once per bulk call, never on the plain-call path.
type shmBulkAlloc struct {
	mu    sync.Mutex
	used  []bool
	nfree int
	held  [][]bulkRun // per-slot runs, released by recycle
}

func newShmBulkAlloc(npages, nslots int) *shmBulkAlloc {
	return &shmBulkAlloc{
		used:  make([]bool, npages),
		nfree: npages,
		held:  make([][]bulkRun, nslots),
	}
}

// alloc reserves runs covering n bytes for slot id, gathering up to
// maxBulkRuns extents first-fit. Both failure modes — not enough free
// pages, or free pages shattered into more extents than one descriptor
// can name — are transient resource exhaustion.
func (a *shmBulkAlloc) alloc(id uint32, n int64) ([]bulkRun, error) {
	npages := int((n + bulkPageSize - 1) / bulkPageSize)
	if npages == 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if npages > a.nfree {
		return nil, fmt.Errorf("%w: shm bulk region exhausted (%d pages wanted, %d free)",
			ErrNoAStacks, npages, a.nfree)
	}
	var runs []bulkRun
	need := npages
	for i := 0; i < len(a.used) && need > 0; i++ {
		if a.used[i] {
			continue
		}
		if len(runs) == maxBulkRuns {
			for _, r := range runs {
				for p := r.start; p < r.start+r.count; p++ {
					a.used[p] = false
				}
			}
			return nil, fmt.Errorf("%w: shm bulk region too fragmented for %d pages",
				ErrNoAStacks, npages)
		}
		run := bulkRun{start: uint32(i), count: 0}
		for i < len(a.used) && !a.used[i] && need > 0 {
			a.used[i] = true
			run.count++
			need--
			i++
		}
		runs = append(runs, run)
	}
	a.nfree -= npages
	a.held[id] = runs
	return runs, nil
}

// release frees every run slot id holds.
func (a *shmBulkAlloc) release(id uint32) {
	a.mu.Lock()
	for _, r := range a.held[id] {
		for p := r.start; p < r.start+r.count; p++ {
			a.used[p] = false
		}
		a.nfree += int(r.count)
	}
	a.held[id] = nil
	a.mu.Unlock()
}

// bulkRunBytes returns the segment bytes one run covers.
func (c *ShmClient) bulkRunBytes(r bulkRun) []byte {
	off := c.lay.bulkOff + int(r.start)*bulkPageSize
	return c.seg[off : off+int(r.count)*bulkPageSize]
}

// writeBulkDesc publishes runs into slot base's descriptor area. Plain
// stores suffice: the posting store of slotPosted is the release
// barrier the server's CAS acquires through, same as the payload copy.
func (c *ShmClient) writeBulkDesc(base int, runs []bulkRun) {
	desc := c.seg[base+slotHdrSize : base+slotPayloadOff]
	binary.LittleEndian.PutUint32(desc[0:4], uint32(len(runs)))
	for i, r := range runs {
		binary.LittleEndian.PutUint32(desc[4+i*8:], r.start)
		binary.LittleEndian.PutUint32(desc[8+i*8:], r.count)
	}
}

// BulkBytes reports the session's granted bulk-region size in bytes (0
// when the session has no bulk region).
func (c *ShmClient) BulkBytes() int64 { return int64(c.lay.bulkBytes) }

// drainReplies empties whatever the reply ring holds right now — the
// bulk completion reap. Hints are popped in batches and routed per the
// slot's submission kind: synchronous hints go to the slot's signal
// channel, asynchronous, batch and one-way hints are retired in place
// (shm_async.go). Safe from any goroutine: the ring entry is a hint,
// the slot state is the truth, so stale or double signals are absorbed
// by the waiters' re-checks and the futs/kinds claim gates.
func (c *ShmClient) drainReplies() {
	var buf [64]uint64
	for {
		n := c.s2c.PopBatch(buf[:])
		if n == 0 {
			return
		}
		for i := 0; i < n; i++ {
			c.handleHint(buf[i])
		}
	}
}

// handleHint routes one reply-ring entry to its consumer.
func (c *ShmClient) handleHint(v uint64) {
	if v >= uint64(c.lay.nslots) {
		return
	}
	id := uint32(v)
	if c.kinds[id].Load() != kindSync {
		c.retire(id, false)
		return
	}
	select {
	case c.sigs[id] <- struct{}{}:
	default:
	}
}

// demux pops reply doorbells and signals the slot's waiter. It runs in
// two regimes. While no caller is parked it sleeps on a process-local
// channel, leaving the futex word with zero waiters: spinning callers
// and batch waiters drain the ring themselves and the server's doorbell
// costs no wake syscall. The moment a caller parks or a submission
// registers, it is kicked awake and parks on the futex instead, so
// cross-process wakes reach parked callers. A synchronous reply taken
// inside the caller's spin window never enters the ring at all
// (roundTrip); one taken on the window's edge may leave a hint behind —
// stale signals are possible and every waiter re-checks its slot. Its
// futex park keeps no timer: markDead's WakeAll, after it closes dead,
// is what ends it at shutdown.
func (c *ShmClient) demux() {
	defer close(c.demuxDone)
	stop := func() bool {
		select {
		case <-c.dead:
			return true
		default:
			return false
		}
	}
	for {
		c.drainReplies()
		if c.parked.Load() == 0 {
			select {
			case <-c.kick:
			case <-c.dead:
				return
			}
			continue
		}
		v, ok := c.s2c.PopWait(16, 0, stop)
		if !ok {
			return
		}
		c.handleHint(v)
	}
}

// watchdog watches the handshake socket for the server's fate: a bye
// frame is a clean server shutdown, EOF or any error is a crash.
func (c *ShmClient) watchdog() {
	buf := make([]byte, 16)
	_, err := c.conn.Read(buf)
	crash := err != nil && !c.userClosed.Load()
	c.markDead(crash)
}

// markDead transitions the session to dead exactly once: in-flight
// calls resolve, the demultiplexer exits, and a reaper unmaps the
// segment after the last reference drains. The closing bit goes up
// before dead closes: whoever sees dead closed finds begin refusing, so
// from the sweep on the reference count only falls.
func (c *ShmClient) markDead(crash bool) {
	c.deadOnce.Do(func() {
		if crash {
			c.crashed.Store(true)
			if t := c.opts.Tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceShmPeerCrash, Iface: c.name, Err: ErrRevoked})
			}
		}
		c.shut()
		close(c.dead)
		c.s2c.WakeAll() // unpark the demultiplexer
		go c.reap()
	})
}

// reap unmaps the segment once the demultiplexer has exited and every
// in-flight call (including orphaned abandoners) has released its
// reference — never under a goroutine still touching shared bytes.
func (c *ShmClient) reap() {
	<-c.demuxDone
	// Resolve async and one-way submissions still holding slots before
	// waiting out the reference count: each holds a reference that only
	// its retirement releases, so the sweep must run first or the wait
	// below never drains. It may race straggling spinners and posters;
	// retire's claim keeps retirement exactly-once (shm_async.go).
	for id := 0; id < c.lay.nslots; id++ {
		c.retire(uint32(id), true)
	}
	<-c.drained
	c.mu.Lock()
	c.unmapped = true
	syscall.Munmap(c.seg)
	c.mu.Unlock()
}

// refClosing is the closing bit of ShmClient.refs, far above any count
// of references.
const refClosing = int64(1) << 62

// begin takes a reference on the mapping, unless the session is closing.
// The compare-and-swap never counts a refused caller, so once the bit is
// up the count only falls.
func (c *ShmClient) begin() error {
	for {
		r := c.refs.Load()
		if r&refClosing != 0 {
			return c.deadErr(false)
		}
		if c.refs.CompareAndSwap(r, r+1) {
			return nil
		}
	}
}

// end drops a reference; the one that leaves only the closing bit
// releases the reaper.
func (c *ShmClient) end() {
	if c.refs.Add(-1) == refClosing {
		close(c.drained)
	}
}

// shut sets the closing bit, once; with no reference held it releases
// the reaper itself.
func (c *ShmClient) shut() {
	for {
		r := c.refs.Load()
		if r&refClosing != 0 {
			return
		}
		if c.refs.CompareAndSwap(r, r|refClosing) {
			if r == 0 {
				close(c.drained)
			}
			return
		}
	}
}

// deadErr maps a dead session onto the plane's exceptions: a call that
// was posted when the peer died may have executed (ErrCallFailed); a
// call that never reached the segment sees the binding as revoked
// (ErrRevoked) unless this side closed the session itself.
func (c *ShmClient) deadErr(posted bool) error {
	if c.userClosed.Load() {
		return ErrConnClosed
	}
	if posted {
		return fmt.Errorf("%w: shm peer died mid-call", ErrCallFailed)
	}
	return ErrRevoked
}

// Close detaches cleanly: disarm the ring epoch, tell the server bye,
// and unmap once in-flight calls drain. Calls after Close fail with
// ErrConnClosed.
func (c *ShmClient) Close() error {
	if c.userClosed.Swap(true) {
		return nil
	}
	c.shut()
	// Disarm before bye: if the process dies between these two writes
	// the server still classifies the detach correctly. The store
	// happens under the lock the reaper unmaps under, so a session the
	// server already tore down cannot fault here.
	c.mu.Lock()
	if !c.unmapped {
		shmU32(c.seg, shmOffClientEpoch).Store(0)
	}
	c.mu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	writeFrame(c.conn, []byte{shmByeByte})
	c.markDead(false)
	c.conn.Close()
	return nil
}

// peerDied reports whether the session died under its owner — the peer
// crashed, restarted or terminated the export — rather than being closed
// by it: the liveness signal supervised recovery (supervise.go) re-dials
// on.
func (c *ShmClient) peerDied() bool {
	select {
	case <-c.dead:
		return !c.userClosed.Load()
	default:
		return false
	}
}
