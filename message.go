package lrpc

import (
	"fmt"
	"sync"
)

// MessageConfig configures the message-passing baseline transport.
type MessageConfig struct {
	// Workers is the number of concrete server goroutines (the paper's
	// receiver threads); 0 selects 8.
	Workers int
}

// MsgBinding is a client binding over the message-passing baseline: the
// conventional RPC structure of the paper's section 2 — concrete client
// and server threads exchanging messages through queues, with the full
// complement of copies. It exists so benchmarks can compare LRPC's direct
// handoff against real goroutine rendezvous on the same interface.
type MsgBinding struct {
	exp  *Export
	reqs chan *message
	once sync.Once
}

type message struct {
	proc  int
	buf   []byte // request payload, then reply payload
	reply chan *message
	err   error
}

// ImportMessage binds to the named interface over the message transport.
// The returned binding owns a pool of server worker goroutines; call
// Close to stop them.
func (s *System) ImportMessage(name string, cfg MessageConfig) (*MsgBinding, error) {
	s.mu.RLock()
	e, ok := s.exports[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExported, name)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	mb := &MsgBinding{exp: e, reqs: make(chan *message)}
	for i := 0; i < cfg.Workers; i++ {
		go mb.worker()
	}
	return mb, nil
}

// worker is one concrete server thread: it dequeues requests, copies the
// message onto its own stack, dispatches the procedure, and enqueues the
// reply.
func (mb *MsgBinding) worker() {
	for msg := range mb.reqs {
		procs := mb.exp.iface.Procs
		if msg.proc < 0 || msg.proc >= len(procs) {
			msg.err = ErrBadProcedure
			msg.reply <- msg
			continue
		}
		p := &procs[msg.proc]

		// Copy E: message -> server stack.
		serverArgs := make([]byte, len(msg.buf))
		copy(serverArgs, msg.buf)

		astack := make([]byte, maxInt(len(serverArgs), DefaultAStackSize))
		c := callPool.Get().(*Call)
		if m := mb.exp.metrics.Load(); m != nil {
			m.sample(c) // the handler span is this plane's only one
		}
		c.astack, c.args, c.oob, c.resLen = astack, serverArgs, nil, 0
		// Dispatch through the containment path: a handler panic must not
		// kill the worker (which would strand every queued caller) — it
		// becomes the call-failed exception for this one caller.
		if err := mb.exp.runHandler(p, c); err != nil {
			msg.err = err
			msg.reply <- msg
			continue
		}

		// The server places results into the reply message.
		var res []byte
		if c.resLen > 0 {
			if c.oob != nil {
				res = c.oob
			} else {
				res = append([]byte(nil), c.astack[:c.resLen]...)
			}
		}
		c.release()

		// Kernel path back: two intermediate copies.
		msg.buf = kernelCopies(res)
		msg.reply <- msg
	}
}

// Call performs one message-based RPC: marshal into a message (copy A),
// pass it through the kernel path (copies B,C), rendezvous with a
// concrete server thread, and copy the reply out (copy F). Contrast with
// Binding.Call, which runs the procedure on the calling goroutine with
// one copy each way.
func (mb *MsgBinding) Call(proc int, args []byte) ([]byte, error) {
	if mb.exp.terminated.Load() {
		return nil, ErrRevoked
	}
	// The baseline honors the same argument ceiling as the real planes
	// (see the error matrix in README.md) so comparative benchmarks
	// classify oversized payloads identically. There is no bulk plane
	// here: a payload within the ceiling simply takes the full copy
	// complement, which is exactly the cost the baseline exists to show.
	if len(args) > MaxOOBSize {
		return nil, fmt.Errorf("%w: %d argument bytes exceed the %d-byte ceiling", ErrTooLarge, len(args), MaxOOBSize)
	}

	// Copy A: caller's stack -> request message.
	msg := &message{proc: proc, reply: make(chan *message, 1)}
	req := make([]byte, len(args))
	copy(req, args)

	// Kernel path: intermediate copies toward the server.
	msg.buf = kernelCopies(req)

	// Scheduler rendezvous: enqueue and block for the reply.
	mb.reqs <- msg
	reply := <-msg.reply
	if reply.err != nil {
		return nil, reply.err
	}

	// Copy F: reply message -> caller's results.
	var out []byte
	if len(reply.buf) > 0 {
		out = make([]byte, len(reply.buf))
		copy(out, reply.buf)
	}

	mb.exp.calls.add(0, 1)
	if mb.exp.terminated.Load() {
		return nil, ErrCallFailed
	}
	return out, nil
}

// Close stops the binding's worker goroutines.
func (mb *MsgBinding) Close() {
	mb.once.Do(func() { close(mb.reqs) })
}

// kernelCopies performs the intermediate buffer copies of the
// conventional path: sender -> kernel -> receiver (two copies).
func kernelCopies(buf []byte) []byte {
	if len(buf) == 0 {
		return buf
	}
	k := make([]byte, len(buf)) // copy B
	copy(k, buf)
	out := make([]byte, len(k)) // copy C
	copy(out, k)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
