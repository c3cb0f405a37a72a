package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// A span is one timed interval of the traced pass, recorded from the
// benchmark's side of a public call. Times are wall-clock UnixNano so
// the stamps a handler takes in the server process sit on the same axis.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index of the enclosing span in the file, -1 for a root
	op     uint32
}

// Span names. The three legs are the names spans inside shm.go and
// net.go will take over in a later change.
const (
	spanRequestLeg = "request_leg"
	spanHandler    = "handler"
	spanReplyLeg   = "reply_leg"
	spanStage      = "Batch.Call*N"
	spanFlush      = "Batch.Flush"
	spanWait       = "Batch.Wait"
)

// maxSpans bounds one workload's trace file to a few megabytes; a pass
// that outruns it keeps running and records no more.
const maxSpans = 1 << 15

type tracer struct {
	spans []span
	ops   uint32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

func unixNow() int64 { return time.Now().UnixNano() }

// op starts a new operation of n spans and returns its identifier, or
// false when tracing is off (t is nil) or the buffer cannot hold all of
// them: an operation is recorded whole or not at all.
func (t *tracer) op(n int) (uint32, bool) {
	if t == nil {
		return 0, false
	}
	if len(t.spans)+n > cap(t.spans) {
		t.spans = t.spans[:len(t.spans):len(t.spans)] // closed: no later, smaller operation slips in
		return 0, false
	}
	t.ops++
	return t.ops, true
}

// add records a span and returns its index.
func (t *tracer) add(name string, start, end int64, parent int32, op uint32) int32 {
	t.spans = append(t.spans, span{name, start, end, parent, op})
	return int32(len(t.spans) - 1)
}

// durations returns end-start of every span called name.
func (t *tracer) durations(name string) []int64 {
	var d []int64
	for i := range t.spans {
		if t.spans[i].name == name {
			d = append(d, t.spans[i].end-t.spans[i].start)
		}
	}
	return d
}

// write stores the spans as a JSON array in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (err error) {
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	b := []byte("[")
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"name\":"...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"op_id":`...)
		b = strconv.AppendUint(b, uint64(s.op), 10)
		b = append(b, '}')
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	if _, err := w.Write(append(b, "\n]\n"...)); err != nil {
		return err
	}
	return w.Flush()
}
