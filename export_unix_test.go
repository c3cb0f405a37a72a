//go:build unix

package lrpc

import "io"

// Hooks into the TCP plane's probing reader (DESIGN §5.20) for the tests.

// readParks is how many reads r has handed to the netpoller; ok is false
// when r is not a probing reader.
func readParks(r io.Reader) (n uint64, ok bool) {
	p, ok := r.(*probingReader)
	if !ok {
		return 0, false
	}
	return p.parks.Load(), true
}

// onProbe runs f as each probe of r starts, until restore runs.
func onProbe(r io.Reader, f func()) (restore func()) {
	h := func(p *probingReader) {
		if io.Reader(p) == r {
			f()
		}
	}
	probeStarting.Store(&h)
	return func() { probeStarting.Store(nil) }
}

// holdProbes takes every probe slot of the process until the returned
// release runs, as probers on other connections would.
func holdProbes() (release func()) {
	probers.Add(maxProbers)
	return func() { probers.Add(-maxProbers) }
}
