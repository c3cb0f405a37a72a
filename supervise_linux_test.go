//go:build linux

package lrpc

import (
	"path/filepath"
	"testing"
	"time"
)

func init() {
	superviseRows = append(superviseRows,
		superviseRow{name: "SuperviseShm", exhausted: ErrRevoked, open: openSuperviseShm})
}

func openSuperviseShm(t *testing.T, attempts int, backoff time.Duration) *supervisedFixture {
	t.Helper()
	sv, sock, exp := startShm(t, nullInterface("Shm"), ShmServeOptions{})
	fx := newSupervisedFixture()
	sup, err := SuperviseShm(func() (*ShmClient, error) {
		fx.dialed()
		return DialShm(sock, "Shm")
	}, SupervisorOpts{
		RebindAttempts:       attempts,
		RebindBackoffInitial: backoff,
		RebindBackoffMax:     backoff,
		ProbeInterval:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.sup, fx.close = sup, func() { sup.Close() }
	fx.kill = func() {
		fx.armed.Store(true)
		c := sup.Client()
		exp.Terminate()
		sv.Close()
		// A call posted before the client has read the server's bye would
		// fail as "may have executed"; wait for the client to see it.
		select {
		case <-c.dead:
		case <-time.After(5 * time.Second):
			t.Fatal("client never noticed the server's shutdown")
		}
	}
	t.Cleanup(fx.close)
	return fx
}

// TestReplicatedProbeSeesDeadShmSession: the background probe replaces a
// shm session whose peer died without any call being issued to find out.
func TestReplicatedProbeSeesDeadShmSession(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(nullInterface("svc.null")); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "lrpc.sock")
	l, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewShmServer(sys, ShmServeOptions{})
	go sv.Serve(l)
	t.Cleanup(func() { sv.Close() })
	ns, err := StartNetServer(sys, "127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	reg := registerForever(t, "svc.null",
		Endpoint{Plane: PlaneShm, Addr: sock}, Endpoint{Plane: PlaneTCP, Addr: ns.Addr()})

	log := NewTraceLog(16)
	sup, err := SuperviseReplicated("svc.null", ReplicatedOpts{
		Registry:      reg,
		ProbeInterval: 5 * time.Millisecond,
		Tracer:        log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if ep := sup.Endpoint(); ep.Plane != PlaneShm {
		t.Fatalf("bound over %v, want the shm plane", ep)
	}
	before := sup.Stats().Rebinds

	sv.Close() // the shm server dies; the TCP endpoint lives on
	waitFor(t, func() bool { return sup.Stats().Rebinds > before })
	if ep := sup.Endpoint(); ep.Plane != PlaneTCP {
		t.Errorf("after the shm server died the probe rebound to %v, want the TCP endpoint", ep)
	}
	if log.Count(TraceFailover) == 0 {
		t.Error("no TraceFailover event for the probe's rebind")
	}
}
