// Package registry is the replicated name service: the paper's name
// server (§3.1, "the clerk registers the interface with a name server")
// rebuilt as a highly-available service so that neither a dead registry
// process nor a dead server process strands clients. It is a client of
// the LRPC facility, not a part of it: it imports package lrpc and uses
// only its exported API, and lrpc never imports it.
//
//   - N Replica processes form a cluster over the TCP plane: the registry
//     is itself an LRPC interface, so replicas and clients reach it
//     through the same transport, backpressure, and observability
//     machinery every other service uses.
//   - Register/Unregister mutate a compact leader-based replicated log —
//     a small, self-contained consensus core in the Raft style (terms,
//     randomized election timeouts, log-matching AppendEntries, majority
//     commit, and the up-to-date vote restriction), sized for a registry
//     rather than Paxos generality.
//   - Registrations carry time-bounded leases. Renewal is a leader-local
//     heartbeat (cheap, off the log); expiry is a replicated log entry, so
//     the name map stays a pure function of the log and a crashed
//     server's bindings disappear from every replica, not just one.
//   - Reads (Resolve) are served from any replica's applied state:
//     slightly stale answers are safe because clients verify liveness by
//     binding, and at-most-once call semantics never depend on registry
//     reads.
//
// The leader-following Client (client.go) implements lrpc.Registry; the
// lease-renewing lrpc.Announcement and the multi-endpoint
// lrpc.SuperviseReplicated failover supervisor read it through that
// interface.
package registry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrpc"
)

// ErrNotLeader reports a registry write sent to a replica that is not
// the (fresh) leader. Client follows the hint transparently; callers
// normally never see it.
var ErrNotLeader = errors.New("lrpc: registry replica is not the leader")

// InterfaceName is the LRPC interface every replica exports.
const InterfaceName = "lrpc.registry"

// Registry procedure indices.
const (
	regProcRequestVote = iota
	regProcAppendEntries
	regProcRegister
	regProcUnregister
	regProcRenew
	regProcResolve
	regProcStatus
)

// Client-facing reply status (first byte of every reply body).
const (
	regOK        = 0
	regNotLeader = 1 // payload: leader address hint (possibly empty)
	regErrReply  = 2 // payload: error code byte + text
)

// Error codes inside regErrReply replies.
const (
	regErrOther = iota
	regErrLeaseExpired
	regErrNotFound
)

// Replicated log entry kinds.
const (
	etNoop       = iota // leader barrier appended on election
	etRegister          // add a provider under a fresh lease
	etUnregister        // remove a provider (explicit withdrawal)
	etExpire            // remove a provider (lease timed out)
)

// regEntry is one replicated log entry. The name map of every replica is
// a pure function of the committed prefix of these.
type regEntry struct {
	term  uint64
	kind  byte
	name  string
	lease uint64
	ttl   time.Duration
	eps   []lrpc.Endpoint
}

// Replica roles.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

var roleNames = [...]string{"follower", "candidate", "leader"}

// Store holds a replica's durable consensus state (current term,
// vote, log). Production would write it to disk; here it is an in-memory
// box the process owner keeps across restarts, which is exactly what the
// rolling-restart fault schedules exercise: hand the same store back to
// StartReplica and the replica rejoins with its history intact.
// Starting from a fresh store models losing the disk.
type Store struct {
	mu       sync.Mutex
	term     uint64
	votedFor int32
	log      []regEntry
}

// NewStore returns an empty store (a replica with no history).
func NewStore() *Store { return &Store{} }

func (st *Store) save(term uint64, votedFor int32, log []regEntry) {
	st.mu.Lock()
	st.term, st.votedFor, st.log = term, votedFor, log
	st.mu.Unlock()
}

// load copies the log out so the restarting replica owns its slice and
// never shares a backing array with a predecessor's final state.
func (st *Store) load() (uint64, int32, []regEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.term, st.votedFor, append([]regEntry(nil), st.log...)
}

// Opts tunes a replica. The zero value selects defaults suited
// to a LAN cluster; fault harnesses shrink the intervals.
type Opts struct {
	// HeartbeatInterval is the leader's replication period. 0 selects 50ms.
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized follower patience
	// before standing for election. Zero values select 150ms and 300ms.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// PeerCallTimeout bounds each replica-to-replica RPC. 0 selects
	// 2×HeartbeatInterval (at least 50ms).
	PeerCallTimeout time.Duration
	// CommitTimeout bounds how long a client write (Register/Unregister)
	// waits for its entry to commit before answering "not leader" so the
	// client retries elsewhere. 0 selects 2s.
	CommitTimeout time.Duration
	// Listener, when set, serves the replica instead of listening on its
	// address — harnesses pre-bind listeners to pin ports across
	// restarts.
	Listener net.Listener
	// DialPeer, when set, establishes replica-to-replica connections —
	// the fault-injection joint (partitions cut links here).
	DialPeer func(peer int, addr string) (net.Conn, error)
	// Store is the durable state carried across restarts; nil starts
	// fresh.
	Store *Store
	// Seed seeds the election jitter; 0 selects a random seed.
	Seed int64
	// Tracer receives TraceElection and TraceLeaseExpire events.
	Tracer lrpc.Tracer
}

func (o *Opts) fill() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.ElectionTimeoutMin <= 0 {
		o.ElectionTimeoutMin = 3 * o.HeartbeatInterval
	}
	if o.ElectionTimeoutMax <= o.ElectionTimeoutMin {
		o.ElectionTimeoutMax = 2 * o.ElectionTimeoutMin
	}
	if o.PeerCallTimeout <= 0 {
		o.PeerCallTimeout = 2 * o.HeartbeatInterval
		if o.PeerCallTimeout < 50*time.Millisecond {
			o.PeerCallTimeout = 50 * time.Millisecond
		}
	}
	if o.CommitTimeout <= 0 {
		o.CommitTimeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = rand.Int63()
	}
}

// provider is one live registration under a name: a lease-scoped set of
// endpoints. A name can have several providers (replicated services);
// Resolve flattens them in registration order.
type provider struct {
	lease uint64
	ttl   time.Duration
	eps   []lrpc.Endpoint
}

// regWaiter parks a client write until its log index applies.
type regWaiter struct {
	term uint64
	ch   chan regApply
}

type regApply struct {
	ok    bool
	lease uint64
}

// Replica is one member of the replicated registry. All state
// below mu follows the consensus core's rules; the System it embeds
// serves the registry interface over the ordinary network plane.
type Replica struct {
	id    int
	addrs []string
	opts  Opts
	sys   *lrpc.System
	ns    *lrpc.NetServer
	store *Store

	mu            sync.Mutex
	term          uint64
	votedFor      int32
	log           []regEntry
	role          int
	leader        int // last known leader id, -1 unknown
	commit        int
	applied       int
	nextIdx       []int
	matchIdx      []int
	inflight      []bool // replication RPC outstanding, per peer
	lastAck       []time.Time
	votes         map[int]bool
	deadline      time.Time // election deadline (follower/candidate)
	hbDue         time.Time // next heartbeat (leader)
	rng           *rand.Rand
	names         map[string][]provider
	lastRenew     map[uint64]time.Time
	pendingExpire map[uint64]bool
	waiters       map[int][]*regWaiter
	closed        bool

	peersMu sync.Mutex
	peers   []*lrpc.NetClient

	stopCh chan struct{}
	kick   chan struct{}
	wg     sync.WaitGroup

	elections atomic.Uint64
	expiries  atomic.Uint64
}

// StartReplica starts replica id of the cluster whose members
// listen on addrs (addrs[id] is this replica's own address). The replica
// serves immediately and joins elections; Stop tears it down.
func StartReplica(id int, addrs []string, opts Opts) (*Replica, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("lrpc: registry replica id %d out of range for %d addresses", id, len(addrs))
	}
	opts.fill()
	store := opts.Store
	if store == nil {
		store = NewStore()
	}
	term, votedFor, log := store.load()
	r := &Replica{
		id:            id,
		addrs:         append([]string(nil), addrs...),
		opts:          opts,
		sys:           lrpc.NewSystem(),
		store:         store,
		term:          term,
		votedFor:      votedFor,
		log:           log,
		role:          roleFollower,
		leader:        -1,
		nextIdx:       make([]int, len(addrs)),
		matchIdx:      make([]int, len(addrs)),
		inflight:      make([]bool, len(addrs)),
		lastAck:       make([]time.Time, len(addrs)),
		rng:           rand.New(rand.NewSource(opts.Seed + int64(id)*7919)),
		names:         make(map[string][]provider),
		lastRenew:     make(map[uint64]time.Time),
		pendingExpire: make(map[uint64]bool),
		waiters:       make(map[int][]*regWaiter),
		peers:         make([]*lrpc.NetClient, len(addrs)),
		stopCh:        make(chan struct{}),
		kick:          make(chan struct{}, 1),
	}
	if opts.Tracer != nil {
		r.sys.SetTracer(opts.Tracer)
	}
	if _, err := r.sys.Export(r.registryInterface()); err != nil {
		return nil, err
	}
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addrs[id])
		if err != nil {
			return nil, err
		}
	}
	// Replay the committed-at-restart prefix lazily: a restarted replica
	// re-applies entries as the new leader's commit index reaches it, so
	// applied state never runs ahead of cluster agreement.
	r.resetElectionLocked(time.Now())
	// A NetServer's Close severs accepted conns: an embedded stop must
	// look like process death to peers, or their clients keep talking to
	// the zombie instead of redialing the restarted replica.
	r.ns = lrpc.ServeNetServer(r.sys, ln, lrpc.ServeOptions{})
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// ID returns the replica's cluster index.
func (r *Replica) ID() int { return r.id }

// Addr returns the address the replica serves on.
func (r *Replica) Addr() string { return r.ns.Addr() }

// System returns the replica's LRPC system (for metrics and tracing).
func (r *Replica) System() *lrpc.System { return r.sys }

// Elections returns how many elections this replica has won.
func (r *Replica) Elections() uint64 { return r.elections.Load() }

// Expiries returns how many leases this replica expired as leader.
func (r *Replica) Expiries() uint64 { return r.expiries.Load() }

// IsLeader reports whether the replica currently believes it leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == roleLeader
}

// Stop tears the replica down: the listener closes, peer connections
// drop, parked writes fail over to the next leader. The durable store
// keeps the replica's history for a restart.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.failWaitersLocked()
	r.mu.Unlock()
	close(r.stopCh)
	r.ns.Close() // sever in-flight server conns: look dead, be dead
	r.peersMu.Lock()
	for i, c := range r.peers {
		if c != nil {
			c.Close()
			r.peers[i] = nil
		}
	}
	r.peersMu.Unlock()
	r.wg.Wait()
}

// registryInterface declares the replica's exported procedures. The
// consensus RPCs and the client-facing operations ride the same plane.
func (r *Replica) registryInterface() *lrpc.Interface {
	return &lrpc.Interface{
		Name: InterfaceName,
		Procs: []lrpc.Proc{
			{Name: "RequestVote", Handler: r.handleRequestVote, AStackSize: 4096},
			{Name: "AppendEntries", Handler: r.handleAppendEntries, AStackSize: 64 << 10},
			{Name: "Register", Handler: r.handleRegister, AStackSize: 4096, NumAStacks: 16},
			{Name: "Unregister", Handler: r.handleUnregister, AStackSize: 4096, NumAStacks: 16},
			{Name: "Renew", Handler: r.handleRenew, AStackSize: 1024, NumAStacks: 16},
			{Name: "Resolve", Handler: r.handleResolve, AStackSize: 4096, NumAStacks: 16},
			{Name: "Status", Handler: r.handleStatus, AStackSize: 64 << 10},
		},
	}
}

// trace delivers one event to opts.Tracer, if set.
func (r *Replica) trace(kind lrpc.TraceKind, iface, proc string) {
	if r.opts.Tracer != nil {
		r.opts.Tracer.TraceEvent(lrpc.TraceEvent{Kind: kind, Iface: iface, Proc: proc})
	}
}

// --- the tick loop: heartbeats, elections, lease expiry ---

func (r *Replica) run() {
	defer r.wg.Done()
	// The internal clock driving heartbeats, elections and lease checks.
	tick := r.opts.HeartbeatInterval / 5
	if tick < 2*time.Millisecond {
		tick = 2 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
		case <-r.kick:
		}
		r.tick()
	}
}

// appendArgs is one replication RPC's frozen view of the leader state.
type appendArgs struct {
	peer     int
	term     uint64
	prev     int
	prevTerm uint64
	entries  []regEntry
	commit   int
}

type voteArgs struct {
	peer     int
	term     uint64
	lastIdx  int
	lastTerm uint64
}

func (r *Replica) tick() {
	now := time.Now()
	var appends []appendArgs
	var votes []voteArgs
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	switch r.role {
	case roleLeader:
		r.checkLeasesLocked(now)
		hb := !now.Before(r.hbDue)
		if hb {
			r.hbDue = now.Add(r.opts.HeartbeatInterval)
		}
		for p := range r.addrs {
			if p == r.id || r.inflight[p] {
				continue
			}
			if hb || r.nextIdx[p] <= len(r.log) || r.matchIdx[p] < r.commit {
				r.inflight[p] = true
				appends = append(appends, r.appendArgsLocked(p))
			}
		}
	default:
		if now.After(r.deadline) {
			r.startElectionLocked(now)
			if len(r.addrs) == 1 {
				r.becomeLeaderLocked(now)
			} else {
				votes = r.voteArgsLocked()
			}
		}
	}
	r.mu.Unlock()
	for _, a := range appends {
		a := a
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.sendAppend(a)
		}()
	}
	for _, v := range votes {
		v := v
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.sendVote(v)
		}()
	}
}

func (r *Replica) kickReplication() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *Replica) resetElectionLocked(now time.Time) {
	span := int64(r.opts.ElectionTimeoutMax - r.opts.ElectionTimeoutMin)
	r.deadline = now.Add(r.opts.ElectionTimeoutMin + time.Duration(r.rng.Int63n(span+1)))
}

func (r *Replica) persistLocked() {
	r.store.save(r.term, r.votedFor, r.log)
}

func (r *Replica) lastLogLocked() (idx int, term uint64) {
	idx = len(r.log)
	if idx > 0 {
		term = r.log[idx-1].term
	}
	return idx, term
}

func (r *Replica) startElectionLocked(now time.Time) {
	r.term++
	r.votedFor = int32(r.id)
	r.role = roleCandidate
	r.leader = -1
	r.votes = map[int]bool{r.id: true}
	r.persistLocked()
	r.resetElectionLocked(now)
}

func (r *Replica) voteArgsLocked() []voteArgs {
	lastIdx, lastTerm := r.lastLogLocked()
	var out []voteArgs
	for p := range r.addrs {
		if p != r.id {
			out = append(out, voteArgs{peer: p, term: r.term, lastIdx: lastIdx, lastTerm: lastTerm})
		}
	}
	return out
}

func (r *Replica) becomeLeaderLocked(now time.Time) {
	r.role = roleLeader
	r.leader = r.id
	for p := range r.addrs {
		r.nextIdx[p] = len(r.log) + 1
		r.matchIdx[p] = 0
		r.lastAck[p] = now
	}
	r.hbDue = now // replicate immediately
	// Lease grace: treat every live lease as freshly renewed, so a
	// leadership change never expires a healthy server that was renewing
	// against the old leader. Holders get one full TTL to find us.
	for _, provs := range r.names {
		for _, p := range provs {
			r.lastRenew[p.lease] = now
		}
	}
	r.pendingExpire = make(map[uint64]bool)
	r.elections.Add(1)
	r.trace(lrpc.TraceElection, InterfaceName, fmt.Sprintf("replica-%d term-%d", r.id, r.term))
	// A no-op barrier entry: committing it commits every prior-term entry
	// beneath it (the leader may only count replicas for entries of its
	// own term).
	r.appendEntryLocked(regEntry{kind: etNoop})
	r.kickReplication()
}

// stepDownLocked returns to follower state, bumping to term when it is
// newer. Parked writes fail over: their commit is no longer ours to
// promise.
func (r *Replica) stepDownLocked(term uint64, leader int) {
	if term > r.term {
		r.term = term
		r.votedFor = -1
		r.persistLocked()
	}
	r.role = roleFollower
	r.leader = leader
	r.pendingExpire = make(map[uint64]bool)
	r.failWaitersLocked()
	r.resetElectionLocked(time.Now())
}

func (r *Replica) failWaitersLocked() {
	for idx, ws := range r.waiters {
		for _, w := range ws {
			w.ch <- regApply{ok: false}
		}
		delete(r.waiters, idx)
	}
}

// appendEntryLocked appends one entry to the leader's log and returns
// its index.
func (r *Replica) appendEntryLocked(e regEntry) int {
	e.term = r.term
	r.log = append(r.log, e)
	r.persistLocked()
	r.advanceCommitLocked() // a single-replica cluster commits immediately
	r.kickReplication()
	return len(r.log)
}

func (r *Replica) appendArgsLocked(p int) appendArgs {
	next := r.nextIdx[p]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	var prevTerm uint64
	if prev > 0 {
		prevTerm = r.log[prev-1].term
	}
	// Copy the tail: the follower-side conflict rule may truncate and
	// overwrite this backing array if we ever step down mid-send.
	entries := append([]regEntry(nil), r.log[next-1:]...)
	return appendArgs{peer: p, term: r.term, prev: prev, prevTerm: prevTerm,
		entries: entries, commit: r.commit}
}

func (r *Replica) sendAppend(a appendArgs) {
	res, err := r.peerCall(a.peer, regProcAppendEntries, encodeAppendReq(r.id, a))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight[a.peer] = false
	if r.closed || err != nil || r.role != roleLeader || r.term != a.term {
		return
	}
	term, ok, match, derr := decodeAppendReply(res)
	if derr != nil {
		return
	}
	if term > r.term {
		r.stepDownLocked(term, -1)
		return
	}
	r.lastAck[a.peer] = time.Now()
	if ok {
		if match > r.matchIdx[a.peer] {
			r.matchIdx[a.peer] = match
		}
		r.nextIdx[a.peer] = match + 1
		r.advanceCommitLocked()
		if r.nextIdx[a.peer] <= len(r.log) {
			r.kickReplication()
		}
		return
	}
	// Log mismatch: back nextIdx off to the follower's floor and retry.
	ni := r.nextIdx[a.peer] - 1
	if match+1 < ni {
		ni = match + 1
	}
	if ni < 1 {
		ni = 1
	}
	r.nextIdx[a.peer] = ni
	r.kickReplication()
}

func (r *Replica) sendVote(a voteArgs) {
	res, err := r.peerCall(a.peer, regProcRequestVote, encodeVoteReq(r.id, a))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || err != nil || r.role != roleCandidate || r.term != a.term {
		return
	}
	term, granted, derr := decodeVoteReply(res)
	if derr != nil {
		return
	}
	if term > r.term {
		r.stepDownLocked(term, -1)
		return
	}
	if granted {
		r.votes[a.peer] = true
		if len(r.votes) > len(r.addrs)/2 {
			r.becomeLeaderLocked(time.Now())
		}
	}
}

// advanceCommitLocked moves the commit index to the highest entry of the
// current term replicated on a majority, then applies.
func (r *Replica) advanceCommitLocked() {
	if r.role != roleLeader {
		return
	}
	ms := make([]int, 0, len(r.addrs))
	for p := range r.addrs {
		if p == r.id {
			ms = append(ms, len(r.log))
		} else {
			ms = append(ms, r.matchIdx[p])
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ms)))
	quorum := ms[len(ms)/2]
	if quorum > r.commit && r.log[quorum-1].term == r.term {
		r.commit = quorum
		r.applyLocked()
	}
}

// applyLocked applies committed entries to the name map and wakes the
// writes parked on them.
func (r *Replica) applyLocked() {
	for r.applied < r.commit {
		idx := r.applied + 1
		e := r.log[idx-1]
		var lease uint64
		switch e.kind {
		case etRegister:
			lease = uint64(idx) // log position: unique for all time once committed
			r.names[e.name] = append(r.names[e.name], provider{lease: lease, ttl: e.ttl, eps: e.eps})
			r.lastRenew[lease] = time.Now()
		case etUnregister, etExpire:
			r.removeProviderLocked(e.name, e.lease)
			delete(r.lastRenew, e.lease)
			delete(r.pendingExpire, e.lease)
			if e.kind == etExpire {
				r.expiries.Add(1)
				r.trace(lrpc.TraceLeaseExpire, e.name, fmt.Sprintf("lease-%d", e.lease))
			}
		}
		r.applied = idx
		for _, w := range r.waiters[idx] {
			w.ch <- regApply{ok: e.term == w.term, lease: lease}
		}
		delete(r.waiters, idx)
	}
}

func (r *Replica) removeProviderLocked(name string, lease uint64) {
	provs := r.names[name]
	for i, p := range provs {
		if p.lease == lease {
			provs = append(provs[:i], provs[i+1:]...)
			break
		}
	}
	if len(provs) == 0 {
		delete(r.names, name)
	} else {
		r.names[name] = provs
	}
}

// checkLeasesLocked appends an expire entry for every lease whose holder
// has gone quiet past its TTL. Expiry is replicated: followers remove
// the binding when the entry commits, never on their own clocks.
func (r *Replica) checkLeasesLocked(now time.Time) {
	for name, provs := range r.names {
		for _, p := range provs {
			if p.ttl <= 0 || r.pendingExpire[p.lease] {
				continue
			}
			last, ok := r.lastRenew[p.lease]
			if !ok {
				r.lastRenew[p.lease] = now
				continue
			}
			if now.Sub(last) > p.ttl {
				r.pendingExpire[p.lease] = true
				r.appendEntryLocked(regEntry{kind: etExpire, name: name, lease: p.lease})
			}
		}
	}
}

// leaderFreshLocked reports whether this leader has heard from a quorum
// within an election period — the leader-lease check that keeps a
// partitioned stale leader from accepting writes or renewals a newer
// leader will contradict.
func (r *Replica) leaderFreshLocked(now time.Time) bool {
	if len(r.addrs) == 1 {
		return true
	}
	acks := make([]time.Time, 0, len(r.addrs))
	for p := range r.addrs {
		if p == r.id {
			acks = append(acks, now)
		} else {
			acks = append(acks, r.lastAck[p])
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].After(acks[j]) })
	return now.Sub(acks[len(acks)/2]) <= r.opts.ElectionTimeoutMin
}

// leaderHintLocked returns the last known leader's address, for the
// not-leader redirect.
func (r *Replica) leaderHintLocked() string {
	if r.leader >= 0 && r.leader < len(r.addrs) && r.leader != r.id {
		return r.addrs[r.leader]
	}
	return ""
}

// --- consensus RPC handlers ---

func (r *Replica) handleRequestVote(c *lrpc.Call) {
	term, cand, lastIdx, lastTerm, err := decodeVoteReq(c.Args())
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if term > r.term {
		r.term = term
		r.votedFor = -1
		r.role = roleFollower
		r.leader = -1
		r.persistLocked()
	}
	granted := false
	if term == r.term && (r.votedFor == -1 || r.votedFor == int32(cand)) {
		myIdx, myTerm := r.lastLogLocked()
		// The up-to-date restriction: never elect a leader missing
		// entries we know to be committed.
		if lastTerm > myTerm || (lastTerm == myTerm && lastIdx >= myIdx) {
			granted = true
			r.votedFor = int32(cand)
			r.persistLocked()
			r.resetElectionLocked(time.Now())
		}
	}
	curTerm := r.term
	r.mu.Unlock()
	c.SetResults(encodeVoteReply(curTerm, granted))
}

func (r *Replica) handleAppendEntries(c *lrpc.Call) {
	term, leaderID, prev, prevTerm, entries, leaderCommit, err := decodeAppendReq(c.Args())
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if term < r.term {
		curTerm, floor := r.term, len(r.log)
		r.mu.Unlock()
		c.SetResults(encodeAppendReply(curTerm, false, floor))
		return
	}
	if term > r.term || r.role != roleFollower {
		r.stepDownLocked(term, leaderID)
	}
	r.leader = leaderID
	r.resetElectionLocked(time.Now())
	if prev > len(r.log) || (prev > 0 && r.log[prev-1].term != prevTerm) {
		floor := len(r.log)
		if prev-1 < floor {
			floor = prev - 1
		}
		curTerm := r.term
		r.mu.Unlock()
		c.SetResults(encodeAppendReply(curTerm, false, floor))
		return
	}
	idx := prev
	changed := false
	for _, e := range entries {
		idx++
		if idx <= len(r.log) {
			if r.log[idx-1].term == e.term {
				continue
			}
			// Conflict: a divergent uncommitted suffix dies here.
			r.log = r.log[:idx-1]
			changed = true
		}
		r.log = append(r.log, e)
		changed = true
	}
	if changed {
		r.persistLocked()
	}
	last := prev + len(entries)
	if leaderCommit > r.commit {
		nc := leaderCommit
		if nc > last {
			nc = last // only trust what this RPC verified
		}
		if nc > r.commit {
			r.commit = nc
			r.applyLocked()
		}
	}
	curTerm := r.term
	r.mu.Unlock()
	c.SetResults(encodeAppendReply(curTerm, true, last))
}

// --- client-facing handlers ---

func (r *Replica) handleRegister(c *lrpc.Call) {
	rd := newRegReader(c.Args())
	name := rd.str()
	ttl := time.Duration(rd.u64())
	eps := rd.eps()
	if rd.bad {
		c.SetResults(regErrResult(regErrOther, "malformed register request"))
		return
	}
	idx, w, errReply := r.propose(regEntry{kind: etRegister, name: name, ttl: ttl, eps: eps})
	if errReply != nil {
		c.SetResults(errReply)
		return
	}
	if res := r.awaitCommit(idx, w); res.ok {
		var wr regWriter
		wr.u8(regOK)
		wr.u64(res.lease)
		c.SetResults(wr.b)
	} else {
		c.SetResults(r.notLeaderResult())
	}
}

func (r *Replica) handleUnregister(c *lrpc.Call) {
	rd := newRegReader(c.Args())
	name := rd.str()
	lease := rd.u64()
	if rd.bad {
		c.SetResults(regErrResult(regErrOther, "malformed unregister request"))
		return
	}
	idx, w, errReply := r.propose(regEntry{kind: etUnregister, name: name, lease: lease})
	if errReply != nil {
		c.SetResults(errReply)
		return
	}
	if res := r.awaitCommit(idx, w); res.ok {
		c.SetResults([]byte{regOK})
	} else {
		c.SetResults(r.notLeaderResult())
	}
}

// propose appends a client command on the leader and parks a waiter for
// its commit; on a non-leader (or stale-leader) replica it returns the
// redirect reply instead.
func (r *Replica) propose(e regEntry) (int, *regWaiter, []byte) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		// Answer like a non-leader so the client sweeps to a live replica
		// instead of treating a dying process as a terminal verdict.
		return 0, nil, r.notLeaderResultLocked()
	}
	if r.role != roleLeader || !r.leaderFreshLocked(now) {
		return 0, nil, r.notLeaderResultLocked()
	}
	idx := r.appendEntryLocked(e)
	w := &regWaiter{term: r.term, ch: make(chan regApply, 1)}
	if r.applied >= idx {
		// Single-replica cluster: the entry applied inside the append.
		lease := uint64(0)
		if e.kind == etRegister {
			lease = uint64(idx)
		}
		w.ch <- regApply{ok: true, lease: lease}
		return idx, w, nil
	}
	r.waiters[idx] = append(r.waiters[idx], w)
	return idx, w, nil
}

// awaitCommit waits out a parked write. A timeout reads as "not leader":
// the caller retries against the cluster and the entry either committed
// (a later identical register is harmless: the stale lease expires) or
// died with this leader.
func (r *Replica) awaitCommit(idx int, w *regWaiter) regApply {
	t := time.NewTimer(r.opts.CommitTimeout)
	defer t.Stop()
	select {
	case res := <-w.ch:
		return res
	case <-t.C:
	case <-r.stopCh:
	}
	r.mu.Lock()
	ws := r.waiters[idx]
	for i := range ws {
		if ws[i] == w {
			r.waiters[idx] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	select {
	case res := <-w.ch: // the verdict raced our timeout
		return res
	default:
		return regApply{ok: false}
	}
}

func (r *Replica) handleRenew(c *lrpc.Call) {
	rd := newRegReader(c.Args())
	name := rd.str()
	lease := rd.u64()
	if rd.bad {
		c.SetResults(regErrResult(regErrOther, "malformed renew request"))
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.closed {
		reply := r.notLeaderResultLocked()
		r.mu.Unlock()
		c.SetResults(reply)
		return
	}
	if r.role != roleLeader || !r.leaderFreshLocked(now) {
		reply := r.notLeaderResultLocked()
		r.mu.Unlock()
		c.SetResults(reply)
		return
	}
	live := false
	for _, p := range r.names[name] {
		if p.lease == lease {
			live = true
			break
		}
	}
	if !live || r.pendingExpire[lease] {
		r.mu.Unlock()
		c.SetResults(regErrResult(regErrLeaseExpired, fmt.Sprintf("lease %d for %q", lease, name)))
		return
	}
	r.lastRenew[lease] = now
	r.mu.Unlock()
	c.SetResults([]byte{regOK})
}

func (r *Replica) handleResolve(c *lrpc.Call) {
	rd := newRegReader(c.Args())
	name := rd.str()
	if rd.bad {
		c.SetResults(regErrResult(regErrOther, "malformed resolve request"))
		return
	}
	r.mu.Lock()
	var eps []lrpc.Endpoint
	for _, p := range r.names[name] {
		eps = append(eps, p.eps...)
	}
	r.mu.Unlock()
	if len(eps) == 0 {
		c.SetResults(regErrResult(regErrNotFound, name))
		return
	}
	var wr regWriter
	wr.u8(regOK)
	wr.eps(eps)
	c.SetResults(wr.b)
}

// Status is a replica's self-report, used by convergence checks
// and the failover bench.
type Status struct {
	ID        int                   `json:"id"`
	Term      uint64                `json:"term"`
	Role      string                `json:"role"`
	Leader    int                   `json:"leader"`
	Commit    int                   `json:"commit"`
	Applied   int                   `json:"applied"`
	LogLen    int                   `json:"log_len"`
	Names     map[string][]Provider `json:"names"`
	Elections uint64                `json:"elections"`
	Expiries  uint64                `json:"expiries"`
}

// Provider is one live registration in a Status.
type Provider struct {
	Lease     uint64          `json:"lease"`
	TTLMs     float64         `json:"ttl_ms"`
	Endpoints []lrpc.Endpoint `json:"endpoints"`
}

// Status returns the replica's current view (also served remotely as the
// Status procedure).
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:        r.id,
		Term:      r.term,
		Role:      roleNames[r.role],
		Leader:    r.leader,
		Commit:    r.commit,
		Applied:   r.applied,
		LogLen:    len(r.log),
		Names:     make(map[string][]Provider, len(r.names)),
		Elections: r.elections.Load(),
		Expiries:  r.expiries.Load(),
	}
	for name, provs := range r.names {
		for _, p := range provs {
			st.Names[name] = append(st.Names[name], Provider{
				Lease:     p.lease,
				TTLMs:     float64(p.ttl) / float64(time.Millisecond),
				Endpoints: append([]lrpc.Endpoint(nil), p.eps...),
			})
		}
	}
	return st
}

func (r *Replica) handleStatus(c *lrpc.Call) {
	blob, err := json.Marshal(r.Status())
	if err != nil {
		c.SetResults(regErrResult(regErrOther, err.Error()))
		return
	}
	var wr regWriter
	wr.u8(regOK)
	wr.bytes(blob)
	c.SetResults(wr.b)
}

func (r *Replica) notLeaderResult() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notLeaderResultLocked()
}

func (r *Replica) notLeaderResultLocked() []byte {
	var wr regWriter
	wr.u8(regNotLeader)
	wr.str(r.leaderHintLocked())
	return wr.b
}

func regErrResult(code byte, msg string) []byte {
	var wr regWriter
	wr.u8(regErrReply)
	wr.u8(code)
	wr.str(msg)
	return wr.b
}

// --- peer RPC plumbing ---

func (r *Replica) peerCall(peer, proc int, req []byte) ([]byte, error) {
	c, err := r.peerClient(peer)
	if err != nil {
		return nil, err
	}
	return c.Call(proc, req)
}

// peerClient lazily builds the reconnecting client for a peer; redials,
// backoff, and partition behavior all ride the NetClient machinery.
func (r *Replica) peerClient(peer int) (*lrpc.NetClient, error) {
	r.peersMu.Lock()
	defer r.peersMu.Unlock()
	if c := r.peers[peer]; c != nil {
		return c, nil
	}
	select {
	case <-r.stopCh:
		return nil, lrpc.ErrConnClosed
	default:
	}
	addr := r.addrs[peer]
	dial := func() (net.Conn, error) {
		if r.opts.DialPeer != nil {
			return r.opts.DialPeer(peer, addr)
		}
		return net.Dial("tcp", addr)
	}
	c, err := lrpc.NewReconnectingClient(InterfaceName, lrpc.DialOptions{
		Dial:           dial,
		MaxInFlight:    8,
		CallTimeout:    r.opts.PeerCallTimeout,
		WriteTimeout:   r.opts.PeerCallTimeout,
		RedialAttempts: 2,
		BackoffInitial: 2 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Seed:           r.opts.Seed + int64(peer) + 1,
	})
	if err != nil {
		return nil, err
	}
	r.peers[peer] = c
	return c, nil
}

// --- wire encoding ---

// regWriter builds little-endian request/reply bodies.
type regWriter struct{ b []byte }

func (w *regWriter) u8(v byte) { w.b = append(w.b, v) }

func (w *regWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *regWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *regWriter) str(s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	w.b = binary.LittleEndian.AppendUint16(w.b, uint16(len(s)))
	w.b = append(w.b, s...)
}

func (w *regWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}

func (w *regWriter) eps(eps []lrpc.Endpoint) {
	w.u32(uint32(len(eps)))
	for _, e := range eps {
		w.str(e.Plane)
		w.str(e.Addr)
	}
}

// regReader decodes the same, failing closed: any truncation flips bad
// and every later read returns zero values.
type regReader struct {
	b   []byte
	off int
	bad bool
}

func newRegReader(b []byte) *regReader { return &regReader{b: b} }

func (r *regReader) take(n int) []byte {
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *regReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *regReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *regReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *regReader) str() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	return string(r.take(int(binary.LittleEndian.Uint16(b))))
}

func (r *regReader) blob() []byte {
	n := r.u32()
	if r.bad || int(n) > len(r.b)-r.off {
		r.bad = true
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

func (r *regReader) eps() []lrpc.Endpoint {
	n := r.u32()
	if r.bad || n > 1<<16 {
		r.bad = true
		return nil
	}
	out := make([]lrpc.Endpoint, 0, n)
	for i := uint32(0); i < n && !r.bad; i++ {
		out = append(out, lrpc.Endpoint{Plane: r.str(), Addr: r.str()})
	}
	if r.bad {
		return nil
	}
	return out
}

func encodeVoteReq(from int, a voteArgs) []byte {
	var w regWriter
	w.u64(a.term)
	w.u32(uint32(from))
	w.u64(uint64(a.lastIdx))
	w.u64(a.lastTerm)
	return w.b
}

func decodeVoteReq(b []byte) (term uint64, cand, lastIdx int, lastTerm uint64, err error) {
	r := newRegReader(b)
	term = r.u64()
	cand = int(r.u32())
	lastIdx = int(r.u64())
	lastTerm = r.u64()
	if r.bad {
		return 0, 0, 0, 0, errors.New("lrpc: malformed vote request")
	}
	return term, cand, lastIdx, lastTerm, nil
}

func encodeVoteReply(term uint64, granted bool) []byte {
	var w regWriter
	w.u64(term)
	if granted {
		w.u8(1)
	} else {
		w.u8(0)
	}
	return w.b
}

func decodeVoteReply(b []byte) (term uint64, granted bool, err error) {
	r := newRegReader(b)
	term = r.u64()
	granted = r.u8() == 1
	if r.bad {
		return 0, false, errors.New("lrpc: malformed vote reply")
	}
	return term, granted, nil
}

func encodeAppendReq(from int, a appendArgs) []byte {
	var w regWriter
	w.u64(a.term)
	w.u32(uint32(from))
	w.u64(uint64(a.prev))
	w.u64(a.prevTerm)
	w.u64(uint64(a.commit))
	w.u32(uint32(len(a.entries)))
	for _, e := range a.entries {
		w.u64(e.term)
		w.u8(e.kind)
		w.str(e.name)
		w.u64(e.lease)
		w.u64(uint64(e.ttl))
		w.eps(e.eps)
	}
	return w.b
}

func decodeAppendReq(b []byte) (term uint64, leader, prev int, prevTerm uint64, entries []regEntry, commit int, err error) {
	r := newRegReader(b)
	term = r.u64()
	leader = int(r.u32())
	prev = int(r.u64())
	prevTerm = r.u64()
	commit = int(r.u64())
	n := r.u32()
	if r.bad || n > 1<<20 {
		return 0, 0, 0, 0, nil, 0, errors.New("lrpc: malformed append request")
	}
	entries = make([]regEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		e := regEntry{
			term:  r.u64(),
			kind:  r.u8(),
			name:  r.str(),
			lease: r.u64(),
			ttl:   time.Duration(r.u64()),
		}
		e.eps = r.eps()
		if r.bad {
			return 0, 0, 0, 0, nil, 0, errors.New("lrpc: malformed append entry")
		}
		entries = append(entries, e)
	}
	return term, leader, prev, prevTerm, entries, commit, nil
}

func encodeAppendReply(term uint64, ok bool, match int) []byte {
	var w regWriter
	w.u64(term)
	if ok {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(uint64(match))
	return w.b
}

func decodeAppendReply(b []byte) (term uint64, ok bool, match int, err error) {
	r := newRegReader(b)
	term = r.u64()
	ok = r.u8() == 1
	match = int(r.u64())
	if r.bad {
		return 0, false, 0, errors.New("lrpc: malformed append reply")
	}
	return term, ok, match, nil
}
