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

// Client-facing reply status (regMsg.Status).
const (
	regOK        = 0
	regNotLeader = 1 // Leader: the leader's address hint (possibly empty)
	regErrReply  = 2 // Code and Err
)

// Error codes inside regErrReply replies (regMsg.Code).
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
// a pure function of the committed prefix of these. AppendEntries
// carries entries as they are in the log.
type regEntry struct {
	Term  uint64          `json:"term"`
	Kind  byte            `json:"kind"`
	Name  string          `json:"name,omitempty"`
	Lease uint64          `json:"lease,omitempty"`
	TTL   time.Duration   `json:"ttl,omitempty"`
	Eps   []lrpc.Endpoint `json:"eps,omitempty"`
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
	peer int
	appendMsg
}

type voteArgs struct {
	peer int
	voteMsg
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
		term = r.log[idx-1].Term
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
			out = append(out, voteArgs{p, voteMsg{Term: r.term, Cand: r.id, LastIdx: lastIdx, LastTerm: lastTerm}})
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
	r.appendEntryLocked(regEntry{Kind: etNoop})
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
	e.Term = r.term
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
		prevTerm = r.log[prev-1].Term
	}
	// Copy the tail: the follower-side conflict rule may truncate and
	// overwrite this backing array if we ever step down mid-send.
	entries := append([]regEntry(nil), r.log[next-1:]...)
	return appendArgs{p, appendMsg{Term: r.term, Leader: r.id, Prev: prev, PrevTerm: prevTerm,
		Entries: entries, Commit: r.commit}}
}

func (r *Replica) sendAppend(a appendArgs) {
	var rep appendMsg
	ok := r.peerCall(a.peer, regProcAppendEntries, &a.appendMsg, &rep, a.Prev+len(a.Entries))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight[a.peer] = false
	if r.closed || !ok || r.role != roleLeader || r.term != a.Term {
		return
	}
	if rep.Term > r.term {
		r.stepDownLocked(rep.Term, -1)
		return
	}
	r.lastAck[a.peer] = time.Now()
	match := rep.Match
	if rep.OK {
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
	var rep voteMsg
	ok := r.peerCall(a.peer, regProcRequestVote, &a.voteMsg, &rep, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || !ok || r.role != roleCandidate || r.term != a.Term {
		return
	}
	if rep.Term > r.term {
		r.stepDownLocked(rep.Term, -1)
		return
	}
	if rep.Granted {
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
	if quorum > r.commit && r.log[quorum-1].Term == r.term {
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
		switch e.Kind {
		case etRegister:
			lease = uint64(idx) // log position: unique for all time once committed
			r.names[e.Name] = append(r.names[e.Name], provider{lease: lease, ttl: e.TTL, eps: e.Eps})
			r.lastRenew[lease] = time.Now()
		case etUnregister, etExpire:
			r.removeProviderLocked(e.Name, e.Lease)
			delete(r.lastRenew, e.Lease)
			delete(r.pendingExpire, e.Lease)
			if e.Kind == etExpire {
				r.expiries.Add(1)
				r.trace(lrpc.TraceLeaseExpire, e.Name, fmt.Sprintf("lease-%d", e.Lease))
			}
		}
		r.applied = idx
		for _, w := range r.waiters[idx] {
			w.ch <- regApply{ok: e.Term == w.term, lease: lease}
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
				r.appendEntryLocked(regEntry{Kind: etExpire, Name: name, Lease: p.lease})
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

// --- wire messages ---

// Every registry call carries one JSON document each way, as the
// broker's control calls do: the registry runs once per binding, not
// once per call, so it has no codec of its own. voteMsg and appendMsg
// are the consensus RPCs' requests and replies, regMsg the client
// operations'.

// voteMsg is RequestVote's request (Term, Cand, LastIdx, LastTerm) and
// reply (Term, Granted).
type voteMsg struct {
	Term     uint64 `json:"term"`
	Cand     int    `json:"cand,omitempty"`
	LastIdx  int    `json:"last_idx,omitempty"`
	LastTerm uint64 `json:"last_term,omitempty"`
	Granted  bool   `json:"granted,omitempty"`
}

// appendMsg is AppendEntries' request (Term, Leader, Prev, PrevTerm,
// Entries, Commit) and reply (Term, OK, Match).
type appendMsg struct {
	Term     uint64     `json:"term"`
	Leader   int        `json:"leader,omitempty"`
	Prev     int        `json:"prev,omitempty"`
	PrevTerm uint64     `json:"prev_term,omitempty"`
	Entries  []regEntry `json:"entries,omitempty"`
	Commit   int        `json:"commit,omitempty"`
	OK       bool       `json:"ok,omitempty"`
	Match    int        `json:"match,omitempty"`
}

// regMsg is the request and reply of Register (Name, TTL, Eps → Lease),
// Unregister and Renew (Name, Lease), Resolve (Name → Eps) and Status
// (→ Replica). Every reply carries Status; a regNotLeader one the
// leader hint, a regErrReply one Code and Err.
type regMsg struct {
	Name    string          `json:"name,omitempty"`
	TTL     time.Duration   `json:"ttl,omitempty"`
	Lease   uint64          `json:"lease,omitempty"`
	Eps     []lrpc.Endpoint `json:"eps,omitempty"`
	Status  int             `json:"status,omitempty"`
	Leader  string          `json:"leader,omitempty"`
	Code    int             `json:"code,omitempty"`
	Err     string          `json:"err,omitempty"`
	Replica *Status         `json:"replica,omitempty"`
}

// peerMsg is a consensus message, request or reply.
type peerMsg interface {
	// valid reports whether the message may touch the state of a
	// replica in a cluster of members; bound is the highest match the
	// answered request allows (0 for a request, which carries none).
	valid(members, bound int) bool
}

func (m *voteMsg) valid(members, _ int) bool { return m.Cand >= 0 && m.Cand < members }

func (m *appendMsg) valid(members, bound int) bool {
	if m.Prev < 0 || m.Commit < 0 || m.Leader < 0 || m.Leader >= members || m.Match < 0 || m.Match > bound {
		return false
	}
	for _, e := range m.Entries {
		if e.Kind > etExpire {
			return false
		}
	}
	return true
}

// decodePeer is the one gate between the wire and the consensus state:
// a consensus message that does not decode, or is out of range, is
// dropped before it reaches the log or the leader's indices.
func decodePeer(b []byte, m peerMsg, members, bound int) bool {
	return json.Unmarshal(b, m) == nil && m.valid(members, bound)
}

// reply sets v as the call's results. The registry's messages hold
// integers, strings, endpoints and finite floats, which always marshal.
func reply(c *lrpc.Call, v any) {
	b, _ := json.Marshal(v)
	c.SetResults(b)
}

// --- consensus RPC handlers ---

func (r *Replica) handleRequestVote(c *lrpc.Call) {
	var a voteMsg
	if !decodePeer(c.Args(), &a, len(r.addrs), 0) {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if a.Term > r.term {
		r.term = a.Term
		r.votedFor = -1
		r.role = roleFollower
		r.leader = -1
		r.persistLocked()
	}
	granted := false
	if a.Term == r.term && (r.votedFor == -1 || r.votedFor == int32(a.Cand)) {
		myIdx, myTerm := r.lastLogLocked()
		// The up-to-date restriction: never elect a leader missing
		// entries we know to be committed.
		if a.LastTerm > myTerm || (a.LastTerm == myTerm && a.LastIdx >= myIdx) {
			granted = true
			r.votedFor = int32(a.Cand)
			r.persistLocked()
			r.resetElectionLocked(time.Now())
		}
	}
	curTerm := r.term
	r.mu.Unlock()
	reply(c, voteMsg{Term: curTerm, Granted: granted})
}

func (r *Replica) handleAppendEntries(c *lrpc.Call) {
	var a appendMsg
	if !decodePeer(c.Args(), &a, len(r.addrs), 0) {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if a.Term < r.term {
		// A stale leader steps down on the term alone; it reads no match.
		curTerm := r.term
		r.mu.Unlock()
		reply(c, appendMsg{Term: curTerm})
		return
	}
	if a.Term > r.term || r.role != roleFollower {
		r.stepDownLocked(a.Term, a.Leader)
	}
	r.leader = a.Leader
	r.resetElectionLocked(time.Now())
	prev := a.Prev
	if prev > len(r.log) || (prev > 0 && r.log[prev-1].Term != a.PrevTerm) {
		floor := len(r.log)
		if prev-1 < floor {
			floor = prev - 1
		}
		curTerm := r.term
		r.mu.Unlock()
		reply(c, appendMsg{Term: curTerm, Match: floor})
		return
	}
	idx := prev
	changed := false
	for _, e := range a.Entries {
		idx++
		if idx <= len(r.log) {
			if r.log[idx-1].Term == e.Term {
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
	last := prev + len(a.Entries)
	if a.Commit > r.commit {
		nc := a.Commit
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
	reply(c, appendMsg{Term: curTerm, OK: true, Match: last})
}

// --- client-facing handlers ---

// request decodes a client operation's arguments; a malformed request is
// answered here and reports false.
func request(c *lrpc.Call) (regMsg, bool) {
	var m regMsg
	if err := json.Unmarshal(c.Args(), &m); err != nil {
		reply(c, regErr(regErrOther, "malformed request: "+err.Error()))
		return m, false
	}
	return m, true
}

func (r *Replica) handleRegister(c *lrpc.Call) {
	if m, ok := request(c); ok {
		r.write(c, regEntry{Kind: etRegister, Name: m.Name, TTL: m.TTL, Eps: m.Eps})
	}
}

func (r *Replica) handleUnregister(c *lrpc.Call) {
	if m, ok := request(c); ok {
		r.write(c, regEntry{Kind: etUnregister, Name: m.Name, Lease: m.Lease})
	}
}

// write commits a client command and answers the call: the lease on
// success, "not leader" when this replica cannot promise the commit.
func (r *Replica) write(c *lrpc.Call, e regEntry) {
	if idx, w, ok := r.propose(e); ok {
		if res := r.awaitCommit(idx, w); res.ok {
			reply(c, regMsg{Lease: res.lease})
			return
		}
	}
	reply(c, r.notLeader())
}

// propose appends a client command on the leader and parks a waiter for
// its commit; on a non-leader (or stale-leader) replica it reports false.
func (r *Replica) propose(e regEntry) (int, *regWaiter, bool) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	// A closed replica answers like a non-leader, so the client sweeps to
	// a live replica instead of treating a dying process as a terminal
	// verdict.
	if r.closed || r.role != roleLeader || !r.leaderFreshLocked(now) {
		return 0, nil, false
	}
	idx := r.appendEntryLocked(e)
	w := &regWaiter{term: r.term, ch: make(chan regApply, 1)}
	if r.applied >= idx {
		// Single-replica cluster: the entry applied inside the append.
		lease := uint64(0)
		if e.Kind == etRegister {
			lease = uint64(idx)
		}
		w.ch <- regApply{ok: true, lease: lease}
		return idx, w, true
	}
	r.waiters[idx] = append(r.waiters[idx], w)
	return idx, w, true
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
	m, ok := request(c)
	if !ok {
		return
	}
	reply(c, r.renew(m.Name, m.Lease))
}

func (r *Replica) renew(name string, lease uint64) regMsg {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.role != roleLeader || !r.leaderFreshLocked(now) {
		return r.notLeaderLocked()
	}
	live := false
	for _, p := range r.names[name] {
		if p.lease == lease {
			live = true
			break
		}
	}
	if !live || r.pendingExpire[lease] {
		return regErr(regErrLeaseExpired, fmt.Sprintf("lease %d for %q", lease, name))
	}
	r.lastRenew[lease] = now
	return regMsg{}
}

func (r *Replica) handleResolve(c *lrpc.Call) {
	m, ok := request(c)
	if !ok {
		return
	}
	r.mu.Lock()
	var eps []lrpc.Endpoint
	for _, p := range r.names[m.Name] {
		eps = append(eps, p.eps...)
	}
	r.mu.Unlock()
	if len(eps) == 0 {
		reply(c, regErr(regErrNotFound, m.Name))
		return
	}
	reply(c, regMsg{Eps: eps})
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
	st := r.Status()
	reply(c, regMsg{Replica: &st})
}

func (r *Replica) notLeader() regMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notLeaderLocked()
}

func (r *Replica) notLeaderLocked() regMsg {
	return regMsg{Status: regNotLeader, Leader: r.leaderHintLocked()}
}

func regErr(code int, msg string) regMsg {
	return regMsg{Status: regErrReply, Code: code, Err: msg}
}

// --- peer RPC plumbing ---

// peerCall sends req to a peer and decodes its answer into rep through
// decodePeer; false means no usable answer.
func (r *Replica) peerCall(peer, proc int, req any, rep peerMsg, bound int) bool {
	c, err := r.peerClient(peer)
	if err != nil {
		return false
	}
	body, _ := json.Marshal(req) // integers and log entries: cannot fail
	res, err := c.Call(proc, body)
	return err == nil && decodePeer(res, rep, len(r.addrs), bound)
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
