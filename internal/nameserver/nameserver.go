// Package nameserver provides the name service that LRPC clerks register
// exported interfaces with and that clients resolve import requests
// against (section 3.1: "The clerk registers the interface with a name
// server and awaits import requests from clients").
//
// The store is deliberately generic: the LRPC run-time registers its clerk
// records, the network RPC layer registers remote service addresses.
//
// This is the single-domain store; the replicated, leased registry that
// survives server and registry crashes is package lrpc/registry
// (registry.Replica / registry.Client).
package nameserver

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound reports a lookup of an unregistered name.
var ErrNotFound = errors.New("nameserver: name not registered")

// ErrAlreadyRegistered reports a Register of a name that is already
// bound. Interfaces are withdrawn explicitly on domain termination, so a
// duplicate registration is a caller bug (or a stale clerk), not a
// replace.
var ErrAlreadyRegistered = errors.New("nameserver: name already registered")

// NameServer is a flat name-to-registration map, safe for concurrent use
// by any number of clerk and client goroutines.
type NameServer struct {
	mu      sync.RWMutex
	entries map[string]any
}

// New returns an empty name server.
func New() *NameServer {
	return &NameServer{entries: make(map[string]any)}
}

// Register binds name to value. Re-registering an existing name fails
// with ErrAlreadyRegistered: interfaces are withdrawn explicitly on
// domain termination.
func (ns *NameServer) Register(name string, value any) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, name)
	}
	ns.entries[name] = value
	return nil
}

// Lookup resolves name.
func (ns *NameServer) Lookup(name string) (any, error) {
	ns.mu.RLock()
	v, ok := ns.entries[name]
	ns.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return v, nil
}

// Unregister withdraws name; withdrawing an unknown name is a no-op.
func (ns *NameServer) Unregister(name string) {
	ns.mu.Lock()
	delete(ns.entries, name)
	ns.mu.Unlock()
}

// Names lists the registered names in sorted order.
func (ns *NameServer) Names() []string {
	ns.mu.RLock()
	names := make([]string, 0, len(ns.entries))
	for n := range ns.entries {
		names = append(names, n)
	}
	ns.mu.RUnlock()
	sort.Strings(names)
	return names
}
