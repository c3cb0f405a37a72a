//go:build race

package main

// The race detector makes sync.Pool drop items, so allocation and overflow
// counts mean nothing under it.
const raceEnabled = true
