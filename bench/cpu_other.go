//go:build !unix

package main

// processCPUNs is not measured on this platform.
func processCPUNs() int64 { return 0 }
