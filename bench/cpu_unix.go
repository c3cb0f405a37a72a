//go:build unix

package main

import "syscall"

// processCPUNs is this process's user plus system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
