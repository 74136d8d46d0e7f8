package main

import (
	"syscall"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process's CPU clock (Linux only, like the numbers this
// benchmark reports: there is no fallback that would mean the same thing): the scheduler's nanosecond count of
// the time this process's threads actually ran. It stands still while the
// host runs someone else (the guest kernel discounts steal time) and while
// the process waits, which is what makes it repeat on a shared box.
func cpuNow() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}
