package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in the kernel for d. The Go timer
// wheel wakes an idle process only to the millisecond, which would make a
// camera generator late by up to a millisecond on every frame — jitter no
// real camera adds. A kernel sleep wakes within tens of microseconds.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
