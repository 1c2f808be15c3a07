package main

import (
	"syscall"
	"time"
)

// sleepUntil pauses the calling goroutine until t. time.Sleep wakes up
// to a millisecond late when the process is otherwise idle (the
// runtime's poller sleeps in whole milliseconds), which at 600
// arrivals/s would add half a millisecond of generator lateness to every
// latency; a nanosleep system call wakes within tens of microseconds.
// A signal can end the call early (EINTR), hence the loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
