//go:build !linux

package main

import "time"

// sleepUntil pauses the calling goroutine until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
