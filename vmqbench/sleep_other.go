//go:build !linux

package main

import "time"

// sleepPrecise falls back to the Go timer where no kernel sleep is wired up.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
