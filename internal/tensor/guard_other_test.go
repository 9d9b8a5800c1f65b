//go:build !linux

package tensor

import "testing"

// guardedFloats returns a zeroed slice of n float32s. Only the Linux
// build places it against a guard page.
func guardedFloats(_ *testing.T, n int) []float32 { return make([]float32, n) }
