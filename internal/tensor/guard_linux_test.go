//go:build linux

package tensor

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns a zeroed slice of n float32s whose last element
// is the last word before a PROT_NONE page, so any access past the end
// faults. The mapping is released when the test ends.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := os.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if n == 0 {
		return []float32{}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[data-4*n])), n)
}
