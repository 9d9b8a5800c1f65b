package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"vmq/internal/tensor"
)

// hostFacts names the machine a result was measured on: a speed number
// without them cannot be compared across hosts.
type hostFacts struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"tensor_kernel"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.Kernel(),
		GOAMD64:    "n/a",
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if ok && strings.TrimSpace(key) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// peakRSSMB reports the process's peak resident set (VmHWM) in MB, or 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the machine-wide CPU tick counters: the ticks stolen by
// the hypervisor for other tenants, and all ticks. Zero where /proc does
// not provide them.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
