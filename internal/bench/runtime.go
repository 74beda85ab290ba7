package bench

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// rtSample is a point-in-time read of the runtime counters the per-layer
// runtime metrics are deltas of.
type rtSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
	objects         uint64
	gcCycles        uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/objects:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), objects: u(3), gcCycles: u(4)}
}

// rtWindow accumulates runtime deltas over a set of timed windows.
type rtWindow struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func (w *rtWindow) add(before, after rtSample) {
	w.gcCPU += after.gcCPU - before.gcCPU
	w.totalCPU += after.totalCPU - before.totalCPU
	w.allocBytes += after.allocBytes - before.allocBytes
}

// layers reports runtime.gc_cpu_pct and runtime.alloc_mb.
func (w rtWindow) layers(into map[string]float64) {
	if w.totalCPU > 0 {
		into["runtime.gc_cpu_pct"] = 100 * w.gcCPU / w.totalCPU
	}
	into["runtime.alloc_mb"] = float64(w.allocBytes) / (1 << 20)
}
