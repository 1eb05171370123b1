package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is the process's CPU time (its own plus its waited-for
// children's) and the host's steal time, read together so a run can
// report both over its span. Steal is time the hypervisor ran someone
// else on this machine's vCPUs; a run with much of it is slow for
// reasons outside the program.
type hostSample struct {
	cpu, steal time.Duration
}

func readHost() hostSample {
	return hostSample{cpu: cpuTime(syscall.RUSAGE_SELF) + cpuTime(syscall.RUSAGE_CHILDREN), steal: stealTime()}
}

// cpuTime returns user plus system time of who (RUSAGE_SELF or
// RUSAGE_CHILDREN), or 0 when getrusage fails.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the host-wide steal counter from /proc/stat, or 0 where
// the kernel does not expose it.
func stealTime() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ, which Linux fixes at 100 for user
	// space.
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSample is the Go runtime's allocation, GC and CPU counters at one
// instant; two samples around a phase give its per-item costs.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64 // runtime/metrics CPU-class seconds
	cpu                 time.Duration
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	s := runtimeSample{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		cpu:        cpuTime(syscall.RUSAGE_SELF),
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return s
}

// runtimePerItem stores the runtime.* per-layer metrics of the phase
// between a and b, which produced items items.
func runtimePerItem(m map[string]float64, a, b runtimeSample, items int) {
	n := float64(items)
	m["runtime.mallocs_per_item"] = float64(b.mallocs-a.mallocs) / n
	m["runtime.alloc_kb_per_item"] = float64(b.allocBytes-a.allocBytes) / 1024 / n
	m["runtime.gc_cycles_per_item"] = float64(b.gcCycles-a.gcCycles) / n
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	m["runtime.cpu_ms_per_item"] = ms(b.cpu-a.cpu) / n
}
