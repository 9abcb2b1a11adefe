package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// timedWindow measures the process and the host over one workload's
// timed loop: the peak resident set the loop reached, and how much of
// the host's CPU went elsewhere while it ran. Set-up, reference
// compiles and check passes fall outside it.
type timedWindow struct {
	start time.Time
	cpu   time.Duration
	stat  cpuTicks
}

// startWindow returns the memory set-up left behind to the OS and
// resets the kernel's peak-RSS mark to the current resident set, so
// the peak read at the end covers only what runs after this call.
func startWindow() (*timedWindow, error) {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteString("5")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	return &timedWindow{start: time.Now(), cpu: processCPU(), stat: readCPUTicks()}, nil
}

// end stores peak_rss_mb and reports, under "host", the window's wall
// time, the process's CPU seconds per wall second, and the share of
// the host's CPU time the hypervisor gave to other guests (steal). A
// run with a high steal_frac, or a cpu_per_wall well below its usual
// value, was taken on a disturbed host.
func (w *timedWindow) end(o *outcome) error {
	wall := time.Since(w.start)
	cpu := processCPU() - w.cpu
	stat := readCPUTicks()
	peak, err := peakRSSKB()
	if err != nil {
		return err
	}
	o.metrics["peak_rss_mb"] = peak / 1024
	o.report["host"] = map[string]float64{
		"wall_s":       wall.Seconds(),
		"cpu_per_wall": cpu.Seconds() / wall.Seconds(),
		"steal_frac":   stat.stealFrac(w.stat),
	}
	return nil
}

// peakRSSKB reads the peak resident set (VmHWM) since the last reset.
func peakRSSKB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the host-wide CPU time from the first line of /proc/stat:
// the total over user, nice, system, idle, iowait, irq, softirq and
// steal, and steal alone.
type cpuTicks struct {
	total, steal uint64
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of the host's CPU time between before and t
// that went to steal; 0 when nothing was counted.
func (t cpuTicks) stealFrac(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}
