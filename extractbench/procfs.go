package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU
// times; Linux fixes it at 100 on every architecture Go supports.
const clockTicksPerSecond = 100

// procStats is one reading of a process's CPU and peak memory.
type procStats struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM, peak resident set
}

func readProc(pid int) (procStats, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStats{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStats{}, err
	}
	ticks, err := parseCPUTicks(string(stat))
	if err != nil {
		return procStats{}, err
	}
	hwm, err := parseVmHWMKB(string(status))
	if err != nil {
		return procStats{}, err
	}
	return procStats{cpu: time.Duration(ticks) * time.Second / clockTicksPerSecond, hwmKB: hwm}, nil
}

// parseCPUTicks returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseCPUTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	var total int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
	}
	return total, nil
}

// parseVmHWMKB returns the VmHWM line of /proc/<pid>/status in kB.
func parseVmHWMKB(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM")
}
