package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go runs on.
const clockTick = 100

// parseStatCPU returns utime+stime of a /proc/<pid>/stat line. The comm
// field may hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return time.Duration(ut+st) * (time.Second / clockTick), nil
}

// procCPU is the CPU time a process (all threads) has consumed.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseVmHWM returns the peak resident set ("VmHWM:  1234 kB") of a
// /proc/<pid>/status file, in MB.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM")
}

func procRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	mb, _ := parseVmHWM(b)
	return mb
}

// selfCPU is this process's own CPU time; childCPU is that of the
// children it has waited for (the tool workloads' processes).
func selfCPU() time.Duration     { return rusageCPU(syscall.RUSAGE_SELF) }
func childrenCPU() time.Duration { return rusageCPU(syscall.RUSAGE_CHILDREN) }

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
