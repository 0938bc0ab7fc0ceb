package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bitmask; 1024 CPUs is the kernel's
// default CONFIG_NR_CPUS ceiling.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func schedGetaffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func schedSetaffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	m, err := schedGetaffinity(0)
	if err != nil {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pin moves every thread of process pid onto cpu. Threads and children
// created later inherit the mask from the thread that creates them.
func pin(pid, cpu int) error {
	var m cpuMask
	m.set(cpu)
	// A thread may be born while the directory is read; a second pass
	// finds it (its creator was already pinned by the first).
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := schedSetaffinity(tid, &m); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}
