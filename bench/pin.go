package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that already re-executed itself pinned.
const pinnedEnv = "RNBENCH_PINNED"

// pinToOneCPU restricts this process, and with it every child it starts —
// the fixture builder and rnknnd — to the highest-numbered CPU it may run on
// (CPU 0 also serves the machine's device interrupts).
//
// Left to the scheduler, client and server threads of a loopback ping-pong
// wander between the virtual CPUs, and on this kind of VM waking a halted
// vCPU costs 50-100 µs: the same commit then measures 7k or 13k requests a
// second depending on where its threads happened to settle, and even the
// single-goroutine library loops spread by 12 % from migrations alone. On
// one CPU there is one placement: ten identical lib-expand runs agree
// within 2 %, http-hot within 5 %. The price is stated in README.md: no
// parallel speed-up is measured (GOMAXPROCS is 1 everywhere), and client
// and server share the CPU, so qps is requests per CPU-second of both.
//
// An affinity mask set on one thread does not reach the threads the Go
// runtime has already started, so the process sets it on the calling thread
// and re-executes itself: the new image starts with every thread pinned.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1,024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one [16]uint64
	for i := int(n/8) - 1; i >= 0; i-- {
		if mask[i] != 0 {
			one[i] = 1 << (bits.Len64(mask[i]) - 1) // highest set bit
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}
