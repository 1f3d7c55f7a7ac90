package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Keeping the host warm. The sizing host slows a vCPU down by up to 2x
// for tens of milliseconds after it has been idle (a fixed loop run
// every 300 ms took 0.36 to 0.72 ns per step; run back to back, 0.35 to
// 0.36), so every number of a server that is sometimes idle - all of
// them - moved with how the idle gaps happened to fall. A benchmark
// machine would have its frequency governor pinned and deep idle states
// off; from inside a guest the same is had by never letting a CPU idle:
// a child process spins one thread per CPU under SCHED_IDLE, the policy
// that runs only when nothing else wants the CPU and is preempted the
// moment anything does. It is a process of its own because a spinning
// goroutine would hold one of the generator's Ps, and stopping the world
// for a collection would wait on a thread that is never scheduled.
//
// Not with the write-ahead log on: vCPUs that never halt leave the
// host's disk emulation short of CPU. With the spinner running beside a
// loaded server an fsync that takes 0.45 ms (p99 0.9 ms) took 0.46 ms
// with a p90 of 3 ms, a p99 of 117 ms and stalls of seconds, and
// wal_open lost tens of thousands of requests; spinning 80 % of the time
// spared the disk and steadied nothing. So wal_open is measured on a
// host left to idle, and is the noisier for it.

// warmChildEnv makes the benchmark's own binary run as the spinner.
const warmChildEnv = "BENCH_KEEP_WARM_CHILD"

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepWarm is the running spinner process.
type keepWarm struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	threads int
}

// startKeepWarm starts the spinner and returns once every thread of it
// spins.
func startKeepWarm() (*keepWarm, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &keepWarm{cmd: exec.Command(self)}
	k.cmd.Env = append(os.Environ(), warmChildEnv+"=1")
	k.cmd.Stderr = os.Stderr
	if k.stdin, err = k.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := k.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := k.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		_, err := fmt.Fscanf(bufio.NewReader(stdout), "spinning %d\n", &k.threads)
		ready <- err
	}()
	select {
	case err = <-ready:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("no answer within 10 s")
	}
	if err != nil {
		k.stop()
		return nil, fmt.Errorf("keep-warm process: %w", err)
	}
	return k, nil
}

// stop ends the spinner and waits for it. The spinner exits when its
// standard input closes, so it also ends if the benchmark is killed.
func (k *keepWarm) stop() {
	k.stdin.Close()
	k.cmd.Wait() // its exit status says nothing once it was told to go
}

// keepWarmChild is the spinner: one SCHED_IDLE thread pinned to each CPU
// the process may run on, until standard input closes.
func keepWarmChild() int {
	var mask [128]uint64 // 8192 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		fmt.Fprintln(os.Stderr, "keep-warm: sched_getaffinity:", errno)
		return 1
	}
	var cpus []int
	for c := 0; c < int(n)*8; c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	runtime.GOMAXPROCS(len(cpus) + 1)
	var stop atomic.Bool
	started := make(chan error, len(cpus))
	for _, c := range cpus {
		go func(cpu int) {
			runtime.LockOSThread()
			var one [128]uint64
			one[cpu/64] = 1 << (cpu % 64)
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
				started <- fmt.Errorf("sched_setaffinity(cpu %d): %v", cpu, errno)
				return
			}
			var prio int32 // struct sched_param: SCHED_IDLE takes priority 0
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
				started <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %v", errno)
				return
			}
			started <- nil
			for !stop.Load() {
			}
		}(c)
	}
	for range cpus {
		if err := <-started; err != nil {
			fmt.Fprintln(os.Stderr, "keep-warm:", err)
			stop.Store(true)
			return 1
		}
	}
	fmt.Printf("spinning %d\n", len(cpus))
	io.Copy(io.Discard, os.Stdin) // until the benchmark closes the pipe or dies
	stop.Store(true)
	return 0
}
