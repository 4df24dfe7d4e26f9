package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// spinArg is the argument that runs this binary as a keep-warm spinner.
const spinArg = "keep-warm-spinner"

// keepWarm starts one spinner process per CPU and returns how many run
// and a function that stops them and waits for each to end.
//
// On a VM a vCPU with nothing to run halts, and a request that arrives
// then waits until the host schedules that vCPU again. With the host
// busy that took milliseconds: the p95 of a 2 ms cache hit moved by a
// third from run to run, and with the vCPUs kept busy it held within a
// tenth. A spinner runs under SCHED_IDLE, so the kernel runs it only when
// nothing else is runnable and preempts it as soon as anything is. The
// vCPUs never halt, as with idle=poll on bare metal, and the benchmark's
// own threads lose no time to them. Their CPU time is not counted in
// cpu_ms_per_item: getrusage(RUSAGE_SELF) leaves out child processes.
//
// A spinner that cannot take the idle class exits at once and is not
// counted; the benchmark then runs without it.
func keepWarm() (int, func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, spinArg)
		cmd.Stderr = os.Stderr
		// The kernel kills a spinner whose parent dies, however it dies.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			continue
		}
		// The spinner writes one line once it runs in the idle class.
		if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
			_ = cmd.Wait() // it failed to take the idle class and exited
			continue
		}
		cmds = append(cmds, cmd)
	}
	return len(cmds), func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill()
			_ = cmd.Wait() // killed: the error only reports the signal
		}
	}
}

// spin is the spinner process: it moves its thread to SCHED_IDLE, says
// so on standard output and runs until it is killed.
func spin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: keep-warm spinner cannot take SCHED_IDLE:", e)
		os.Exit(1)
	}
	fmt.Println("spinning")
	for {
	}
}
