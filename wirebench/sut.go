package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nonexposure/internal/service"
)

const (
	// opTimeout bounds one round trip; a reply slower than this is a
	// hard failure. A rotate of the largest workload takes well under it.
	opTimeout = 30 * time.Second
	// shutdownTimeout bounds the child's graceful exit after SIGINT.
	// Exceeding it fails the run: a hung shutdown is a program defect.
	shutdownTimeout = 10 * time.Second
	// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
	// 100 on every Linux the benchmark targets).
	clockTick = 10 * time.Millisecond
)

// sut is one running `cloakd -coordinator -shards 2` child with the
// generator's client connections to it.
type sut struct {
	cmd     *exec.Cmd
	addr    string
	clients []*service.Client
	exited  chan error
}

// startSUT launches the cloakd binary at bin for a population of n, on
// the CPUs in cpus when given, and dials conns connections to its
// coordinator.
func startSUT(bin, cpus string, n, k, conns int) (*sut, error) {
	args := []string{bin, "-coordinator", "-shards", "2",
		"-n", strconv.Itoa(n), "-k", strconv.Itoa(k), "-addr", "127.0.0.1:0"}
	if cpus != "" {
		// taskset execs cloakd in place, so the child's pid is cloakd's.
		args = append([]string{"taskset", "-c", cpus}, args...)
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	// If the benchmark itself is killed, the kernel kills cloakd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &sut{cmd: cmd, exited: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		// Read the bound address, then drain stdout until the child
		// closes it, and only then reap it (Wait must follow the reads).
		sc := bufio.NewScanner(stdout)
		const marker = "coordinator listening on "
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				addrc <- strings.Fields(line[i+len(marker):])[0]
			}
		}
		s.exited <- cmd.Wait()
	}()
	select {
	case s.addr = <-addrc:
	case err := <-s.exited:
		return nil, fmt.Errorf("cloakd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-s.exited
		return nil, errors.New("cloakd never reported its listen address")
	}
	for i := 0; i < conns; i++ {
		c, err := service.Dial(s.addr, service.WithOpTimeout(opTimeout))
		if err != nil {
			s.kill()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *sut) pid() int { return s.cmd.Process.Pid }

func (s *sut) closeClients() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
}

// stop closes every client connection first — the coordinator's Close
// waits for its connection handlers, which only return on client EOF —
// then interrupts the child and waits for a clean exit.
func (s *sut) stop() error {
	s.closeClients()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("interrupt cloakd: %w", err)
	}
	select {
	case err := <-s.exited:
		// Exit status 1 is a known defect, tolerated here: on SIGINT the
		// coordinator's listener is closed twice (once by the Listen
		// context, once by Close), so cloakd reports "use of closed
		// network connection" and exits 1 after a complete shutdown.
		var ee *exec.ExitError
		if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
			return fmt.Errorf("cloakd shutdown: %w", err)
		}
		return nil
	case <-time.After(shutdownTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("cloakd did not shut down within %v", shutdownTimeout)
	}
}

// kill is the error-path teardown: no checks, just make sure the child
// is gone and reaped.
func (s *sut) kill() {
	s.closeClients()
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is a process's VmHWM (peak resident set) in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
