package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// bootTimeout bounds one cold boot of marketd.
const bootTimeout = 120 * time.Second

// niceness is marketd's scheduling priority relative to this process.
const niceness = 5

// daemon is one running marketd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	setup  time.Duration // exec to first 200 from /readyz
	output chan struct{} // closed when the stdout reader has drained
}

// startMarketd execs bin with args plus a loopback listen address, waits
// for its "serving on" line, then for its first 200 from /readyz. The
// child is killed if this process dies, so an aborted run leaves no
// server behind.
func startMarketd(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("marketd stdout: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start marketd: %w", err)
	}
	d := &daemon{cmd: cmd, output: make(chan struct{})}
	// marketd runs at a lower CPU priority than this process, as if the
	// client had a machine of its own: when marketd keeps both cores
	// busy, the client still sends on time and reads responses as they
	// arrive, so its own scheduling delay does not count against the
	// server. The client needs little CPU, so marketd's throughput is
	// unchanged.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, cmd.Process.Pid, niceness); err != nil {
		d.kill()
		return nil, fmt.Errorf("lower marketd priority: %w", err)
	}
	addrs := make(chan string, 1)
	go func() { // ends at EOF, when the child exits
		defer close(d.output)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				select {
				case addrs <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case addr := <-addrs:
		d.base = "http://" + addr
	case <-d.output:
		d.kill()
		return nil, fmt.Errorf("marketd exited before serving")
	case <-time.After(bootTimeout):
		d.kill()
		return nil, fmt.Errorf("marketd did not serve within %v", bootTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		if ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("marketd /readyz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime is the child's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read marketd cpu: %w", err)
	}
	utime, stime, err := parseStatTicks(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseStatTicks extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("stat: no command field")
	}
	// After ")" come field 3 (state) onwards, so utime is the 12th.
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("stat: %d fields after the command, want >= 13", len(fields))
	}
	if utime, err = strconv.ParseInt(fields[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(fields[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat stime: %w", err)
	}
	return utime, stime, nil
}

// stop asks marketd to shut down, waits for it, and returns its peak
// resident set size over its whole life in MiB.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	timer.Stop()
	<-d.output
	if err != nil {
		return 0, fmt.Errorf("marketd exit: %w", err)
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("marketd rusage unavailable")
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// kill ends marketd without ceremony and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.output
}
