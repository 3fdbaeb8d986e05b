// Package harness boots real marketd processes for the gates and
// benchmarks that drive them over loopback: it starts the binary, waits
// for its "serving on" line, fetches from it, and stops it with
// SIGTERM, requiring a clean exit.
package harness

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// bootTimeout bounds how long Start waits for the serving line.
const bootTimeout = 120 * time.Second

// Daemon is one managed marketd process.
type Daemon struct {
	Name string
	Base string // http://host:port from the serving line
	cmd  *exec.Cmd
}

// Start launches bin with args, echoing its output to w with a name
// prefix, and returns once the "serving on http://..." line appears.
func Start(w io.Writer, name, bin string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stdout pipe: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	urls := make(chan string, 1)
	go func() { // coordinated: closes urls when the pipe drains
		defer close(urls)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(w, "[%s] %s\n", name, line)
			if _, addr, ok := strings.Cut(line, "serving on http://"); ok {
				select {
				case urls <- "http://" + strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case base, ok := <-urls:
		if !ok {
			err := cmd.Wait()
			return nil, fmt.Errorf("%s: exited before serving: %w", name, err)
		}
		return &Daemon{Name: name, Base: base, cmd: cmd}, nil
	case <-time.After(bootTimeout):
		cmd.Process.Kill()
		return nil, fmt.Errorf("%s: no serving line within %v", name, bootTimeout)
	}
}

// Stop shuts the daemons down with SIGTERM, all at once so their exits
// overlap (a race-enabled binary lingers about a second at exit), and
// waits for each one to exit cleanly. It returns the first failure.
func Stop(ds ...*Daemon) error {
	for _, d := range ds {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.cmd.Process.Kill()
		}
	}
	var firstErr error
	for _, d := range ds {
		if err := d.wait(30 * time.Second); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// wait reaps the process, requiring a clean exit within timeout.
func (d *Daemon) wait(timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }() // coordinated: result received below or in kill path
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: exit: %w", d.Name, err)
		}
		return nil
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		return fmt.Errorf("%s: did not exit on SIGTERM", d.Name)
	}
}

// Kill ends the process at once; deferred after Start, it keeps an
// aborted run from leaving a server behind. It is a no-op once Stop has
// reaped the process.
func (d *Daemon) Kill() { d.cmd.Process.Kill() }

// Fetch sends one method request to base+path and returns the status,
// body, and ETag.
func Fetch(ctx context.Context, method, base, path string) (code int, body []byte, etag string, err error) {
	req, err := http.NewRequestWithContext(ctx, method, base+path, nil)
	if err != nil {
		return 0, nil, "", fmt.Errorf("%s %s%s: %w", method, base, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, "", fmt.Errorf("%s %s%s: %w", method, base, path, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", fmt.Errorf("%s %s%s: read: %w", method, base, path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), nil
}
