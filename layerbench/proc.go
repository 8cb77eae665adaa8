package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned system-under-test process.
type proc struct {
	cmd         *exec.Cmd
	addr        string // data-plane address it listens on
	metricsAddr string // HTTP address serving its Prometheus exposition
}

// spawn starts `driftbench <args...>` and waits for the "listening on
// ADDR" line it prints on stdout.
func spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", args[0], err)
	}
	p := &proc{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
			}
		}
		close(addrCh)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			p.stop()
			return nil, fmt.Errorf("%s printed no listen address", args[0])
		}
		p.addr = addr
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening", args[0])
	}
}

// spawnShard starts a `driftbench shard` serving tmplPath.
func spawnShard(bin, tmplPath string) (*proc, error) {
	maddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := spawn(bin, "shard", "-addr", "127.0.0.1:0", "-metrics-addr", maddr,
		"-template", tmplPath, "-queue-depth", "64", "-shed-after", "0")
	if err != nil {
		return nil, err
	}
	p.metricsAddr = maddr
	return p, nil
}

// spawnRoute starts a `driftbench route` in front of one shard.
func spawnRoute(bin, shardAddr string) (*proc, error) {
	maddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := spawn(bin, "route", "-addr", "127.0.0.1:0", "-admin", maddr, "-shards", shardAddr)
	if err != nil {
		return nil, err
	}
	p.metricsAddr = maddr
	return p, nil
}

// stop interrupts the process and reaps it, killing it if it lingers.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

func stopAll(ps []*proc) {
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// freeAddr reserves a loopback port for an HTTP listener the child
// binds itself (the binaries do not report a port-0 metrics address).
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// schedCPU is a process's on-CPU time summed over its threads from
// /proc/<pid>/task/*/schedstat, at nanosecond resolution (/proc/<pid>/stat
// counts in 10 ms ticks, too coarse for per-window figures). Threads that
// have exited are not counted; Go rarely retires its threads.
func schedCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat of %d: %w", pid, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// selfCPUTime is this process's user+system CPU time at microsecond
// resolution.
func selfCPUTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWM is a process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) { return vmStatus(pid, "VmHWM") }

// vmStatus reads one kB field of a process's /proc status (pid 0 is
// this process) in bytes.
func vmStatus(pid int, field string) (int64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// resetPeakRSS returns this process's free heap to the OS and restarts
// its VmHWM from the current resident set, which it returns.
func resetPeakRSS() (int64, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, err
	}
	return vmStatus(0, "VmRSS")
}

// scrape fetches a Prometheus text exposition over HTTP.
func scrape(addr string) (map[string]float64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseExposition(resp.Body)
}

// parseExposition reads the unlabelled samples of a text exposition.
func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
