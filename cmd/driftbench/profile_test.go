package main

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/wire"
)

// TestServingProfilesFlushOnInterrupt runs a shard and a router process
// with -cpuprofile, drives a few batches through both, and interrupts
// them: each must exit cleanly having written a complete profile (a
// gzip stream that reads to its end; an unflushed one is empty).
func TestServingProfilesFlushOnInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard and router processes")
	}
	bin := driftbenchBinary(t)
	dir := t.TempDir()
	tmpl, err := trainTemplate(1, edgedrift.Float64)
	if err != nil {
		t.Fatal(err)
	}
	tmplPath := filepath.Join(dir, "template.bin")
	if err := os.WriteFile(tmplPath, tmpl, 0o644); err != nil {
		t.Fatal(err)
	}
	shardProf, routeProf := filepath.Join(dir, "shard.pprof"), filepath.Join(dir, "route.pprof")
	shardCmd, shardAddr := startServing(t, bin, "shard", "-addr", "127.0.0.1:0", "-template", tmplPath, "-cpuprofile", shardProf)
	routeCmd, routeAddr := startServing(t, bin, "route", "-addr", "127.0.0.1:0", "-shards", shardAddr, "-cpuprofile", routeProf)

	cl, err := wire.DialClient(routeAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	xs := nslkdd.Generate(nslkdd.DefaultParams()).TestX[:64]
	for i := 0; i < 20; i++ {
		if _, _, err := cl.SendBatch(nil, "s", xs); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	for _, p := range []struct {
		cmd  *exec.Cmd
		path string
	}{{routeCmd, routeProf}, {shardCmd, shardProf}} {
		stopProc(p.cmd)
		if !p.cmd.ProcessState.Success() {
			t.Fatalf("%s exited with %v after SIGINT", p.cmd.Args[1], p.cmd.ProcessState)
		}
		f, err := os.Open(p.path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s profile is not a gzip stream: %v", p.cmd.Args[1], err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Fatalf("%s profile truncated: %d bytes, %v", p.cmd.Args[1], n, err)
		}
		f.Close()
	}
}

// startServing starts `driftbench <args...>` and returns it with the
// address scraped from its "listening on" line.
func startServing(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			stopProc(cmd)
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("%s printed no listen address", args[0])
	}
	_, rest, ok := strings.Cut(sc.Text(), "listening on ")
	if !ok {
		t.Fatalf("%s: unexpected first line %q", args[0], sc.Text())
	}
	go io.Copy(io.Discard, stdout)
	return cmd, strings.Fields(rest)[0]
}

// stopProc interrupts a serving process and reaps it, escalating to
// Kill if it ignores the signal.
func stopProc(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}
