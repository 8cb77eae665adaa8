package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/wire"
)

// buildOnce builds the driftbench binary exactly once per test run, for
// the tests that spawn real serving processes through startServing.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func driftbenchBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "driftbench-chaos")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "driftbench")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = errors.New(string(out))
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("build driftbench: %v", buildOnce.err)
	}
	return buildOnce.bin
}

// TestChaosKillShardUnderGovernor is the process-level chaos round
// trip: a shard process running the adaptive capacity governor is
// driven until it demotes members mid-traffic, one stream's checkpoint
// is migrated out (tombstoning it), the process is hard-killed with
// batches in flight, and a replacement process adopts the checkpoint.
// The books must reconcile across the kill: the checkpoint's lifetime
// sample counter continues exactly where the dead process left it, the
// tombstone refuses late batches until the death and does not leak
// into the replacement, and the governor resumes demoting in the new
// process.
func TestChaosKillShardUnderGovernor(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard processes")
	}
	bin := driftbenchBinary(t)

	tmpl, err := trainTemplate(1, edgedrift.Float64)
	if err != nil {
		t.Fatal(err)
	}
	tmplPath := filepath.Join(t.TempDir(), "template.bin")
	if err := os.WriteFile(tmplPath, tmpl, 0o644); err != nil {
		t.Fatal(err)
	}
	data := nslkdd.Generate(nslkdd.DefaultParams()).TestX
	// 1ns budget: every batch is over budget, so the governor demotes
	// whenever traffic flows and recovers when it stops.
	args := []string{"shard", "-addr", "127.0.0.1:0", "-template", tmplPath,
		"-pressure-latency-budget", "1ns", "-pressure-interval", "5ms"}

	proc, addr := startServing(t, bin, args...)
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Drive two streams until the governor has demoted under load.
	const batch = 100
	sentBeta := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, id := range []string{"alpha", "beta"} {
			rs, shed, err := cl.SendBatch(nil, id, data[:batch])
			if err != nil {
				t.Fatalf("send %s: %v", id, err)
			}
			if shed != 0 || len(rs) != batch {
				t.Fatalf("send %s: %d results, %d shed", id, len(rs), shed)
			}
			if id == "beta" {
				sentBeta += batch
			}
		}
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded > 0 && st.Demotions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("governor never demoted under sustained over-budget traffic")
		}
	}

	// Checkpoint beta out. Export is refused at a mid-reconstruction
	// boundary, so push the stream forward until it succeeds. The
	// checkpoint's lifetime counter must then match every sample we
	// pushed, and the tombstone must refuse late batches.
	ckpt, err := cl.MigrateOut("beta")
	for attempt := 0; err != nil && attempt < 100; attempt++ {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			t.Fatal(err)
		}
		if _, _, err = cl.SendBatch(nil, "beta", data[:batch]); err != nil {
			t.Fatal(err)
		}
		sentBeta += batch
		ckpt, err = cl.MigrateOut("beta")
	}
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Stream != "beta" || ckpt.Samples != sentBeta {
		t.Fatalf("checkpoint stream=%q samples=%d, want beta/%d", ckpt.Stream, ckpt.Samples, sentBeta)
	}
	var re *wire.RemoteError
	if _, _, err := cl.SendBatch(nil, "beta", data[:batch]); !errors.As(err, &re) {
		t.Fatalf("tombstoned stream accepted a late batch (err=%v)", err)
	}

	// Hard-kill the process with alpha batches in flight.
	killed := make(chan struct{})
	go func() {
		conn, err := wire.DialClient(addr, 2*time.Second)
		if err != nil {
			close(killed)
			return
		}
		defer conn.Close()
		for {
			if _, _, err := conn.SendBatch(nil, "alpha", data[:batch]); err != nil {
				close(killed) // the kill landed mid-batch
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the hammer goroutine get in flight
	if err := proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight sender never observed the kill")
	}

	// Replacement process: adopt the checkpoint and reconcile.
	_, addr2 := startServing(t, bin, args...)
	cl2, err := wire.DialClient(addr2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.MigrateIn(ckpt); err != nil {
		t.Fatal(err)
	}

	// The adopted member serves (the dead process's tombstone did not
	// leak into the replacement) and arrives still demoted — the
	// checkpoint preserved its degraded state across the kill, so the
	// governor has nothing to do for beta. A fresh stream gives it new
	// work, proving the control loop runs in the replacement too.
	acked2, ackedGamma := uint64(0), uint64(0)
	deadline = time.Now().Add(10 * time.Second)
	for {
		for _, id := range []string{"beta", "gamma"} {
			rs, shed, err := cl2.SendBatch(nil, id, data[:batch])
			if err != nil {
				t.Fatalf("post-restart send %s: %v", id, err)
			}
			if shed != 0 || len(rs) != batch {
				t.Fatalf("post-restart send %s: %d results, %d shed", id, len(rs), shed)
			}
			if id == "beta" {
				acked2 += batch
			} else {
				ackedGamma += batch
			}
		}
		st, err := cl2.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.MigratedIn != 1 {
			t.Fatalf("replacement shard migrated-in counter = %d, want 1", st.MigratedIn)
		}
		// The roll-up carries the checkpoint's lifetime counter over, so
		// the replacement's books read pre-kill samples + its own acks.
		if st.Samples != sentBeta+acked2+ackedGamma {
			t.Fatalf("replacement shard books %d samples, want %d+%d+%d",
				st.Samples, sentBeta, acked2, ackedGamma)
		}
		if st.Degraded >= 2 && st.Demotions > 0 {
			// gamma demoted by the replacement's governor; beta still
			// degraded from the imported checkpoint.
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("governor never demoted in the replacement process (stats %+v)", st)
		}
	}

	// Final reconciliation: export beta again — its lifetime counter
	// must be exactly pre-kill samples plus post-restart acks, proving
	// the checkpoint lost nothing and double-counted nothing.
	ckpt2, err := cl2.MigrateOut("beta")
	for attempt := 0; err != nil && attempt < 100; attempt++ {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			t.Fatal(err)
		}
		if _, _, err = cl2.SendBatch(nil, "beta", data[:batch]); err != nil {
			t.Fatal(err)
		}
		acked2 += batch
		ckpt2, err = cl2.MigrateOut("beta")
	}
	if err != nil {
		t.Fatal(err)
	}
	if ckpt2.Samples != sentBeta+acked2 {
		t.Fatalf("beta lifetime samples = %d after restart, want %d + %d", ckpt2.Samples, sentBeta, acked2)
	}
	if len(ckpt2.Payload) == 0 {
		t.Fatal("re-exported checkpoint has an empty payload")
	}
}
