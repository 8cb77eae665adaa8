package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// A subcommand is recognised only as the first argument. One that
// follows a flag, or any other stray argument, must be refused with
// exit status 2 and a usage message naming the subcommands — not
// silently ignored while the paper tables run.
func TestStrayArgumentExitsWithUsage(t *testing.T) {
	bin := driftbenchBinary(t)
	for _, args := range [][]string{
		{"-list", "fleet"},
		{"-exp", "table2", "extra"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("driftbench %v: err %v, want exit status 2\n%s", args, err, out)
		}
		for name := range subcommands {
			if !strings.Contains(string(out), name) {
				t.Fatalf("driftbench %v: usage does not name subcommand %q\n%s", args, name, out)
			}
		}
	}
}
