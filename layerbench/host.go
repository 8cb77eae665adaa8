package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is the host and provenance record written with every
// result. Numbers are comparable only between runs whose host fields
// match.
type hostInfo struct {
	NProc      int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	CPUFlags   []string `json:"cpu_flags"` // of avx2, fma, avx512f
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Commit     string   `json:"commit"` // git HEAD, or "unknown" outside a git checkout
	SourceHash string   `json:"source_sha256"`
	Seed       uint64   `json:"seed"`
}

// sameHost reports whether two records describe the same host.
func (h hostInfo) sameHost(o hostInfo) bool {
	return h.NProc == o.NProc && h.CPUModel == o.CPUModel &&
		strings.Join(h.CPUFlags, ",") == strings.Join(o.CPUFlags, ",") &&
		h.GoVersion == o.GoVersion && h.GOMAXPROCS == o.GOMAXPROCS
}

func readHost(root string, seed uint64) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		have := map[string]bool{}
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if h.CPUModel == "" {
					h.CPUModel = strings.TrimSpace(v)
				}
			case "flags":
				for _, f := range strings.Fields(v) {
					have[f] = true
				}
			}
		}
		for _, f := range []string{"avx2", "fma", "avx512f"} {
			if have[f] {
				h.CPUFlags = append(h.CPUFlags, f)
			}
		}
	}
	// The ceiling keeps git from searching above the checkout.
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.SourceHash = sourceHash(root)
	return h
}

// sourceHash fingerprints the Go sources and module files under root,
// which identifies the code measured even where no git metadata exists.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod":
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(sum, rel+"\n")
		if fh, err := os.Open(f); err == nil {
			io.Copy(sum, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}
