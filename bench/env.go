package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env records where a run happened, so a number always travels with the
// machine and commit it came from.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Environment describes the current process and machine. The commit is
// read from the nearest .git directory above dir ("unknown" outside a
// git checkout).
func Environment(dir string) Env {
	return Env{
		Commit:     gitCommit(dir),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func gitCommit(dir string) string {
	for d, _ := filepath.Abs(dir); ; d = filepath.Dir(d) {
		git := filepath.Join(d, ".git")
		if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
			ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !ok {
				return ref // detached HEAD holds the hash itself
			}
			if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if b, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
				for _, line := range strings.Split(string(b), "\n") {
					if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
						return hash
					}
				}
			}
			return "unknown"
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
