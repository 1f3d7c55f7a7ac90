package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// resultFile is what a run leaves in bench/out: the numbers and what
// they were measured on, so -compare can refuse unlike runs.
type resultFile struct {
	Seed          int64             `json:"seed"`
	RunSeconds    int               `json:"run_seconds"`
	HostCPUs      int               `json:"host_cpus"`
	ClientProcs   int               `json:"client_gomaxprocs"`
	ServerProcs   int               `json:"server_gomaxprocs"`
	GoVersion     string            `json:"go_version"`
	Kernel        string            `json:"kernel"`
	WALFilesystem string            `json:"wal_filesystem"`
	GitCommit     string            `json:"git_commit"`
	BuildS        float64           `json:"build_s"`
	KnownFailures []knownFailure    `json:"known_failures"`
	Workloads     []*workloadResult `json:"workloads"`
}

func newResultFile(env *environment, seed int64, seconds int) *resultFile {
	return &resultFile{
		Seed:          seed,
		RunSeconds:    seconds,
		HostCPUs:      runtime.NumCPU(),
		ClientProcs:   clientProcs,
		ServerProcs:   serverProcs,
		GoVersion:     runtime.Version(),
		Kernel:        kernelRelease(),
		WALFilesystem: filesystemType(env.outDir),
		GitCommit:     gitCommit(env.root),
		BuildS:        env.buildS,
		KnownFailures: knownFailures,
	}
}

// write stores the result as bench/out/result-<workload|all>-seed<n>-trace<0|1>.json.
func (f *resultFile) write(outDir string, traced bool) error {
	tag := "all"
	if len(f.Workloads) == 1 {
		tag = f.Workloads[0].Name
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	mode := "trace0"
	if traced {
		mode = "trace1"
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-%s.json", tag, f.Seed, mode))
	fmt.Fprintln(os.Stderr, "bench: result file", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// filesystemType names the filesystem holding dir, from the mount table
// (longest mount point that prefixes dir); the statfs magic number if
// the table does not say.
func filesystemType(dir string) string {
	best, typ := "", ""
	if b, err := os.ReadFile("/proc/self/mounts"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
				best, typ = mp, f[2]
			}
		}
	}
	if typ != "" {
		return typ
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("magic-%#x", st.Type)
}

// gitCommit is the checkout's HEAD, or "unknown" where the checkout is
// not a git repository (the driver's is not).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
