package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envHeader records what a result was measured on.
type envHeader struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
	Started    string `json:"started"`
}

func (e envHeader) String() string {
	return fmt.Sprintf("commit %s, %s, GOMAXPROCS %d, %d CPUs, kernel %s, data on %s",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Kernel, e.DataFS)
}

func environment(dataFS string) envHeader {
	return envHeader{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernelRelease(),
		DataFS:     dataFS,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit asks git for the checked-out commit, looking no further up than
// the working directory and reading no system-wide configuration; outside a
// git checkout it is "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd), "GIT_CONFIG_NOSYSTEM=1")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// dataFilesystem names the filesystem under dir and refuses one where fsync
// is a no-op: with every WAL record in memory, store timings would say
// nothing about a durable step.
func dataFilesystem(dir string) (string, error) {
	name, err := filesystemName(dir)
	if err != nil {
		return "", err
	}
	if name == "tmpfs" || name == "ramfs" {
		return "", fmt.Errorf("data directory %s is on %s, where fsync is a no-op; pass -datadir on a disk-backed filesystem", dir, name)
	}
	return name, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
