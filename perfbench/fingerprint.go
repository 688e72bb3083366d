package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the provenance every result records, so a comparison
// between two results can see when they come from different hosts,
// toolchains or commits instead of passing silently.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed)
}

// fingerprint collects the host, toolchain and source provenance of a
// run. root is the repository checkout the benchmark was built from.
func fingerprint(root string, seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if m := cpuModel(string(b)); m != "" {
			h.CPUModel = m
		}
	}
	return h
}

// cpuModel extracts the processor model from /proc/cpuinfo text: the
// first "model name" line (x86), else the first "Processor", "cpu model"
// or "Hardware" line other architectures print. It returns "" when the
// text names no model.
func cpuModel(cpuinfo string) string {
	fallback := ""
	sc := bufio.NewScanner(strings.NewReader(cpuinfo))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.Join(strings.Fields(val), " ")
		if val == "" {
			continue
		}
		switch key {
		case "model name":
			return val
		case "Processor", "cpu model", "Hardware":
			if fallback == "" {
				fallback = val
			}
		}
	}
	return fallback
}

// gitCommit resolves HEAD of the checkout at root by reading .git
// directly (HEAD, then the loose ref or packed-refs it names). A source
// tree without .git, such as an exported archive, reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	return resolveHead(string(head), func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(name)))
	})
}

// resolveHead turns the content of a HEAD file into a commit id, reading
// refs through read (a path relative to the git directory).
func resolveHead(head string, read func(name string) ([]byte, error)) string {
	head = strings.TrimSpace(head)
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if head == "" {
			return "unknown"
		}
		return head // detached HEAD holds the id itself
	}
	if b, err := read(ref); err == nil {
		if id := strings.TrimSpace(string(b)); id != "" {
			return id
		}
	}
	if b, err := read("packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			id, name, ok := strings.Cut(strings.TrimSpace(line), " ")
			if ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// cpuTimes reads the host's cumulative CPU time from /proc/stat: the
// time stolen by the hypervisor and the total, in clock ticks. ok is
// false where /proc/stat is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	return parseStat(string(b))
}

// parseStat parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ... The guest columns are
// already counted in user and nice, so they are left out of the total.
func parseStat(stat string) (steal, total uint64, ok bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of the host's CPU time stolen by the
// hypervisor over an interval: a diagnostic that tells a slow run on a
// contended host from a slow program.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

// share is the stolen share since start, or -1 where it cannot be read.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}
