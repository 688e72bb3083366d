package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCPUModel(t *testing.T) {
	x86 := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R)   CPU @ 2.20GHz\nflags\t\t: fpu\n\nprocessor\t: 1\nmodel name\t: other\n"
	arm := "processor\t: 0\nBogoMIPS\t: 50.00\nHardware\t: BCM2835\n"
	for _, c := range []struct{ in, want string }{
		{x86, "Intel(R) Xeon(R) CPU @ 2.20GHz"},
		{arm, "BCM2835"},
		{"processor\t: 0\nmodel name\t:\n", ""},
		{"", ""},
	} {
		if got := cpuModel(c.in); got != c.want {
			t.Errorf("cpuModel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestResolveHead(t *testing.T) {
	refs := map[string]string{
		"refs/heads/main": "aaaa\n",
		"packed-refs":     "# pack-refs with: peeled\nbbbb refs/heads/packed\n",
	}
	read := func(name string) ([]byte, error) {
		if s, ok := refs[name]; ok {
			return []byte(s), nil
		}
		return nil, errors.New("missing")
	}
	for _, c := range []struct{ head, want string }{
		{"ref: refs/heads/main\n", "aaaa"},
		{"ref: refs/heads/packed\n", "bbbb"},
		{"ref: refs/heads/gone\n", "unknown"},
		{"cccc\n", "cccc"},
		{"", "unknown"},
	} {
		if got := resolveHead(c.head, read); got != c.want {
			t.Errorf("resolveHead(%q) = %q, want %q", c.head, got, c.want)
		}
	}
}

func TestGitCommitOutsideRepository(t *testing.T) {
	if got := gitCommit(t.TempDir()); got != "unknown" {
		t.Errorf("gitCommit of a tree without .git = %q, want unknown", got)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, ".git", "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".git", "HEAD"), []byte("ref: refs/heads/main\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".git", "refs", "heads", "main"), []byte("dddd\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := gitCommit(dir); got != "dddd" {
		t.Errorf("gitCommit = %q, want dddd", got)
	}
}

func TestFingerprintRecordsSeedAndToolchain(t *testing.T) {
	h := fingerprint(t.TempDir(), 42)
	if h.Seed != 42 || h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" || h.CPUModel == "" {
		t.Errorf("fingerprint = %+v", h)
	}
}

func TestParseStat(t *testing.T) {
	steal, total, ok := parseStat("cpu  100 5 20 800 10 1 2 62 7 0\ncpu0 50 2 10 400 5 0 1 31 3 0\n")
	if !ok || steal != 62 || total != 1000 {
		t.Errorf("parseStat = %d, %d, %v; want 62, 1000, true", steal, total, ok)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu 1 2 3 4 5 6 7 x 9\n"} {
		if _, _, ok := parseStat(bad); ok {
			t.Errorf("parseStat(%q) reported ok", bad)
		}
	}
}
