package core

import (
	"fmt"
	"sort"
	"strings"
)

// Human-readable renderers for the scheduler's result types, shared by
// the CLIs and examples.

// String summarises a decision on one line.
func (d Decision) String() string {
	state := "cold"
	if d.GPUWarm {
		state = "warm"
	}
	spill := ""
	if d.Spilled {
		spill = " [spilled]"
	}
	return fmt.Sprintf("%s×%d under %s → %s (gpu %s)%s",
		d.Model, d.Batch, d.Policy, d.Device, state, spill)
}

// String summarises scheduler activity.
func (s Stats) String() string {
	return fmt.Sprintf("%d decisions (%d spills) — %s",
		s.Decisions, s.Spills, renderPerDevice(s.PerDevice))
}

// renderPerDevice renders device counts deterministically (sorted by
// name) so logs and tests are stable.
func renderPerDevice(m map[string]int) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", n, m[n]))
	}
	return strings.Join(parts, " ")
}
