package main

import (
	"os"
	"strconv"
	"strings"
)

// On a virtual machine the hypervisor can run another guest on a CPU this
// one wants: Linux counts that time as steal. On a shared host with two
// virtual CPUs it took from 0 to 33% of the CPU time an iteration asked
// for, varying from minute to minute, and the wall time of whole runs moved
// with it (README.md has the figures). The benchmark therefore reports
// every host time with the stolen share taken out: the wall time the
// iteration would have taken had the hypervisor not run anyone else. Where
// the kernel reports no steal (bare metal, or no /proc/stat) the adjustment
// is nothing.

// cpuTimes is the machine-wide CPU accounting of /proc/stat, in clock
// ticks: time spent running anything, and time stolen.
type cpuTimes struct{ busy, steal uint64 }

// readCPUTimes reads the "cpu" line of /proc/stat, or returns zeros where
// there is none, which stealShare reads as no steal.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	t, _ := parseCPULine(line)
	return t
}

// parseCPULine parses user, nice, system, idle, iowait, irq, softirq,
// steal, … (guest time is already in user).
func parseCPULine(line string) (cpuTimes, bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		v[i] = n
	}
	user, nice, system, irq, softirq, steal := v[0], v[1], v[2], v[5], v[6], v[7]
	return cpuTimes{busy: user + nice + system + irq + softirq, steal: steal}, true
}

// stealShare returns the share of the CPU time wanted between two readings
// that the hypervisor withheld. A virtual CPU accrues steal only while it
// has work, and the benchmark is the only work on the machine, so this is
// the share by which the iteration's threads were slowed.
func stealShare(a, b cpuTimes) float64 {
	if b.busy < a.busy || b.steal < a.steal {
		return 0
	}
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
