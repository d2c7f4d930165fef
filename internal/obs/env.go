package obs

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// EnvInfo records the execution environment of a measured run. It is
// embedded in benchmark rows and event-log headers so the regression
// comparator can refuse apples-to-oranges diffs (different machine or
// Go version).
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the "model name" of /proc/cpuinfo ("" where
	// unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
	// Parallelism is the effective worker count of the run (0 when the
	// caller did not attribute one).
	Parallelism int `json:"parallelism,omitempty"`
}

// Environment captures the current process environment. Parallelism is
// left for the caller to fill from its run options.
func Environment() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// Mismatch compares two environments and describes every difference
// that makes their timings incomparable. Optional fields (CPUModel,
// Parallelism) are only compared when both sides carry them,
// so logs from before a field existed still diff. An empty result means
// the environments are comparable.
func (e EnvInfo) Mismatch(o EnvInfo) []string {
	var out []string
	diff := func(field, a, b string) {
		if a != "" && b != "" && a != b {
			out = append(out, fmt.Sprintf("%s: %q vs %q", field, a, b))
		}
	}
	diff("go_version", e.GoVersion, o.GoVersion)
	diff("os", e.OS, o.OS)
	diff("arch", e.Arch, o.Arch)
	diff("cpu_model", e.CPUModel, o.CPUModel)
	if e.NumCPU != 0 && o.NumCPU != 0 && e.NumCPU != o.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu: %d vs %d", e.NumCPU, o.NumCPU))
	}
	if e.GOMAXPROCS != 0 && o.GOMAXPROCS != 0 && e.GOMAXPROCS != o.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs: %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS))
	}
	if e.Parallelism != 0 && o.Parallelism != 0 && e.Parallelism != o.Parallelism {
		out = append(out, fmt.Sprintf("parallelism: %d vs %d", e.Parallelism, o.Parallelism))
	}
	return out
}

// IsZero reports whether no environment was recorded.
func (e EnvInfo) IsZero() bool { return e == (EnvInfo{}) }

// cpuModel extracts the CPU model name from /proc/cpuinfo (Linux; ""
// elsewhere or on failure).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
