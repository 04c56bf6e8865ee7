package harness

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Env describes the box a run was taken on; numbers from different
// boxes are not comparable.
type Env struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GoArch    string `json:"goarch"`
	CPUModel  string `json:"cpu_model"`
}

// CurrentEnv reads the environment of this process.
func CurrentEnv() Env {
	return Env{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GoArch:    runtime.GOARCH,
		CPUModel:  cpuModel(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
