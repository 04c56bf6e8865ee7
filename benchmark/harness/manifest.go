package harness

import (
	"encoding/json"
	"io"
)

// RunSeconds is BENCHMARK.json's run_seconds: the timed budget the
// driver passes as -seconds.
const RunSeconds = 10

// manifest mirrors BENCHMARK.json, which admits exactly these keys.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// WriteManifest writes BENCHMARK.json from the workload and metric
// tables, so the file cannot drift from what the harness prints.
func WriteManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "./cmd/flashbench"},
		Paths:      []string{"benchmark"},
		RunSeconds: RunSeconds,
	}
	for _, s := range Workloads {
		m.Workloads = append(m.Workloads, manifestLoad{s.Name, s.Why})
	}
	for _, d := range EndToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
