package harness

import (
	"encoding/json"
	"fmt"
)

// Summary is what `-workload all` prints: per workload and metric, the
// median and quartiles over the runs, beside what the runs said about
// themselves. A committed baseline is one of these.
type Summary struct {
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Trace     bool                        `json:"trace"`
	Smoke     bool                        `json:"smoke"`
	Env       Env                         `json:"env"`
	Workloads map[string]*WorkloadSummary `json:"workloads"`
}

// WorkloadSummary gathers the runs of one workload.
type WorkloadSummary struct {
	Runs          int    `json:"runs"`
	TimedReps     []int  `json:"timed_reps"` // per run
	Attempted     int    `json:"attempted"`
	Failed        int    `json:"failed"`
	InputDigest   string `json:"input_digest"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	OutcomeDigest string `json:"outcome_digest"`
	// FingerprintMatchesReference is the runs' common verdict: they
	// must agree on the digests themselves or Add fails.
	FingerprintMatchesReference string                    `json:"fingerprint_matches_reference"`
	Metrics                     map[string]*MetricSummary `json:"metrics"`
}

// MetricSummary is one metric over the runs of one workload.
type MetricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"rel_spread"` // (q3−q1)/median
	Values []float64 `json:"values"`
}

// NewSummary starts an empty summary for runs taken with opt.
func NewSummary(opt Options, traced bool) *Summary {
	return &Summary{
		Seed: opt.Seed, Seconds: opt.Seconds, Trace: traced, Smoke: opt.Smoke,
		Env: CurrentEnv(), Workloads: map[string]*WorkloadSummary{},
	}
}

// Add folds in one run from its report and result lines. Runs of one
// workload must agree on the inputs and on the engine fingerprint.
func (s *Summary) Add(reportLine, resultLine []byte) error {
	var rep Report
	var res Result
	if err := json.Unmarshal(reportLine, &rep); err != nil {
		return fmt.Errorf("report line: %w", err)
	}
	if err := json.Unmarshal(resultLine, &res); err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return fmt.Errorf("checks failed: %v", rep.Problems)
	}
	w := s.Workloads[rep.Workload]
	if w == nil {
		w = &WorkloadSummary{
			InputDigest: rep.InputDigest, Fingerprint: rep.Fingerprint, OutcomeDigest: rep.OutcomeDigest,
			Metrics: map[string]*MetricSummary{},
		}
		s.Workloads[rep.Workload] = w
	}
	if rep.InputDigest != w.InputDigest || rep.Fingerprint != w.Fingerprint || rep.OutcomeDigest != w.OutcomeDigest {
		return fmt.Errorf("runs disagree: input digest %s/%s, fingerprint %s/%s, outcome digest %s/%s",
			rep.InputDigest, w.InputDigest, rep.Fingerprint, w.Fingerprint, rep.OutcomeDigest, w.OutcomeDigest)
	}
	w.Runs++
	w.TimedReps = append(w.TimedReps, rep.Reps)
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.FingerprintMatchesReference = rep.FingerprintMatchesReference
	for name, m := range res.Metrics {
		ms := w.Metrics[name]
		if ms == nil {
			ms = &MetricSummary{Unit: m.Unit}
			w.Metrics[name] = ms
		}
		ms.Values = append(ms.Values, m.Value)
		ms.Q1, ms.Median, ms.Q3 = Quartiles(ms.Values)
		ms.Spread = RelSpread(ms.Values)
	}
	return nil
}
