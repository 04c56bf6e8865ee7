package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/event"
)

// jsonMetrics is the machine-readable projection of Metrics: the
// headline numbers plus the derived ratios, with durations in seconds.
type jsonMetrics struct {
	Payments       int     `json:"payments"`
	Successes      int     `json:"successes"`
	SuccessRatio   float64 `json:"successRatio"`
	SuccessVolume  float64 `json:"successVolume"`
	AttemptVolume  float64 `json:"attemptVolume"`
	FeesPaid       float64 `json:"feesPaid"`
	FeeRatio       float64 `json:"feeRatio"`
	ProbeMessages  int64   `json:"probeMessages"`
	CommitMessages int64   `json:"commitMessages"`
}

func metricsJSON(m Metrics) jsonMetrics {
	return jsonMetrics{
		Payments:       m.Payments,
		Successes:      m.Successes,
		SuccessRatio:   m.SuccessRatio(),
		SuccessVolume:  m.SuccessVolume,
		AttemptVolume:  m.AttemptVolume,
		FeesPaid:       m.FeesPaid,
		FeeRatio:       m.FeeRatio(),
		ProbeMessages:  m.ProbeMessages,
		CommitMessages: m.CommitMessages,
	}
}

// jsonLatency is the machine-readable projection of LatencyStats:
// completion-latency count, mean/max and the P² percentile estimates,
// all in virtual seconds.
type jsonLatency struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func latencyJSON(l *LatencyStats) *jsonLatency {
	return &jsonLatency{Count: l.Count, Mean: l.Mean(), Max: l.Max, P50: l.P50(), P95: l.P95(), P99: l.P99()}
}

// jsonAdaptive is the re-classification view of one window (or the
// aggregate): mice/elephant outcomes classified against the threshold
// in effect for each payment when it completed, where the plain
// metrics classify against the run's fixed metrics threshold. Present
// exactly when a control plane ran (DynamicResult.ControlOn).
type jsonAdaptive struct {
	MicePayments         int     `json:"micePayments"`
	MiceSuccesses        int     `json:"miceSuccesses"`
	MiceSuccessRatio     float64 `json:"miceSuccessRatio"`
	ElephantPayments     int     `json:"elephantPayments"`
	ElephantSuccesses    int     `json:"elephantSuccesses"`
	ElephantSuccessRatio float64 `json:"elephantSuccessRatio"`
}

func adaptiveJSON(m Metrics) *jsonAdaptive {
	return &jsonAdaptive{
		MicePayments:         m.MicePayments,
		MiceSuccesses:        m.MiceSuccesses,
		MiceSuccessRatio:     m.MiceSuccessRatio(),
		ElephantPayments:     m.ElephantPayments,
		ElephantSuccesses:    m.ElephantSuccesses,
		ElephantSuccessRatio: m.ElephantSuccessRatio(),
	}
}

// jsonWindow is one time-series bucket with its effective threshold —
// the threshold trajectory, window by window. Latency is present
// exactly when the run carried a latency model (DynamicResult.LatencyOn),
// so latency-free documents are byte-identical to the pre-latency shape;
// Adaptive likewise appears only on control-plane runs.
type jsonWindow struct {
	Start     float64       `json:"start"`
	End       float64       `json:"end"`
	Threshold float64       `json:"threshold"`
	Metrics   jsonMetrics   `json:"metrics"`
	Adaptive  *jsonAdaptive `json:"adaptive,omitempty"`
	Latency   *jsonLatency  `json:"latency,omitempty"`
}

// jsonDynamicResult is the flashsim -json document for one scheme.
type jsonDynamicResult struct {
	Scheme           string         `json:"scheme"`
	Horizon          float64        `json:"horizon"`
	Aggregate        jsonMetrics    `json:"aggregate"`
	Windows          []jsonWindow   `json:"windows"`
	EventCounts      map[string]int `json:"eventCounts"`
	Fingerprint      string         `json:"fingerprint"` // %016x of the event-log FNV-1a
	SpanAborts       int            `json:"spanAborts"`
	ThresholdUpdates int            `json:"thresholdUpdates"`
	FinalThreshold   float64        `json:"finalThreshold"`

	// Control-plane extension, omitted entirely when no controller ran
	// so control-free documents keep their historical shape: the
	// re-classification aggregate and the per-knob decision rollup.
	Adaptive         *jsonAdaptive       `json:"adaptive,omitempty"`
	ControlDecisions int                 `json:"controlDecisions,omitempty"`
	Controllers      []ControlKnobStatus `json:"controllers,omitempty"`

	// Latency-model extension, omitted entirely on latency-free runs so
	// their documents stay byte-identical to the pre-latency shape.
	Deadline         float64      `json:"deadline,omitempty"`
	DeadlineExpiries int          `json:"deadlineExpiries,omitempty"`
	Latency          *jsonLatency `json:"latency,omitempty"`
}

// WriteDynamicJSON renders one scheme's dynamic run as an indented JSON
// document: aggregate and per-window metrics (the threshold trajectory
// rides on the windows), per-kind event counts, the span-abort and
// threshold-update totals, and the event-log fingerprint as a 16-digit
// hex string. The document is a pure function of the DynamicResult —
// map keys marshal sorted — so a deterministic run renders
// byte-identical JSON, the same contract WriteDynamicResult keeps for
// the table view.
func WriteDynamicJSON(out io.Writer, scheme string, res DynamicResult) error {
	doc := jsonDynamicResult{
		Scheme:           scheme,
		Horizon:          res.Horizon,
		Aggregate:        metricsJSON(res.Aggregate),
		Windows:          make([]jsonWindow, len(res.Windows)),
		EventCounts:      make(map[string]int, event.NumKinds),
		Fingerprint:      fmt.Sprintf("%016x", res.Fingerprint),
		SpanAborts:       res.SpanAborts,
		ThresholdUpdates: res.ThresholdUpdates,
		FinalThreshold:   res.FinalThreshold,
	}
	if res.ControlOn {
		doc.Adaptive = adaptiveJSON(res.Adaptive)
		doc.ControlDecisions = res.ControlDecisions
		doc.Controllers = res.Controllers
	}
	if res.LatencyOn {
		doc.Deadline = res.Deadline
		doc.DeadlineExpiries = res.DeadlineExpiries
		doc.Latency = latencyJSON(&res.Latency)
	}
	for i := range res.Windows {
		w := &res.Windows[i]
		doc.Windows[i] = jsonWindow{Start: w.Start, End: w.End, Threshold: w.Threshold, Metrics: metricsJSON(w.Metrics)}
		if res.ControlOn {
			doc.Windows[i].Adaptive = adaptiveJSON(w.Adaptive)
		}
		if res.LatencyOn {
			doc.Windows[i].Latency = latencyJSON(&w.Latency)
		}
	}
	for k := 0; k < event.NumKinds; k++ {
		if res.EventCounts[k] != 0 {
			doc.EventCounts[event.Kind(k).String()] = res.EventCounts[k]
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
