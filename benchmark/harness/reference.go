package harness

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
)

// referenceJSON holds, per workload, the input digest, engine
// fingerprint and outcome digest of the full-size seed-1 run on the
// architecture named in it. BENCHMARK.json admits no extra keys, so the values live here.
//
//go:embed reference.json
var referenceJSON []byte

// Reference is the stored seed-1 evidence.
type Reference struct {
	Seed      int64                     `json:"seed"`
	GoArch    string                    `json:"goarch"`
	Workloads map[string]ReferenceEntry `json:"workloads"`
}

// ReferenceEntry is one workload's stored digests, as 16 hex digits.
type ReferenceEntry struct {
	InputDigest   string `json:"input_digest"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	OutcomeDigest string `json:"outcome_digest"`
}

// loadReference decodes the embedded reference.
func loadReference() (Reference, error) {
	var ref Reference
	err := json.Unmarshal(referenceJSON, &ref)
	return ref, err
}

// referenceFor returns the stored entry that applies to this run: the
// full-size workload, on the reference seed and architecture
// (floating-point contraction differs between architectures, and with
// it the low bits of every generated balance and amount).
func referenceFor(workload string, opt Options) (ReferenceEntry, bool) {
	ref, err := loadReference()
	if err != nil || opt.Smoke || opt.Seed != ref.Seed || runtime.GOARCH != ref.GoArch {
		return ReferenceEntry{}, false
	}
	e, ok := ref.Workloads[workload]
	return e, ok
}

// checkInputs refuses to measure inputs that differ from the stored
// ones: a later change to a generator must not silently move the
// workload under a comparison.
func checkInputs(in *Inputs, opt Options) error {
	e, ok := referenceFor(in.Spec.Name, opt)
	if !ok || e.InputDigest == "" {
		return nil
	}
	if got := fmt.Sprintf("%016x", in.Digest); got != e.InputDigest {
		return fmt.Errorf("%s: inputs changed — not comparable (digest %s, reference %s)", in.Spec.Name, got, e.InputDigest)
	}
	return nil
}

// matchesReference reports whether a perf-only change kept behaviour:
// "yes" or "no" against the stored fingerprint and outcome digest,
// "n/a" when no reference applies.
func matchesReference(workload string, opt Options, fingerprint, outcome string) string {
	e, ok := referenceFor(workload, opt)
	switch {
	case !ok || e.OutcomeDigest == "":
		return "n/a"
	case fingerprint == e.Fingerprint && outcome == e.OutcomeDigest:
		return "yes"
	default:
		return "no"
	}
}
