package harness

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A run sets its workload up at least minSetups times — setup_s is the
// median, and equal digests across the set-ups show that the same seed
// gives the same inputs — and goes on, up to maxSetups, until set-up
// has taken setupBudget: a set-up of tens of milliseconds needs more
// samples for a steady median than one of a second.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// Options selects what one run of one workload does.
type Options struct {
	Seed    int64
	Seconds float64 // timed budget of the untraced run, host seconds
	Smoke   bool    // ~1/50 size, two timed reps whatever Seconds says
	OutDir  string  // where the traced run writes its spans
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: whether every check passed, how
// many payments the timed reps offered, how many of those did not reach
// a terminal state, and the metrics. A payment the network could not
// carry is the modelled outcome (see success_ratio), not a failure.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is what a run says about itself beside the metrics.
type Report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Smoke     bool   `json:"smoke"`
	Reps      int    `json:"timed_reps"`
	SetupRuns int    `json:"setup_runs"`

	// InputDigest identifies the generated inputs; Fingerprint is the
	// engine's applied-event log digest (simulator workloads) and
	// OutcomeDigest what the payments came to.
	InputDigest   string `json:"input_digest"`
	Fingerprint   string `json:"fingerprint,omitempty"`
	OutcomeDigest string `json:"outcome_digest"`
	// FingerprintMatchesReference compares both against the stored
	// seed-1 values: "yes", "no", or "n/a" when no reference applies.
	FingerprintMatchesReference string `json:"fingerprint_matches_reference"`

	// RepPaymentsPerS is every timed rep's throughput, in order; Spread
	// is (q3−q1)/median of the host-time metrics over those reps.
	RepPaymentsPerS []float64          `json:"rep_payments_per_s,omitempty"`
	Spread          map[string]float64 `json:"rep_spread,omitempty"`

	// SetupS and Phases (traced run) show that set-up is outside the
	// timer and where it goes: the phases sum to the set-up time.
	SetupS float64 `json:"setup_s,omitempty"`
	Phases *Phases `json:"setup_phases,omitempty"`

	Problems []string `json:"problems,omitempty"`
	Env      Env      `json:"env"`
}

// repOutcome is what one rep measured and what its checks need.
type repOutcome struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64

	res   sim.DynamicResult // TCP reps fill Aggregate only
	flash core.Stats        // summed over routers on TCP
	holds [3]int64          // placed, committed, aborted (simulator)

	netWait  time.Duration // TCP: time blocked on round trips
	wireMsgs int64         // TCP: frames written by all nodes
	latUS    []float64     // TCP, traced only: per-payment wall latency
}

// simulated are the values that must repeat exactly from rep to rep:
// pure functions of the seed at one station.
type simulated struct {
	fingerprint uint64 // the engine's applied-event log digest
	// outcome digests what the payments came to (deliveries, volume,
	// messages, fees): without retries the event log is the same
	// whatever the router decides, so the fingerprint alone would not
	// show a change of behaviour.
	outcome                                             uint64
	successRatio, volumeRatio, msgsPerPayment, feeRatio float64
}

func (o *repOutcome) simulated() simulated {
	m := o.res.Aggregate
	h := newDigest()
	h.word(uint64(m.Successes))
	h.float(m.SuccessVolume)
	h.word(uint64(m.ProbeMessages))
	h.word(uint64(m.CommitMessages))
	h.float(m.FeesPaid)
	return simulated{
		fingerprint:    o.res.Fingerprint,
		outcome:        h.h.Sum64(),
		successRatio:   m.SuccessRatio(),
		volumeRatio:    m.SuccessVolume / m.AttemptVolume,
		msgsPerPayment: float64(m.ProbeMessages+m.CommitMessages) / float64(m.Payments),
		feeRatio:       m.FeeRatio(),
	}
}

// rig is a workload set up for one seed.
type rig interface {
	// rep replays the workload once from a fresh state, telemetry and
	// tracing off, and runs the per-rep checks.
	rep() (repOutcome, error)
	close()
}

// setUp generates the inputs and, for the TCP workload, boots the
// cluster.
func setUp(spec Spec, seed int64) (rig, *Inputs, error) {
	in, err := Generate(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	if spec.TCP {
		r, err := bootTCP(in)
		return r, in, err
	}
	return &simRig{in: in}, in, nil
}

// measured brackets the timed region: a collection first so every rep
// starts from a settled heap, then the two MemStats reads around fn.
func measured(fn func() error) (wall time.Duration, mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// RunEndToEnd is the untraced run: set-up (several times, for a median
// and a determinism check), one warm-up rep, then timed reps until the
// budget is spent, and the end-to-end metrics as medians over them.
func RunEndToEnd(spec Spec, opt Options) (Result, Report, error) {
	if opt.Smoke {
		spec, opt.Seconds = spec.Smoke(), 0 // the two timed reps and no more
	}
	rep := Report{Workload: spec.Name, Seed: opt.Seed, Smoke: opt.Smoke, Env: CurrentEnv()}

	var (
		r      rig
		in     *Inputs
		setups []float64
	)
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget); {
		if r != nil {
			r.close()
		}
		start := time.Now()
		nr, nin, err := setUp(spec, opt.Seed)
		if err != nil {
			return Result{}, rep, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if in != nil && nin.Digest != in.Digest {
			nr.close()
			return Result{}, rep, fmt.Errorf("%s: the same seed gave different inputs (%016x, then %016x)", spec.Name, in.Digest, nin.Digest)
		}
		r, in = nr, nin
	}
	defer r.close()
	rep.SetupRuns = len(setups)
	rep.InputDigest = fmt.Sprintf("%016x", in.Digest)
	if err := checkInputs(in, opt); err != nil {
		return Result{}, rep, err
	}

	if _, err := r.rep(); err != nil { // warm-up: page in, dial, fill pools
		return Result{}, rep, fmt.Errorf("%s: warm-up rep: %w", spec.Name, err)
	}
	var (
		first        simulated
		perS, allocs []float64
		spent        time.Duration
		attempted    int
	)
	for n := 0; n < spec.MinReps || spent.Seconds() < opt.Seconds; n++ {
		o, err := r.rep()
		if err != nil {
			return Result{}, rep, fmt.Errorf("%s: rep %d: %w", spec.Name, n+1, err)
		}
		s := o.simulated()
		if n == 0 {
			first = s
		} else if s != first {
			rep.Problems = append(rep.Problems, fmt.Sprintf("rep %d simulated %+v, rep 1 %+v", n+1, s, first))
		}
		payments := float64(o.res.Aggregate.Payments)
		perS = append(perS, payments/o.wall.Seconds())
		allocs = append(allocs, float64(o.mallocs)/payments)
		spent += o.wall
		attempted += o.res.Aggregate.Payments
		rep.Reps++
	}
	rep.behaviour(spec, opt, first)
	rep.RepPaymentsPerS = perS
	rep.Spread = map[string]float64{
		"payments_per_s":     RelSpread(perS),
		"allocs_per_payment": RelSpread(allocs),
	}

	values := map[string]float64{
		"setup_s":              stats.Median(setups),
		"payments_per_s":       stats.Median(perS),
		"allocs_per_payment":   stats.Median(allocs),
		"peak_rss_mb":          peakRSSMB(),
		"success_ratio":        first.successRatio,
		"success_volume_ratio": first.volumeRatio,
		"msgs_per_payment":     first.msgsPerPayment,
	}
	res := Result{Correct: len(rep.Problems) == 0, Attempted: attempted, Metrics: named(EndToEnd, values)}
	return res, rep, nil
}

// behaviour fills in the report's evidence of what the run computed.
func (rep *Report) behaviour(spec Spec, opt Options, s simulated) {
	if !spec.TCP {
		rep.Fingerprint = fmt.Sprintf("%016x", s.fingerprint)
	}
	rep.OutcomeDigest = fmt.Sprintf("%016x", s.outcome)
	rep.FingerprintMatchesReference = matchesReference(spec.Name, opt, rep.Fingerprint, rep.OutcomeDigest)
}

// named attaches units to values, in the order and under exactly the
// names of defs.
func named(defs []MetricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out
}

// peakRSSMB is the peak resident set of this program: VmHWM of
// /proc/self/status. getrusage's ru_maxrss would not do: it survives
// exec, so under `go run` it is never below the go command's own
// 25 MB, which is more than three of the workloads need.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// checkRep is the per-rep correctness check shared by both rigs'
// callers: every offered payment reached a terminal state, funds are
// conserved, and every hold placed was settled one way or the other.
func checkRep(offered int, o *repOutcome, fundsBefore, fundsAfter float64) error {
	if got := o.res.Aggregate.Payments; got != offered {
		return fmt.Errorf("%d of %d payments reached a terminal state", got, offered)
	}
	if math.Abs(fundsAfter-fundsBefore) > 1e-6*fundsBefore {
		return fmt.Errorf("funds not conserved: %v before, %v after", fundsBefore, fundsAfter)
	}
	if o.holds[0] != o.holds[1]+o.holds[2] {
		return fmt.Errorf("holds placed %d != committed %d + aborted %d", o.holds[0], o.holds[1], o.holds[2])
	}
	return nil
}
