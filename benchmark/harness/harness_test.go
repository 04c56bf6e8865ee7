package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/topo"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 10}, [3]float64{1.25, 2.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 9, 3, 7.75, 2, 8}, [3]float64{2, 5.5, 8}},
		{[]float64{4}, [3]float64{4, 4, 4}},
		{nil, [3]float64{0, 0, 0}},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := RelSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("RelSpread = %v, want 1", got)
	}
	if got := RelSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("RelSpread of zeros = %v, want 0", got)
	}
}

// A layer's self time is its span minus what its children cover.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Kind: spanPayment, Payment: 0, Parent: noParent, Start: 0, End: 100},
		{Kind: spanRoute, Payment: 0, Parent: 0, Start: 10, End: 90},
		{Kind: spanProbe, Payment: 0, Parent: 1, Start: 20, End: 30},
		{Kind: spanHold, Payment: 0, Parent: 1, Start: 40, End: 45, Failed: true},
		{Kind: spanHold, Payment: 0, Parent: 1, Start: 50, End: 60},
		{Kind: spanCommit, Payment: 0, Parent: 1, Start: 70, End: 85},
	}
	want := []int64{20, 40, 10, 5, 10, 15}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
	sum := summarize(spans)
	if got := sum.routeNS(); got != 80 {
		t.Errorf("route time = %d, want the Route span's 80", got)
	}
	if sum.calls[spanHold] != 2 || sum.failed[spanHold] != 1 {
		t.Errorf("holds: %d calls, %d failed; want 2 and 1", sum.calls[spanHold], sum.failed[spanHold])
	}
	v := map[string]float64{}
	spanMetrics(&Inputs{}, &tracer{spans: spans}, v)
	shares := v["core.route_self_share"] + v["pcn.probe_share"] + v["pcn.hold_share"] + v["pcn.commit_share"]
	if !near(shares, 1) {
		t.Errorf("route shares sum to %v, want 1", shares)
	}
	if !near(v["core.route_self_share"], 0.5) || !near(v["pcn.hold_fail_ratio"], 0.5) {
		t.Errorf("core share %v, hold fail ratio %v; want 0.5 and 0.5", v["core.route_self_share"], v["pcn.hold_fail_ratio"])
	}
}

func smokeSpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Smoke()
}

// The same seed gives the same inputs; another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range Workloads {
		spec := w.Smoke()
		a, err := Generate(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", w.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.Name)
		}
	}
}

// The digest covers every kind of input: moving one value moves it.
func TestDigestCoversInputs(t *testing.T) {
	in, err := Generate(smokeSpec(t, "ripple-churn"), 1)
	if err != nil {
		t.Fatal(err)
	}
	net := in.NewNetwork()
	if got := in.digest(net); got != in.Digest {
		t.Fatalf("digest not stable: %016x, then %016x", in.Digest, got)
	}
	changes := map[string]func() func(){
		"payment amount": func() func() { in.Payments[3].Amount++; return func() { in.Payments[3].Amount-- } },
		"payment receiver": func() func() {
			in.Payments[3].Receiver ^= 1
			return func() { in.Payments[3].Receiver ^= 1 }
		},
		"arrival time": func() func() { in.Arrivals[5] += 1e-9; return func() { in.Arrivals[5] -= 1e-9 } },
		"churn event": func() func() {
			old := in.Churn[0].Kind
			in.Churn[0].Kind = event.Rebalance
			return func() { in.Churn[0].Kind = old }
		},
		"balance": func() func() {
			e := in.Graph.Channel(0)
			a, b := net.Balance(e.A, e.B), net.Balance(e.B, e.A)
			_ = net.SetBalance(e.A, e.B, a+1, b)
			return func() { _ = net.SetBalance(e.A, e.B, a, b) }
		},
	}
	for name, change := range changes {
		undo := change()
		if in.digest(net) == in.Digest {
			t.Errorf("changing one %s left the digest unchanged", name)
		}
		undo()
		if in.digest(net) != in.Digest {
			t.Fatalf("undoing the %s change did not restore the digest", name)
		}
	}
}

// Replayed in time order, the schedule never closes a closed channel or
// opens an open one, and every close has its reopen.
func TestChurnNeverClosesClosedChannel(t *testing.T) {
	g := topo.Ring(12) // few channels, so the generator must redraw often
	spec := Spec{CloseRate: 25, RebalanceRate: 5}
	for seed := int64(1); seed <= 5; seed++ {
		in := &Inputs{Seed: seed}
		events := churnSchedule(g, spec, 20, stats.NewRNG(in.Seed, streamChurn))
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
		closed := map[topo.Edge]bool{}
		closes, opens := 0, 0
		for _, e := range events {
			ch := topo.NewEdge(e.A, e.B)
			switch e.Kind {
			case event.ChannelClose:
				if closed[ch] {
					t.Fatalf("seed %d: closed %v at %v while closed", seed, ch, e.Time)
				}
				closed[ch] = true
				closes++
			case event.ChannelOpen:
				if !closed[ch] {
					t.Fatalf("seed %d: opened %v at %v while open", seed, ch, e.Time)
				}
				closed[ch] = false
				opens++
			}
		}
		if closes == 0 || closes != opens {
			t.Errorf("seed %d: %d closes, %d reopens", seed, closes, opens)
		}
	}
}

type manifestFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// BENCHMARK.json is what WriteManifest writes.
func TestManifestCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `flashbench -manifest`; regenerate it")
	}
}

// A smoke run of every workload passes its checks and prints exactly
// the metric names of BENCHMARK.json, untraced and traced.
func TestSmokeRunsCarryManifestNames(t *testing.T) {
	committed, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(committed, &m); err != nil {
		t.Fatal(err)
	}
	names := func(defs []struct{ Name string }) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(Workloads))
	}
	opt := Options{Seed: 3, Smoke: true, OutDir: t.TempDir()}
	sum := NewSummary(opt, false)
	for i, w := range Workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, m.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			run, want := RunEndToEnd, names(m.EndToEnd)
			if traced {
				run, want = RunTraced, names(m.PerLayer)
			}
			res, rep, err := run(w, opt)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d, problems %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.Problems)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s (traced %v): metric %q, BENCHMARK.json has %q", w.Name, traced, got[j], want[j])
				}
			}
			if traced {
				checkShares(t, w, res)
				continue
			}
			for name, metric := range res.Metrics {
				if metric.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, metric.Value)
				}
			}
			repLine, _ := json.Marshal(rep)
			resLine, _ := json.Marshal(res)
			if err := sum.Add(repLine, resLine); err != nil {
				t.Errorf("%s: summary: %v", w.Name, err)
			}
		}
	}
	for _, w := range Workloads {
		ws := sum.Workloads[w.Name]
		if ws == nil || ws.Runs != 1 || ws.Metrics["payments_per_s"].Median <= 0 {
			t.Errorf("%s: summary %+v", w.Name, ws)
		}
	}
}

// The route-time shares of a traced run sum to 1.
func checkShares(t *testing.T, w Spec, res Result) {
	t.Helper()
	layer := "pcn"
	if w.TCP {
		layer = "node"
	}
	total := res.Metrics["core.route_self_share"].Value
	for _, op := range []string{".probe_share", ".hold_share", ".commit_share"} {
		total += res.Metrics[layer+op].Value
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("%s: route-time shares sum to %v, want 1 ± 0.01", w.Name, total)
	}
}

// A summary refuses runs that disagree on what they replayed.
func TestSummaryRefusesDisagreeingRuns(t *testing.T) {
	sum := NewSummary(Options{Seed: 1}, false)
	res := `{"correct":true,"attempted":10,"failed":0,"metrics":{"payments_per_s":{"value":5,"unit":"1/s"}}}`
	rep := func(fp string) []byte {
		return []byte(`{"workload":"w","input_digest":"aa","fingerprint":"` + fp + `","timed_reps":3}`)
	}
	if err := sum.Add(rep("01"), []byte(res)); err != nil {
		t.Fatal(err)
	}
	if err := sum.Add(rep("01"), []byte(res)); err != nil {
		t.Fatal(err)
	}
	if err := sum.Add(rep("02"), []byte(res)); err == nil {
		t.Error("a run with another fingerprint was accepted")
	}
	failed := `{"correct":false,"attempted":10,"failed":0,"metrics":{}}`
	if err := sum.Add(rep("01"), []byte(failed)); err == nil {
		t.Error("a run whose checks failed was accepted")
	}
	if got := sum.Workloads["w"]; got.Runs != 2 || got.Attempted != 20 || len(got.Metrics["payments_per_s"].Values) != 2 {
		t.Errorf("summary after two good runs: %+v", got)
	}
}

// Changed inputs stop a full-size reference-seed run; smoke runs and
// other seeds have no reference to be held to.
func TestReferenceGuardsInputsAndBehaviour(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		e, ok := ref.Workloads[w.Name]
		if !ok || e.InputDigest == "" || e.OutcomeDigest == "" || (e.Fingerprint == "") != w.TCP {
			t.Errorf("%s: reference entry %+v", w.Name, e)
		}
	}
	if runtime.GOARCH != ref.GoArch {
		t.Skipf("reference is for %s", ref.GoArch)
	}
	w := Workloads[0]
	e := ref.Workloads[w.Name]
	full, smoke, other := Options{Seed: ref.Seed}, Options{Seed: ref.Seed, Smoke: true}, Options{Seed: ref.Seed + 1}
	moved := &Inputs{Spec: w, Digest: 1}
	if err := checkInputs(moved, full); err == nil || !strings.Contains(err.Error(), "inputs changed") {
		t.Errorf("changed inputs on the reference seed: %v", err)
	}
	if err := checkInputs(moved, smoke); err != nil {
		t.Errorf("smoke run held to the reference: %v", err)
	}
	if err := checkInputs(moved, other); err != nil {
		t.Errorf("another seed held to the reference: %v", err)
	}
	if got := matchesReference(w.Name, full, e.Fingerprint, e.OutcomeDigest); got != "yes" {
		t.Errorf("stored digests match the reference: %q", got)
	}
	if got := matchesReference(w.Name, full, e.Fingerprint, "0"); got != "no" {
		t.Errorf("another outcome matches the reference: %q", got)
	}
	if got := matchesReference(w.Name, other, e.Fingerprint, e.OutcomeDigest); got != "n/a" {
		t.Errorf("another seed matches the reference: %q", got)
	}
}
