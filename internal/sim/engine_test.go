package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/topo"
	"repro/internal/trace"
)

// checkErrorResult checks what every engine return carries, an error's
// included: the final threshold and the applied log's evidence.
func checkErrorResult(t *testing.T, res DynamicResult, threshold float64, kind event.Kind) {
	t.Helper()
	if res.FinalThreshold != threshold {
		t.Errorf("FinalThreshold = %g, want %g", res.FinalThreshold, threshold)
	}
	if res.EventCounts[kind] == 0 || res.Fingerprint == 0 {
		t.Errorf("log evidence missing: %v events = %d, fingerprint %x", kind, res.EventCounts[kind], res.Fingerprint)
	}
}

// TestChurnOnMissingChannelFails: every churn kind that touches a
// channel fails the run on a pair that is not one, and says which kind.
func TestChurnOnMissingChannelFails(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	for _, c := range []struct {
		kind event.Kind
		want string
	}{
		{event.ChannelClose, "churn close"},
		{event.ChannelOpen, "churn open"},
		{event.Rebalance, "churn rebalance"},
		{event.FeeShift, "churn fee-shift"},
	} {
		churn := []event.Event{{Time: 2, Kind: c.kind, A: 1, B: 2, Amount: 2}}
		res, err := RunDynamic(pcnNew(t, g, 1e6), baselineShortestPath(t), newScaledSource(10, 1, 3), 10, churn, 50, DynamicOptions{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v on a missing channel: error %v, want one naming %q", c.kind, err, c.want)
			continue
		}
		checkErrorResult(t, res, 50, c.kind)
	}
}

// TestNaNAmountFailsBegin: a source that emits a NaN amount fails the
// run at the session's Begin, and the error names the payment.
func TestNaNAmountFailsBegin(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	fl := core.New(core.DefaultConfig(100))
	payments := []trace.Payment{
		{ID: 6, Sender: 0, Receiver: 1, Amount: 5},
		{ID: 7, Sender: 0, Receiver: 2, Amount: math.NaN(), Time: 1 / trace.SecondsPerDay},
	}
	res, err := RunDynamic(pcnNew(t, g, 1e6), fl, trace.NewReplayStream(payments), 10, nil, 100, DynamicOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "payment 7") {
		t.Fatalf("NaN amount: error %v, want one naming payment 7", err)
	}
	checkErrorResult(t, res, 100, event.PaymentComplete)
}

// TestRepeatedPendingIDFails: a payment whose ID is still pending when
// it arrives fails the run with an error naming the ID. The engine keys
// its records by ID, so the second arrival used to overwrite the first
// payment's record, whose settle then acted on the second payment's and
// crashed on the missing one.
func TestRepeatedPendingIDFails(t *testing.T) {
	payments := []trace.Payment{
		{ID: 7, Sender: 0, Receiver: 2, Amount: 1, Time: 0.5},
		{ID: 7, Sender: 3, Receiver: 5, Amount: 100, Time: 0.5},
		{ID: 8, Sender: 1, Receiver: 4, Amount: 1, Time: 0.6},
	}
	_, err := replayWith(pcnNew(t, topo.Ring(6), 10), baselineShortestPath(t), payments, 10, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "payment ID 7") {
		t.Fatalf("repeated pending ID: error %v, want one naming payment ID 7", err)
	}
}

// TestControlNoOpDecisionsNotCounted: a threshold decision equal to the
// current threshold and a decision on an unknown knob change nothing,
// so neither is counted, logged or rolled up.
func TestControlNoOpDecisionsNotCounted(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	fl := core.New(core.DefaultConfig(100))
	script := &tickController{decisions: []control.Decision{
		{Knob: control.KnobThreshold, Value: 100},
		{Knob: control.Knob(control.NumKnobs), Value: 1},
	}}
	res, err := RunDynamic(pcnNew(t, g, 1e6), fl, newScaledSource(10, 1, 3, 5), 10, nil, 100, DynamicOptions{
		Workers:     1,
		Window:      2,
		controlHook: []control.Controller{script},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(script.seen) == 0 {
		t.Fatal("the scripted controller never observed")
	}
	if res.ControlDecisions != 0 || res.ThresholdUpdates != 0 || len(res.Controllers) != 0 {
		t.Errorf("no-op decisions counted: %d decisions, %d threshold updates, rollup %+v",
			res.ControlDecisions, res.ThresholdUpdates, res.Controllers)
	}
	if got := res.EventCounts[event.ControlUpdate]; got != 4 {
		t.Errorf("ControlUpdate events = %d, want the 4 bare ticks", got)
	}
	if fl.Threshold() != 100 || res.FinalThreshold != 100 {
		t.Errorf("threshold moved: router %g, final %g", fl.Threshold(), res.FinalThreshold)
	}
}

// maxFuncLines is the longest function this package may hold.
const maxFuncLines = 120

// TestNoLongFunctions keeps the package's functions short: it parses
// every non-test file and fails on any function, from its func keyword
// to its closing brace, longer than maxFuncLines.
func TestNoLongFunctions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checked++
			if n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1; n > maxFuncLines {
				t.Errorf("%s: %s is %d lines, more than %d", fset.Position(fn.Pos()), fn.Name.Name, n, maxFuncLines)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no functions found")
	}
}
