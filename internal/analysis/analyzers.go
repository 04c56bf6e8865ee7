package analysis

// This file is the analyzer catalogue: the scope sets that bind each
// analyzer to the packages whose contract it enforces, and All(), the
// suite cmd/flashvet and the repo-gate test run. Scoping is by package
// name rather than import path so the fixture packages under
// testdata/src — which carry the same names — exercise the identical
// configuration the repository is audited with.

// DeterministicPackages names the packages whose code must replay
// byte-identically from a seed: no wall clock, no global randomness,
// no map-iteration order leaking into ordered sinks. This is the
// determinism contract behind the seed goldens and the event-log
// fingerprints (README "Determinism guarantees").
var DeterministicPackages = map[string]bool{
	"event":   true,
	"trace":   true,
	"topo":    true,
	"graph":   true,
	"pcn":     true,
	"core":    true,
	"sim":     true,
	"stats":   true,
	"control": true,
}

// DocumentedPackages names the packages whose exported API must carry
// doc comments — the gate formerly enforced by internal/doclint, now
// the doccomment analyzer. Grow this set as packages reach full
// coverage; never shrink it, except to drop a deleted package.
var DocumentedPackages = map[string]bool{
	"event":     true,
	"trace":     true,
	"route":     true,
	"pcn":       true,
	"sim":       true,
	"core":      true,
	"topo":      true,
	"graph":     true,
	"stats":     true,
	"telemetry": true,
	"control":   true,
	"analysis":  true,
}

// ObserverPackages names the observer-only packages: strictly
// read-only telemetry that may never call back into the engine, read
// the wall clock, or consume randomness.
var ObserverPackages = map[string]bool{
	"telemetry": true,
}

// EngineBannedFromObservers names the engine packages an observer-only
// package may not import or call: anything that routes, holds funds,
// schedules events or owns adaptive state.
var EngineBannedFromObservers = map[string]bool{
	"pcn":     true,
	"core":    true,
	"sim":     true,
	"event":   true,
	"route":   true,
	"trace":   true,
	"topo":    true,
	"graph":   true,
	"control": true,
	"stats":   true,
}

// ObserverReadAllowlist names the engine methods an observer could call
// even if an import were ever allowed by directive: pure accessors
// with no side effects on routing state.
var ObserverReadAllowlist = map[string]bool{
	"Name":        true,
	"String":      true,
	"Stats":       true,
	"Fingerprint": true,
}

// All returns the full flashvet analyzer suite in catalogue order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		LockOrderAnalyzer,
		ObserverAnalyzer,
		DocCommentAnalyzer,
		TestOnlyAnalyzer,
	}
}

// byName scopes an analyzer to packages whose name is in set.
func byName(set map[string]bool) func(*Package) bool {
	return func(p *Package) bool { return set[p.Name] }
}
