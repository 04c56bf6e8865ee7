// Package sim is a directive-machinery fixture: used, stale and
// malformed //flashvet:allow directives.
package sim

import "time"

// suppressedPreceding shows a directive on the line above the finding.
func suppressedPreceding() time.Time {
	//flashvet:allow determinism/wallclock audited exception with the directive on the preceding line
	return time.Now()
}

// suppressedSameLine shows a directive at the end of the flagged line.
func suppressedSameLine() time.Time {
	return time.Now() //flashvet:allow determinism/wallclock audited exception with the directive on the same line
}

// stale is an allow that suppresses nothing.
func stale() int {
	//flashvet:allow determinism/wallclock nothing on the next line reads the clock — stale // want `directive/unused: flashvet:allow determinism/wallclock suppresses nothing`
	return 1
}

// unknownRule names a rule no analyzer declares.
func unknownRule() int {
	//flashvet:allow determinism/bogus not a real rule // want `directive/malformed: flashvet:allow names unknown rule`
	//flashvet:allow testonly/unused a catalogued rule this run does not check: neither malformed nor stale
	return 3
}
