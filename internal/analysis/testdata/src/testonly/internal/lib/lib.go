// Package lib is under internal/, so testonly audits its exported
// functions and methods against the program's references.
package lib

import "encoding/json"

// Called has a non-test caller in app: clean.
func Called() int { return 1 }

// TestOnly is called only from lib_test.go, which the loader never reads.
func TestOnly() int { return 2 } // want `testonly/unused: exported TestOnly has no non-test reference`

// Setter is asserted to a literal interface in app.
type Setter struct{ on bool }

// SetMode satisfies app's interface{ SetMode(bool) }: clean.
func (s *Setter) SetMode(on bool) { s.on = on }

// Unused has no reference at all.
func (s *Setter) Unused() {} // want `testonly/unused: exported Setter.Unused has no non-test reference`

type table[T any] struct{ on bool }

// SetCaching is called only as Router's promoted method, an instance's
// copy of this declaration: clean.
func (t *table[T]) SetCaching(on bool) { t.on = on }

// Router embeds an instance of the generic table.
type Router struct{ table[int] }

type num float64

// UnmarshalJSON satisfies json.Unmarshaler, which no file names: clean.
func (n *num) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, (*float64)(n)) }

// Decode reads a num.
func Decode(b []byte) (n num, err error) { return n, json.Unmarshal(b, &n) }

// Fixture is kept for tests with an audited reason: suppressed.
//
//flashvet:allow testonly/unused a fixture the tests of two packages share
func Fixture() int { return 3 }
