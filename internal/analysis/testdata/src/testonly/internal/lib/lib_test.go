package lib

import "testing"

// A reference from a test file does not count.
func TestTestOnly(t *testing.T) {
	if TestOnly()+Fixture() != 5 {
		t.Fatal("fixture")
	}
}
