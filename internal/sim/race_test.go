//go:build race

package sim

func init() { raceEnabled = true }
