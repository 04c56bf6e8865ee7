//go:build race

package pcn

func init() { raceEnabled = true }
