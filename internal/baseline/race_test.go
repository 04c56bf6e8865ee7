//go:build race

package baseline

func init() { raceEnabled = true }
