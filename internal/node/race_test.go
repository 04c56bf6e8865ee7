//go:build race

package node

func init() { raceEnabled = true }
