//go:build race

package difftest

func init() { raceEnabled = true }
