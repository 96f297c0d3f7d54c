//go:build race

package mem

func init() { raceEnabled = true }
