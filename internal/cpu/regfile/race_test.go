//go:build race

package regfile

func init() { raceEnabled = true }
