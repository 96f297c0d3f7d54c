//go:build race

package check_test

func init() { raceEnabled = true }
