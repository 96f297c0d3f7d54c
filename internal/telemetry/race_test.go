//go:build race

package telemetry_test

func init() { raceEnabled = true }
