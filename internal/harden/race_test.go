//go:build race

package harden

func init() { raceEnabled = true }
