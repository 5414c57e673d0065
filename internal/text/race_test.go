//go:build race

package text

func init() { raceEnabled = true }
