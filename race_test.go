//go:build race

package summitscale_test

func init() { raceEnabled = true }
