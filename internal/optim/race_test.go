//go:build race

package optim

func init() { raceEnabled = true }
