//go:build race

package bench

func init() { raceObjects = 25 }
