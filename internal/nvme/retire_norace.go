//go:build !race

package nvme

// retire is the retention guard of race builds (retire_race.go); a
// plain build hands the buffer back untouched.
func retire([]byte) {}
