//go:build race

package nvme

// retire guards a read's lent buffer the moment its completion handler
// has returned. A recycled buffer is poisoned, so a consumer that kept
// the slice reads 0xDB instead of stale but plausible bytes; the shared
// zero block is checked instead, so a consumer that wrote into lent
// bytes fails loudly. Race builds only: the tag is set by `go test
// -race`, which CI runs over the whole tree.
func retire(d *Device, buf []byte) {
	if d.isZero(buf) {
		for _, b := range buf {
			if b != 0 {
				panic("nvme: a read handler wrote into the lent zero block")
			}
		}
		return
	}
	for i := range buf {
		buf[i] = 0xDB
	}
}
