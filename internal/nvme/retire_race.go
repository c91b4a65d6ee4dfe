//go:build race

package nvme

// retire poisons a read's lent buffer the moment its completion
// handler has returned, so a consumer that kept the slice reads 0xDB
// instead of stale but plausible bytes. Race builds only: the tag is
// set by `go test -race`, which CI runs over the whole tree.
func retire(buf []byte) {
	for i := range buf {
		buf[i] = 0xDB
	}
}
