//go:build race

package nvme

import "testing"

// TestRetiredBufferIsPoisoned: under the race detector's build tag a
// consumer that keeps a read's slice past its handler reads 0xDB,
// not the block it was handed.
func TestRetiredBufferIsPoisoned(t *testing.T) {
	eng, dev, h := newDev(t)
	dev.WriteSync(4, pattern(4, 0))
	var kept []byte
	if err := h.Read(0, 4, 1, func(d []byte, _ uint16) { kept = d }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i, b := range kept {
		if b != 0xDB {
			t.Fatalf("retained read byte %d = %#02x, want the 0xDB poison", i, b)
		}
	}
}
