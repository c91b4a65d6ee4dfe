package seg

import (
	"bytes"
	"errors"
	"testing"

	"hyperion/internal/wire"
)

const testListMagic = 0x54455354 // "TEST"

var testListRoot = OID(9, 100)

// newTestList is a durable list of three chunks with some ids parked
// before them, a tail and an owner word, synced.
func newTestList(t testing.TB) (*SyncView, *ChunkList) {
	t.Helper()
	_, s := newStore(t, 1)
	v := NewSyncView(s)
	c, err := CreateChunkList(v, testListRoot, testListMagic, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Owner = 0xfeed
	c.NextID(1 << 32)
	for i := 0; i < 3; i++ {
		if err := c.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Append(make([]byte, 777)); err != nil {
		t.Fatal(err)
	}
	return v, c
}

func rootImage(t testing.TB, v *SyncView) []byte {
	t.Helper()
	img, err := v.ReadAt(testListRoot, 0, rootBytes)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestChunkListReopen(t *testing.T) {
	v, c := newTestList(t)
	reads := v.Reads
	c2, err := OpenChunkList(v, testListRoot, testListMagic)
	if err != nil {
		t.Fatal(err)
	}
	if v.Reads != reads+1 {
		t.Fatalf("open cost %d reads, want 1", v.Reads-reads)
	}
	if c2.Owner != 0xfeed || c2.Len() != 3 || c2.Tail() != 777 || !c2.durable {
		t.Fatalf("reopened owner=%#x len=%d tail=%d durable=%v", c2.Owner, c2.Len(), c2.Tail(), c2.durable)
	}
	for i := 0; i < 3; i++ {
		want := OID(9, 101+1<<32+uint64(i))
		if c.Chunk(i) != want || c2.Chunk(i) != want {
			t.Fatalf("chunk %d = %v / %v, want %v", i, c.Chunk(i), c2.Chunk(i), want)
		}
	}
	// The id counter survived too: the next chunk does not collide.
	if err := c2.Grow(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenChunkList(v, testListRoot, testListMagic+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign magic: err = %v", err)
	}
}

func TestChunkListAppend(t *testing.T) {
	// Record first, root second, two writes an append; a record that
	// does not fit rolls into a fresh chunk at offset 0.
	v, c := newTestList(t)
	rec := bytes.Repeat([]byte{0xAB}, 400<<10)
	want := []struct {
		chunk int
		off   int64
	}{{2, 777}, {2, 777 + 400<<10}, {3, 0}, {3, 400 << 10}, {4, 0}}
	for i, w := range want {
		writes := v.Writes
		chunk, off, err := c.Append(rec)
		if err != nil || chunk != w.chunk || off != w.off {
			t.Fatalf("append %d landed at (%d,%d) err=%v, want (%d,%d)", i, chunk, off, err, w.chunk, w.off)
		}
		if v.Writes != writes+2 {
			t.Fatalf("append %d cost %d writes, want 2", i, v.Writes-writes)
		}
		got, err := v.ReadAt(c.Chunk(chunk), off, int64(len(rec)))
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("append %d: record not at (%d,%d): %v", i, chunk, off, err)
		}
		c2, err := OpenChunkList(v, testListRoot, testListMagic)
		if err != nil || c2.Len() != chunk+1 || c2.Tail() != off+int64(len(rec)) {
			t.Fatalf("append %d: root names len=%d tail=%d err=%v", i, c2.Len(), c2.Tail(), err)
		}
	}
}

func TestChunkListRootFull(t *testing.T) {
	_, s := newStore(t, 1)
	v := NewSyncView(s)
	c, err := CreateChunkList(v, testListRoot, testListMagic, true)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		err = c.Grow()
	}
	if !errors.Is(err, ErrRootFull) || c.Len() != maxChunks || maxChunks != 253 {
		t.Fatalf("grew to %d of %d chunks, err = %v", c.Len(), maxChunks, err)
	}
	// The refusal allocated nothing and the full root still round-trips.
	if _, serr := v.Stat(OID(9, 101+maxChunks)); !errors.Is(serr, ErrNotFound) {
		t.Fatalf("chunk past the limit: %v", serr)
	}
	c.tail = ChunkBytes
	if _, _, err := c.Append([]byte{1}); !errors.Is(err, ErrRootFull) {
		t.Fatalf("append past the last chunk: err = %v", err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenChunkList(v, testListRoot, testListMagic)
	if err != nil || c2.Len() != maxChunks || c2.Chunk(maxChunks-1) != c.Chunk(maxChunks-1) {
		t.Fatalf("full root reopened: len=%d err=%v", c2.Len(), err)
	}
}

// corruptRoots are single-field mutations of newTestList's image, each
// one a root Sync cannot have written.
var corruptRoots = []struct {
	name string
	mut  func(img []byte)
}{
	{"zero block", func(img []byte) { clear(img) }},
	{"wrong magic", func(img []byte) { img[0] ^= 1 }},
	{"count 0x7fffffff", func(img []byte) { wire.PutLE64At(img, rootCount, 0x7fffffff) }},
	{"count 254", func(img []byte) { wire.PutLE64At(img, rootCount, maxChunks+1) }},
	{"count past 32 bits", func(img []byte) { img[rootCount+4] = 1 }},
	{"truncated list", func(img []byte) { clear(img[rootList+2*16:]) }},
	{"list longer than count", func(img []byte) { wire.PutLE64At(img, rootCount, 2) }},
	{"unknown flag", func(img []byte) { img[rootFlags] = 3 }},
	{"tail past the chunk", func(img []byte) { wire.PutLE64At(img, rootTail, ChunkBytes+1) }},
	{"negative tail", func(img []byte) { img[rootTail+7] = 0x80 }},
	{"chunk under another root", func(img []byte) { img[rootList+16] ^= 1 }},
	{"chunks out of order", func(img []byte) { OID(9, 1).EncodeTo(img[rootList+16:]) }},
	{"chunk at the id counter", func(img []byte) { wire.PutLE64At(img, rootNextLo, 102+1<<32) }},
	{"byte after the list", func(img []byte) { img[rootBytes-1] = 1 }},
}

func TestChunkListOpenRejectsCorruptRoot(t *testing.T) {
	for _, tc := range corruptRoots {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := newTestList(t)
			img := rootImage(t, v)
			tc.mut(img)
			if err := v.WriteAt(testListRoot, 0, img); err != nil {
				t.Fatal(err)
			}
			c, err := OpenChunkList(v, testListRoot, testListMagic)
			if !errors.Is(err, ErrCorrupt) || c != nil {
				t.Fatalf("list = %v, err = %v, want ErrCorrupt", c, err)
			}
		})
	}
}

// FuzzChunkListOpen writes arbitrary bytes over a valid root behind the
// list's back, as a torn or foreign root block would arrive. Open must
// answer ErrCorrupt with no list, or a list that answers its accessors
// and whose Sync writes back the same bytes — and never panic. Inputs
// shorter than the block are zero-extended, so the seeds stay short.
func FuzzChunkListOpen(f *testing.F) {
	v, _ := newTestList(f)
	valid := rootImage(f, v)
	f.Add(bytes.TrimRight(valid, "\x00"))
	for _, tc := range corruptRoots {
		img := bytes.Clone(valid)
		tc.mut(img)
		f.Add(bytes.TrimRight(img, "\x00"))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, _ := newTestList(t)
		img := make([]byte, rootBytes)
		copy(img, data)
		if err := v.WriteAt(testListRoot, 0, img); err != nil {
			t.Fatal(err)
		}
		c, err := OpenChunkList(v, testListRoot, testListMagic)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || c != nil {
				t.Fatalf("list = %v, untyped error: %v", c, err)
			}
			return
		}
		for i := 0; i < c.Len(); i++ {
			if c.Chunk(i).Hi != testListRoot.Hi {
				t.Fatalf("chunk %d = %v", i, c.Chunk(i))
			}
		}
		if c.Tail() < 0 || c.Tail() > ChunkBytes {
			t.Fatalf("tail = %d", c.Tail())
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := rootImage(t, v); !bytes.Equal(got, img) {
			t.Fatalf("accepted root does not re-encode to itself (%d chunks)", c.Len())
		}
	})
}
