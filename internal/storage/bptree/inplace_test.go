package bptree

import (
	"errors"
	"slices"
	"testing"

	"hyperion/internal/seg"
	"hyperion/internal/sim"
)

// oracle is the decode-everything reader the in-place search replaced:
// every hop copies the node out of the store, decodes all of it and
// binary-searches the decoded key slice. It reads through its own view
// of the same store, so it never disturbs the tree's cost or counters.
type oracle struct {
	v     *seg.SyncView
	reads int64
}

func newOracle(tr *Tree) *oracle { return &oracle{v: seg.NewSyncView(tr.v.Store())} }

func (o *oracle) node(id seg.ObjectID) (*node, error) {
	o.reads++
	buf, err := o.v.ReadAt(id, 0, NodeBytes)
	if err != nil {
		return nil, err
	}
	im, err := header(buf)
	if err != nil {
		return nil, err
	}
	n := &node{}
	im.decodeInto(n)
	return n, nil
}

// lowerBound is the slice search the decoded form used.
func lowerBound(keys []uint64, k uint64) int {
	i, _ := slices.BinarySearch(keys, k)
	return i
}

func route(n *node, k uint64) seg.ObjectID {
	i := lowerBound(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	return n.children[i]
}

func (o *oracle) get(root seg.ObjectID, key uint64) (uint64, bool, error) {
	for id := root; ; {
		n, err := o.node(id)
		if err != nil {
			return 0, false, err
		}
		if n.kind == kindLeaf {
			if i := lowerBound(n.keys, key); i < len(n.keys) && n.keys[i] == key {
				return n.vals[i], true, nil
			}
			return 0, false, nil
		}
		id = route(n, key)
	}
}

func (o *oracle) path(root seg.ObjectID, key uint64) ([]seg.ObjectID, error) {
	var path []seg.ObjectID
	for id := root; ; {
		path = append(path, id)
		n, err := o.node(id)
		if err != nil {
			return nil, err
		}
		if n.kind == kindLeaf {
			return path, nil
		}
		id = route(n, key)
	}
}

// scan returns up to limit pairs with from <= key < to.
func (o *oracle) scan(root seg.ObjectID, from, to uint64, limit int) ([][2]uint64, error) {
	var out [][2]uint64
	id := root
	for {
		n, err := o.node(id)
		if err != nil {
			return nil, err
		}
		if n.kind != kindLeaf {
			id = route(n, from)
			continue
		}
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k >= to {
				return out, nil
			}
			out = append(out, [2]uint64{k, n.vals[i]})
			if len(out) == limit {
				return out, nil
			}
		}
		if n.next.IsZero() {
			return out, nil
		}
		id = n.next
	}
}

// checkAgainstOracle compares Get, Path and Scan — answers and node
// reads — with the oracle for a batch of random probes.
func checkAgainstOracle(t *testing.T, tr *Tree, r *sim.Rand, universe uint64, probes int) {
	t.Helper()
	o := newOracle(tr)
	for p := 0; p < probes; p++ {
		key := r.Uint64() % (universe + 10)

		before, obefore := tr.NodesRead, o.reads
		val, ok, err := tr.Get(key)
		wval, wok, werr := o.get(tr.Root(), key)
		if err != nil || werr != nil || val != wval || ok != wok {
			t.Fatalf("Get(%d) = %d,%v,%v; oracle %d,%v,%v", key, val, ok, err, wval, wok, werr)
		}
		if got, want := tr.NodesRead-before, o.reads-obefore; got != want || got != int64(tr.Height()) {
			t.Fatalf("Get(%d) read %d nodes, oracle %d, height %d", key, got, want, tr.Height())
		}

		before, obefore = tr.NodesRead, o.reads
		path, err := tr.Path(key)
		wpath, werr := o.path(tr.Root(), key)
		if err != nil || werr != nil || !slices.Equal(path, wpath) {
			t.Fatalf("Path(%d) = %v,%v; oracle %v,%v", key, path, err, wpath, werr)
		}
		if got, want := tr.NodesRead-before, o.reads-obefore; got != want {
			t.Fatalf("Path(%d) read %d nodes, oracle %d", key, got, want)
		}

		from := key
		to := from + r.Uint64()%1500
		limit := 1 + r.Intn(700)
		var got [][2]uint64
		before, obefore = tr.NodesRead, o.reads
		err = tr.Scan(from, to, func(k, v uint64) bool {
			got = append(got, [2]uint64{k, v})
			return len(got) < limit
		})
		want, werr := o.scan(tr.Root(), from, to, limit)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			t.Fatalf("Scan(%d,%d) limit %d: %d pairs,%v; oracle %d pairs,%v", from, to, limit, len(got), err, len(want), werr)
		}
		if g, w := tr.NodesRead-before, o.reads-obefore; g != w {
			t.Fatalf("Scan(%d,%d) limit %d read %d nodes, oracle %d", from, to, limit, g, w)
		}
	}
}

// TestInPlaceSearchMatchesDecodeOracle grows a random tree to height 3
// (with overwrites of live keys), then deletes it back down to a lone
// leaf root, checking along the way that every Get / Path / Scan answer
// and its NodesRead equal the decode-everything oracle's, and that the
// tree agrees with a map model.
func TestInPlaceSearchMatchesDecodeOracle(t *testing.T) {
	tr := newTree(t, newView(t))
	r := sim.NewRand(99)
	const universe = 60000
	model := map[uint64]uint64{}
	overwrites := 0
	for i := 0; i < 45000; i++ {
		k := r.Uint64() % universe
		if _, dup := model[k]; dup {
			overwrites++
		}
		v := r.Uint64()
		model[k] = v
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		if i%3000 == 0 {
			checkAgainstOracle(t, tr, r, universe, 20)
		}
	}
	if tr.Height() < 3 || overwrites == 0 {
		t.Fatalf("height %d, %d overwrites: the tape is too small to mean anything", tr.Height(), overwrites)
	}
	checkAgainstOracle(t, tr, r, universe, 200)
	for k, want := range model {
		if got, ok, err := tr.Get(k); err != nil || !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v,%v, model %d", k, got, ok, err, want)
		}
	}

	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	peak := tr.Height()
	for i, at := range r.Perm(len(keys)) {
		k := keys[at]
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v,%v", k, ok, err)
		}
		if ok, err := tr.Delete(k); err != nil || ok {
			t.Fatalf("second Delete(%d) = %v,%v", k, ok, err)
		}
		if i%3000 == 0 {
			checkAgainstOracle(t, tr, r, universe, 20)
		}
	}
	if tr.Height() != 1 || peak < 3 {
		t.Fatalf("height %d after deleting everything (peak %d): root never collapsed", tr.Height(), peak)
	}
	checkAgainstOracle(t, tr, r, universe, 20)
}

// TestInPlaceSearchRejectsCorruptImages: a damaged stored image must
// surface from every in-place reader as exactly the error the shared
// header validation (and so DecodeNode) gives for the same bytes.
func TestInPlaceSearchRejectsCorruptImages(t *testing.T) {
	damage := map[string]func(img []byte){
		"bad kind":           func(img []byte) { img[KindOff] = 7 },
		"leaf count 201":     func(img []byte) { img[KindOff] = kindLeaf; img[CountOff], img[CountOff+1] = 201, 0 },
		"internal count 151": func(img []byte) { img[KindOff] = kindInternal; img[CountOff], img[CountOff+1] = 151, 0 },
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			v := newView(t)
			tr := newTree(t, v)
			for i := uint64(0); i < 1000; i++ { // height 2: root is internal
				if err := tr.Insert(i, i); err != nil {
					t.Fatal(err)
				}
			}
			img, err := v.ReadAt(tr.Root(), 0, NodeBytes)
			if err != nil {
				t.Fatal(err)
			}
			hurt(img)
			if err := v.WriteAt(tr.Root(), 0, img); err != nil {
				t.Fatal(err)
			}
			_, want := header(img)
			if !errors.Is(want, ErrCorrupt) {
				t.Fatalf("header accepted the damaged image: %v", want)
			}
			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) || err.Error() != want.Error() {
					t.Errorf("%s: err = %v, want %v", op, err, want)
				}
			}
			_, _, _, _, err = DecodeNode(img)
			check("DecodeNode", err)
			_, _, err = tr.Get(5)
			check("Get", err)
			_, err = tr.Path(5)
			check("Path", err)
			check("Scan", tr.Scan(0, 10, func(uint64, uint64) bool { return true }))
			check("Insert", tr.Insert(5, 5))
			_, err = tr.Delete(5)
			check("Delete", err)
		})
	}
	// A short image cannot be stored (nodes are read at NodeBytes), so
	// the shared validation is checked directly.
	if _, err := header(make([]byte, 10)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("10-byte image: header err = %v", err)
	}
}

// The probes in cmd/hyperbench use these fixtures; keep them in step.

// BenchmarkTreeGet is a point lookup in a 100k-key durable tree: three
// borrowed node images searched in place, nothing allocated.
func BenchmarkTreeGet(b *testing.B) {
	const keys = 100_000
	tr := newTree(b, newView(b))
	for i := uint64(0); i < keys; i++ {
		if err := tr.Insert(i, i); err != nil {
			b.Fatal(err)
		}
	}
	r := sim.NewRand(1)
	get := func() {
		if _, _, err := tr.Get(r.Uint64() % keys); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(200, get); a != 0 {
		b.Fatalf("Get allocates %v objects/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// BenchmarkTreeInsert appends ascending keys to a fresh durable tree.
func BenchmarkTreeInsert(b *testing.B) {
	tr := newTree(b, newView(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
