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

// twins drives two identically built trees over two identically built
// stores with one tape. a edits leaves in their stored image; b is the
// oracle, forced through decode → mutate → writeNode. After every
// operation everything a caller, the store or the simulation can see
// must agree between them. Each side has a second view of its store for
// the comparison's own reads, so looking charges neither tree's view.
type twins struct {
	t      *testing.T
	a, b   *Tree
	pa, pb *seg.SyncView
	first  uint64 // Lo of the first node id
}

func newTwins(t *testing.T, build func(v *seg.SyncView) *Tree) *twins {
	t.Helper()
	va, vb := newView(t), newView(t)
	w := &twins{t: t, a: build(va), b: build(vb), pa: seg.NewSyncView(va.Store()), pb: seg.NewSyncView(vb.Store())}
	w.b.viaDecode = true
	w.first = w.a.meta.Lo + 1
	w.same("Create", 0, nil, nil)
	return w
}

func durableTree(t *testing.T) func(v *seg.SyncView) *Tree {
	return func(v *seg.SyncView) *Tree { return newTree(t, v) }
}

// observed is the state of one twin an operation may move, besides the
// stored images: the tree's own fields and statistics, its view's
// modeled cost and op counters, and the store's translation counters.
type observed struct {
	root, next                      seg.ObjectID
	height                          int
	metaDirty                       bool
	nodesRead, nodesWritten, splits int64
	cost                            sim.Duration
	reads, writes                   int64
	devReads, devWrites             int64
	bytesRead, bytesWritten         int64
	lookups, cacheHits              int64
	objects                         int
}

func observe(tr *Tree) observed {
	v := tr.v
	return observed{
		root: tr.root, next: seg.ObjectID{Hi: tr.prefix, Lo: tr.nextLo}, height: tr.height, metaDirty: tr.metaDirty,
		nodesRead: tr.NodesRead, nodesWritten: tr.NodesWritten, splits: tr.Splits,
		cost:  v.TakeCost(),
		reads: v.Reads, writes: v.Writes, devReads: v.DevReads, devWrites: v.DevWrites,
		bytesRead: v.BytesRead, bytesWritten: v.BytesWritten,
		lookups: v.Store().Lookups, cacheHits: v.Store().CacheHits,
		objects: v.Store().Len(),
	}
}

// pathTo walks the stored images from root to the leaf covering key.
func pathTo(v *seg.SyncView, root seg.ObjectID, key uint64) ([]seg.ObjectID, error) {
	var path []seg.ObjectID
	for id := root; ; {
		path = append(path, id)
		buf, err := v.Borrow(id, 0, NodeBytes, nil)
		if err != nil {
			return nil, err
		}
		im, err := header(buf)
		if err != nil {
			return nil, err
		}
		if im.kind == kindLeaf {
			return path, nil
		}
		id = im.child(im.route(key))
	}
}

// sameImage compares the stored bytes of node id on both sides and
// returns them; a node freed on one side must be freed on the other.
// Looking on both sides keeps the stores' translation counters level.
func (w *twins) sameImage(op string, key uint64, id seg.ObjectID) []byte {
	w.t.Helper()
	ia, ea := w.pa.Borrow(id, 0, NodeBytes, nil)
	ib, eb := w.pb.Borrow(id, 0, NodeBytes, nil)
	if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
		w.t.Fatalf("%s(%d): node %v reads %v from the image side, %v from the oracle", op, key, id, ea, eb)
	}
	if at := firstDiff(ia, ib); at >= 0 {
		w.t.Fatalf("%s(%d): node %v differs from the oracle's at byte %d (%#02x, oracle %#02x)", op, key, id, at, ia[at], ib[at])
	}
	return ia
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// same is the per-operation check: the operation's own answers, the
// observable state, a Get of the key, and the image of every node from
// the root to the key's leaf.
func (w *twins) same(op string, key uint64, ansA, ansB any) {
	w.t.Helper()
	if ansA != ansB {
		w.t.Fatalf("%s(%d) answered %v, oracle %v", op, key, ansA, ansB)
	}
	va, oka, ea := w.a.Get(key)
	vb, okb, eb := w.b.Get(key)
	if va != vb || oka != okb || ea != nil || eb != nil {
		w.t.Fatalf("after %s(%d): Get = %d,%v,%v, oracle %d,%v,%v", op, key, va, oka, ea, vb, okb, eb)
	}
	if oa, ob := observe(w.a), observe(w.b); oa != ob {
		w.t.Fatalf("after %s(%d):\nimage side %+v\noracle     %+v", op, key, oa, ob)
	}
	patha, ea := pathTo(w.pa, w.a.root, key)
	pathb, eb := pathTo(w.pb, w.b.root, key)
	if ea != nil || eb != nil || !slices.Equal(patha, pathb) {
		w.t.Fatalf("after %s(%d): path %v,%v, oracle %v,%v", op, key, patha, ea, pathb, eb)
	}
	for _, id := range patha {
		w.sameImage(op, key, id)
	}
}

// sameEverywhere compares every node id the trees have ever allocated.
func (w *twins) sameEverywhere() {
	w.t.Helper()
	for lo := w.first; lo < w.a.nextLo; lo++ {
		w.sameImage("sweep", lo, seg.ObjectID{Hi: w.a.prefix, Lo: lo})
	}
}

type answer struct {
	found bool
	err   string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (w *twins) insert(key, val uint64) {
	w.t.Helper()
	w.same("Insert", key, answer{err: errText(w.a.Insert(key, val))}, answer{err: errText(w.b.Insert(key, val))})
}

func (w *twins) delete(key uint64) bool {
	w.t.Helper()
	fa, ea := w.a.Delete(key)
	fb, eb := w.b.Delete(key)
	w.same("Delete", key, answer{fa, errText(ea)}, answer{fb, errText(eb)})
	return fa
}

// TestImageWriteMatchesEncodeOracle runs one seeded tape of inserts,
// overwrites and deletes (of live and of absent keys) through the twins:
// a growth phase, a shrink phase, then a drain to the empty tree. The
// tape must cross leaf and internal splits, sibling borrows, merges and
// the height changing in both directions, or it fails as too small.
func TestImageWriteMatchesEncodeOracle(t *testing.T) {
	universe, phase := uint64(100000), 60000
	wantPeak := 3
	if testing.Short() {
		universe, phase, wantPeak = 5000, 10000, 2
	}
	w := newTwins(t, durableTree(t))
	r := sim.NewRand(17)
	var live []uint64
	at := map[uint64]int{}
	ops, overwrites, misses, borrows, merges, peak := 0, 0, 0, 0, 0, 1

	insert := func(k uint64) {
		if _, dup := at[k]; dup {
			overwrites++
		} else {
			at[k] = len(live)
			live = append(live, k)
		}
		w.insert(k, r.Uint64())
	}
	del := func(k uint64) {
		i, present := at[k]
		written, objects, height := w.a.NodesWritten, w.a.v.Store().Len(), w.a.height
		if found := w.delete(k); found != present {
			t.Fatalf("Delete(%d) found=%v, model says %v", k, found, present)
		}
		if !present {
			misses++
			return
		}
		last := live[len(live)-1]
		live[i], at[last] = last, i
		live = live[:len(live)-1]
		delete(at, k)
		switch {
		case w.a.v.Store().Len() < objects:
			merges++
		case w.a.NodesWritten-written > 1 && w.a.height == height:
			borrows++
		}
	}
	step := func(insertShare float64) {
		switch {
		case r.Float64() < insertShare:
			insert(r.Uint64() % universe)
		case len(live) > 0 && r.Float64() < 0.9:
			del(live[r.Intn(len(live))])
		default:
			del(r.Uint64() % (universe + 10))
		}
		if ops++; ops%500 == 0 {
			w.sameEverywhere()
		}
		if w.a.height > peak {
			peak = w.a.height
		}
	}

	for i := 0; i < phase; i++ {
		step(0.85)
	}
	splits := w.a.Splits
	for i := 0; i < phase; i++ {
		step(0.3)
	}
	for len(live) > 0 {
		step(0)
	}
	w.sameEverywhere()
	t.Logf("%d ops: %d overwrites, %d absent deletes, %d splits, %d borrows, %d merges, peak height %d",
		ops, overwrites, misses, w.a.Splits, borrows, merges, peak)
	if ops < 20000 || overwrites == 0 || misses == 0 || splits == 0 || borrows == 0 || merges == 0 ||
		peak < wantPeak || w.a.height != 1 {
		t.Fatalf("the tape is too small to mean anything (final height %d)", w.a.height)
	}
}

// TestImageWriteEdges walks the boundaries of the leaf edits, each row
// on fresh twins so the oracle checks every step of it.
func TestImageWriteEdges(t *testing.T) {
	// fill inserts keys 10, 20, … 10n ascending: one root leaf for n <= LeafCap.
	fill := func(w *twins, n int) {
		for k := 1; k <= n; k++ {
			w.insert(uint64(10*k), uint64(k))
		}
	}
	leaf := func(w *twins) image {
		t.Helper()
		im, err := header(w.sameImage("root", 0, w.a.root))
		if err != nil || im.kind != kindLeaf {
			t.Fatalf("root is not a leaf: kind %d, %v", im.kind, err)
		}
		return im
	}

	t.Run("insert at slot 0 and at cnt", func(t *testing.T) {
		w := newTwins(t, durableTree(t))
		fill(w, 5)
		w.insert(5, 500)  // before every key
		w.insert(60, 600) // after every key
		w.insert(25, 250) // between
		im := leaf(w)
		if im.cnt != 8 || im.leafKey(0) != 5 || im.leafVal(0) != 500 || im.leafKey(7) != 60 || im.leafVal(7) != 600 || im.leafKey(3) != 25 {
			t.Fatalf("leaf after edge inserts: cnt %d, first %d→%d, last %d→%d", im.cnt, im.leafKey(0), im.leafVal(0), im.leafKey(7), im.leafVal(7))
		}
	})

	t.Run("LeafCap-1 fills in place, LeafCap splits", func(t *testing.T) {
		w := newTwins(t, durableTree(t))
		fill(w, LeafCap-1)
		written := w.a.NodesWritten
		w.insert(5, 1) // the last free slot, reached by shifting every entry
		if im := leaf(w); im.cnt != LeafCap || w.a.NodesWritten-written != 1 || w.a.Splits != 0 {
			t.Fatalf("insert into a leaf of LeafCap-1: cnt %d, %d nodes written, %d splits", im.cnt, w.a.NodesWritten-written, w.a.Splits)
		}
		written = w.a.NodesWritten
		w.insert(10, 77) // overwrite in a full leaf: still one image edit
		if w.a.NodesWritten-written != 1 || w.a.Splits != 0 {
			t.Fatalf("overwrite in a full leaf wrote %d nodes, %d splits", w.a.NodesWritten-written, w.a.Splits)
		}
		w.insert(15, 2) // no slot left: falls through to the decode-and-split path
		if w.a.Splits != 1 || w.a.height != 2 {
			t.Fatalf("insert into a full leaf: %d splits, height %d", w.a.Splits, w.a.height)
		}
		w.sameEverywhere()
	})

	t.Run("delete of the last slot leaves zeros", func(t *testing.T) {
		w := newTwins(t, durableTree(t))
		fill(w, 7)
		if !w.delete(70) || !w.delete(10) || w.delete(10) {
			t.Fatal("delete answers")
		}
		im := leaf(w)
		if im.cnt != 5 || im.leafKey(0) != 20 || im.leafKey(4) != 60 {
			t.Fatalf("leaf after deletes: cnt %d, keys %d…%d", im.cnt, im.leafKey(0), im.leafKey(4))
		}
		for i := im.cnt; i < LeafCap; i++ {
			if im.leafKey(i) != 0 || im.leafVal(i) != 0 {
				t.Fatalf("slot %d past the count holds %d→%d, want zeros", i, im.leafKey(i), im.leafVal(i))
			}
		}
	})

	t.Run("overwrite writes one node and moves no count", func(t *testing.T) {
		w := newTwins(t, durableTree(t))
		fill(w, 9)
		read, written := w.a.NodesRead, w.a.NodesWritten
		if err := w.a.Insert(40, 4444); err != nil {
			t.Fatal(err)
		}
		if w.a.NodesRead-read != 1 || w.a.NodesWritten-written != 1 {
			t.Fatalf("overwrite read %d and wrote %d nodes, want 1 and 1", w.a.NodesRead-read, w.a.NodesWritten-written)
		}
		if err := w.b.Insert(40, 4444); err != nil {
			t.Fatal(err)
		}
		w.same("Insert", 40, nil, nil)
		if im := leaf(w); im.cnt != 9 || im.leafKey(3) != 40 || im.leafVal(3) != 4444 {
			t.Fatalf("leaf after overwrite: cnt %d, slot 3 %d→%d", im.cnt, im.leafKey(3), im.leafVal(3))
		}
	})

	t.Run("DRAM-resident tree borrowed as a spill copy", func(t *testing.T) {
		// Pad DRAM so the root leaf straddles a 4 MiB chunk boundary: seg
		// cannot alias that range, so every Borrow of it is a copy.
		const chunk = 4 << 20
		w := newTwins(t, func(v *seg.SyncView) *Tree {
			if _, err := v.Alloc(seg.OID(99, 1), chunk-64-NodeBytes/2, false, seg.HintHot); err != nil {
				t.Fatal(err)
			}
			tr, err := Create(v, seg.OID(100, 0), false)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		})
		for _, v := range []*seg.SyncView{w.pa, w.pb} {
			sg, err := v.Stat(w.a.root)
			if err != nil || sg.Loc != seg.LocDRAM || sg.Addr%chunk+NodeBytes <= chunk {
				t.Fatalf("root leaf at %+v, %v: not a DRAM node across a chunk boundary", sg, err)
			}
		}
		fill(w, LeafCap)
		w.insert(15, 1) // split: the new leaf sits inside one chunk and is aliased
		for k := uint64(10); k <= 400; k += 10 {
			if !w.delete(k) {
				t.Fatalf("Delete(%d) missed", k)
			}
		}
		w.sameEverywhere()
	})
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
// The first 101 land in the root leaf before it can split: image edits,
// which must allocate nothing.
func BenchmarkTreeInsert(b *testing.B) {
	tr := newTree(b, newView(b))
	next := uint64(0)
	insert := func() {
		if err := tr.Insert(next, next); err != nil {
			b.Fatal(err)
		}
		next++
	}
	if a := testing.AllocsPerRun(100, insert); a != 0 || tr.Splits != 0 {
		b.Fatalf("a no-split Insert allocates %v objects/op (%d splits), want 0", a, tr.Splits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}

// BenchmarkTreeOverwrite replaces the value of a random live key in a
// 100k-key durable tree, the update shape of E17's puts and E13's
// YCSB mixes: two images searched, one leaf image edited, no split.
func BenchmarkTreeOverwrite(b *testing.B) {
	const keys = 100_000
	tr := newTree(b, newView(b))
	for i := uint64(0); i < keys; i++ {
		if err := tr.Insert(i, i); err != nil {
			b.Fatal(err)
		}
	}
	r := sim.NewRand(1)
	overwrite := func() {
		if err := tr.Insert(r.Uint64()%keys, r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(200, overwrite); a != 0 {
		b.Fatalf("Insert over a live key allocates %v objects/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overwrite()
	}
}

// BenchmarkTreeDelete removes the keys of a 100k-key durable tree in a
// seeded random order, the rebalances that come with it included; the
// tree is rebuilt off the clock each time it runs dry.
func BenchmarkTreeDelete(b *testing.B) {
	const keys = 100_000
	r := sim.NewRand(1)
	var tr *Tree
	var order []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(order) == 0 {
			b.StopTimer()
			tr = newTree(b, newView(b))
			for _, k := range r.Perm(keys) {
				if err := tr.Insert(uint64(k), uint64(k)); err != nil {
					b.Fatal(err)
				}
			}
			order = r.Perm(keys)
			b.StartTimer()
		}
		k := order[len(order)-1]
		order = order[:len(order)-1]
		if ok, err := tr.Delete(uint64(k)); err != nil || !ok {
			b.Fatalf("Delete(%d) = %v,%v", k, ok, err)
		}
	}
}
