package bptree

import (
	"errors"
	"fmt"
	"runtime"
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

// stepGet walks from root by Step over copied pages, as chase's
// client-side walk does over pages fetched by RPC.
func stepGet(v *seg.SyncView, root seg.ObjectID, key uint64) (uint64, bool, error) {
	for id := root; ; {
		buf, err := v.ReadAt(id, 0, NodeBytes)
		if err != nil {
			return 0, false, err
		}
		next, val, leaf, found, err := Step(buf, key)
		if err != nil || leaf {
			return val, found, err
		}
		id = next
	}
}

// checkAgainstOracle compares Get, Step, Path and Scan — answers and
// node reads — with the oracle for a batch of random probes.
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
		if sval, sok, err := stepGet(o.v, tr.Root(), key); err != nil || sval != wval || sok != wok {
			t.Fatalf("Step walk to %d = %d,%v,%v; oracle %d,%v", key, sval, sok, err, wval, wok)
		}
		if got, want := tr.NodesRead-before, o.reads-obefore; got != want || got != int64(tr.Height()) {
			t.Fatalf("Get(%d) read %d nodes, oracle %d, height %d", key, got, want, tr.Height())
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
// (with overwrites of live keys), checking along the way that every
// Get / Path / Scan answer and its NodesRead equal the decode-everything
// oracle's, and that the tree agrees with a map model.
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
}

// TestInPlaceSearchRejectsCorruptImages: a damaged stored image must
// surface from every in-place reader as exactly the error the shared
// header validation (and so Step) gives for the same bytes.
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
			_, _, _, _, err = Step(img, 5)
			check("Step", err)
			_, _, err = tr.Get(5)
			check("Get", err)
			check("Scan", tr.Scan(0, 10, func(uint64, uint64) bool { return true }))
			check("Insert", tr.Insert(5, 5))
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
	w.sameState(op, key, nil, nil)
}

// sameState is same without the Get, which would leave a descent of
// its own for the next Insert to replay.
func (w *twins) sameState(op string, key uint64, ansA, ansB any) {
	w.t.Helper()
	if ansA != ansB {
		w.t.Fatalf("%s(%d) answered %v, oracle %v", op, key, ansA, ansB)
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

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (w *twins) insert(key, val uint64) {
	w.t.Helper()
	w.same("Insert", key, errText(w.a.Insert(key, val)), errText(w.b.Insert(key, val)))
}

// TestImageWriteMatchesEncodeOracle runs one seeded tape of inserts and
// overwrites through the twins. The tape must cross leaf and internal
// splits and the height growing, or it fails as too small.
func TestImageWriteMatchesEncodeOracle(t *testing.T) {
	universe, ops := uint64(100000), 60000
	wantPeak := 3
	if testing.Short() {
		universe, ops, wantPeak = 5000, 10000, 2
	}
	w := newTwins(t, durableTree(t))
	r := sim.NewRand(17)
	live := map[uint64]bool{}
	overwrites := 0
	for i := 1; i <= ops; i++ {
		k := r.Uint64() % universe
		if live[k] {
			overwrites++
		}
		live[k] = true
		w.insert(k, r.Uint64())
		if i%500 == 0 {
			w.sameEverywhere()
		}
	}
	w.sameEverywhere()
	t.Logf("%d ops: %d overwrites, %d splits, height %d", ops, overwrites, w.a.Splits, w.a.height)
	if overwrites == 0 || w.a.Splits == 0 || w.a.height < wantPeak {
		t.Fatal("the tape is too small to mean anything")
	}
}

// TestGetInsertReplayMatchesOracle drives the twins through Get → Insert
// tapes with no Get of the checker's own in between, so the image side
// replays each Get's descent where it may and the oracle, which never
// does, walks again: same key found and absent, a different key, a
// second Insert between, and Gets that end in a full leaf
// so the Insert splits. After every operation the answers, the
// statistics, cost, counters and the path images must agree.
func TestGetInsertReplayMatchesOracle(t *testing.T) {
	w := newTwins(t, durableTree(t))
	get := func(k uint64) {
		t.Helper()
		va, oka, ea := w.a.Get(k)
		vb, okb, eb := w.b.Get(k)
		w.sameState("Get", k, fmt.Sprint(va, oka, ea), fmt.Sprint(vb, okb, eb))
	}
	replays, splitsAfterGet := 0, 0
	insert := func(k, v uint64) {
		t.Helper()
		if w.a.last.depth > 0 && w.a.last.key == k {
			replays++
		}
		splits := w.a.Splits
		w.sameState("Insert", k, errText(w.a.Insert(k, v)), errText(w.b.Insert(k, v)))
		if w.a.last.depth != 0 {
			t.Fatalf("Insert(%d) left a descent to replay", k)
		}
		if w.a.Splits > splits {
			splitsAfterGet++
		}
	}

	// A root leaf filled to LeafCap: a Get of a new key remembers
	// nothing, and the Insert after it splits on the full walk.
	for k := uint64(1); k <= LeafCap; k++ {
		w.insert(10*k, k)
	}
	get(15)
	if w.a.last.depth != 0 {
		t.Fatal("a Get of a new key in a full leaf left a descent")
	}
	insert(15, 1)
	get(20) // found in a full leaf: an overwrite replays
	if w.a.last.depth != 2 {
		t.Fatalf("Get over height %d left a descent of %d", w.a.height, w.a.last.depth)
	}
	insert(20, 2)

	r := sim.NewRand(23)
	for i := 0; i < 6000; i++ {
		k := r.Uint64() % 8000
		get(k)
		switch r.Intn(10) {
		case 0:
			insert(r.Uint64()%8000, r.Uint64()) // a different key, mostly
		case 2:
			insert(k, r.Uint64())
			insert(k, r.Uint64())
		case 3:
			get(r.Uint64() % 8000)
			insert(k, r.Uint64())
		default:
			insert(k, r.Uint64())
		}
		if i%1000 == 0 {
			w.sameEverywhere()
		}
	}
	w.sameEverywhere()
	t.Logf("%d replays, %d splits after a Get, height %d", replays, splitsAfterGet, w.a.height)
	if replays < 1000 || splitsAfterGet < 10 || w.a.height < 2 {
		t.Fatal("the tape is too small to mean anything")
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

	t.Run("DRAM-resident tree lent in place past a padded page edge", func(t *testing.T) {
		// Pad DRAM so first fit would put the root leaf across a 64 KiB
		// page edge: seg places it at the next page instead, so every
		// node is lent in place and a Get allocates nothing. The copy
		// path of an object across pages is seg's TestDRAMPlacementProperty.
		const page = 64 << 10
		w := newTwins(t, func(v *seg.SyncView) *Tree {
			if _, err := v.Alloc(seg.OID(99, 1), page-64-NodeBytes/2, false, seg.HintHot); err != nil {
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
			if err != nil || sg.Loc != seg.LocDRAM || sg.Addr%page+NodeBytes > page {
				t.Fatalf("root leaf at %+v, %v: not a DRAM node inside one page", sg, err)
			}
		}
		fill(w, LeafCap)
		w.insert(15, 1) // split
		for k := uint64(10); k <= 400; k += 10 {
			w.insert(k, k+1) // overwrites on both sides of the split
		}
		w.sameEverywhere()
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := w.a.Get(200); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Get in a DRAM-resident tree allocates %v objects/op", n)
		}
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

// BenchmarkTreeLoadDRAM loads E7's middle row, 8000 even keys, into a
// fresh DRAM-resident tree on a fresh store. DRAM materializes by the
// 64 KiB page, so a load allocates about what its nodes hold; one that
// allocates past 2 MiB (a single 4 MiB DRAM chunk would) fails.
func BenchmarkTreeLoadDRAM(b *testing.B) {
	load := func() {
		tr, err := Create(newView(b), seg.OID(0xBEE, 0), false)
		if err != nil {
			b.Fatal(err)
		}
		for i := uint64(0); i < 8000; i++ {
			if err := tr.Insert(i*2, i); err != nil {
				b.Fatal(err)
			}
		}
	}
	load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	load()
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n > 2<<20 {
		b.Fatalf("a DRAM tree load allocates %d B, budget %d", n, 2<<20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
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
