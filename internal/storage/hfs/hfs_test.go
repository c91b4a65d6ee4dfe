package hfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
)

func newFS(t testing.TB) (*seg.SyncView, *FS) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 64 << 20
	scfg.CheckpointEvery = 0
	v := seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
	fs, err := Mkfs(v, seg.OID(500, 0))
	if err != nil {
		t.Fatal(err)
	}
	return v, fs
}

func TestMkdirCreateReadWrite(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/data/logs"); err != nil {
		t.Fatal(err)
	}
	content := []byte("hello hyperion")
	if err := fs.WriteFile("/data/logs/a.txt", content); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/data/logs/a.txt")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read = %q,%v", got, err)
	}
}

func TestWriteFileReplaceAndGrowShrink(t *testing.T) {
	_, fs := newFS(t)
	big := bytes.Repeat([]byte{7}, 3*ExtentBytes+100)
	if err := fs.WriteFile("/f", big); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multi-extent read failed: %d bytes, %v", len(got), err)
	}
	ino, _ := fs.lookup("/f")
	if len(ino.Extents) != 4 {
		t.Fatalf("extents = %d, want 4", len(ino.Extents))
	}
	// Shrink releases extents.
	small := []byte("tiny")
	if err := fs.WriteFile("/f", small); err != nil {
		t.Fatal(err)
	}
	ino, _ = fs.lookup("/f")
	if len(ino.Extents) != 1 {
		t.Fatalf("extents after shrink = %d", len(ino.Extents))
	}
	got, _ = fs.ReadFile("/f")
	if !bytes.Equal(got, small) {
		t.Fatal("shrunk contents wrong")
	}
}

func TestFileTooBig(t *testing.T) {
	_, fs := newFS(t)
	huge := make([]byte, (maxExtents+1)*ExtentBytes)
	if err := fs.WriteFile("/huge", huge); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("err = %v, want ErrFileTooBig", err)
	}
}

func TestErrors(t *testing.T) {
	_, fs := newFS(t)
	_ = fs.Mkdir("/d")
	_ = fs.WriteFile("/d/f", []byte("x"))
	cases := []struct {
		op   func() error
		want error
	}{
		{func() error { _, err := fs.ReadFile("/missing"); return err }, ErrNotFound},
		{func() error { _, err := fs.ReadFile("/d"); return err }, ErrIsDir},
		{func() error { _, err := fs.ReadDir("/d/f"); return err }, ErrNotDir},
		{func() error { return fs.Mkdir("/d") }, ErrExist},
		{func() error { return fs.Create("/d/f") }, ErrExist},
		{func() error { return fs.Unlink("/d") }, ErrNotEmpty},
		{func() error { return fs.Unlink("/nope") }, ErrNotFound},
		{func() error { return fs.Mkdir("/missing/sub") }, ErrNotFound},
	}
	for i, c := range cases {
		if err := c.op(); !errors.Is(err, c.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, c.want)
		}
	}
}

func TestReadDirSorted(t *testing.T) {
	_, fs := newFS(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		_ = fs.Create("/" + n)
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[2].Name != "zeta" {
		t.Fatalf("entries = %v", ents)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	v, fs := newFS(t)
	// Prime the root directory's own data extent so it doesn't count as
	// a delta below.
	_ = fs.Create("/warmup")
	_ = fs.Unlink("/warmup")
	before := v.Store().Len()
	_ = fs.WriteFile("/f", bytes.Repeat([]byte{1}, 2*ExtentBytes))
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if after := v.Store().Len(); after != before {
		t.Fatalf("segments leaked: %d → %d", before, after)
	}
}

func TestMountPersists(t *testing.T) {
	v, fs := newFS(t)
	_ = fs.Mkdir("/persist")
	_ = fs.WriteFile("/persist/file", []byte("durable"))
	fs2, err := Mount(v, seg.OID(500, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/persist/file")
	if err != nil || string(got) != "durable" {
		t.Fatalf("mounted read = %q,%v", got, err)
	}
	// New files after mount must not collide with old inodes.
	if err := fs2.WriteFile("/persist/new", []byte("n")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.ReadFile("/persist/new"); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotationPlanMatchesFS(t *testing.T) {
	v, fs := newFS(t)
	_ = fs.Mkdir("/a")
	_ = fs.Mkdir("/a/b")
	want := bytes.Repeat([]byte("payload"), 10000) // > 1 extent
	if err := fs.WriteFile("/a/b/data.bin", want); err != nil {
		t.Fatal(err)
	}
	ann := fs.Annotate()
	plan, err := CompilePlan("/a/b/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 4 { // 3 lookups + read
		t.Fatalf("plan steps = %d", len(plan.Steps))
	}
	got, err := ExecPlan(v, ann, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("plan execution mismatch with FS read")
	}
}

func TestAnnotationPlanErrors(t *testing.T) {
	v, fs := newFS(t)
	_ = fs.Mkdir("/d")
	ann := fs.Annotate()
	plan, _ := CompilePlan("/d/missing")
	if _, err := ExecPlan(v, ann, plan); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing err = %v", err)
	}
	planDir, _ := CompilePlan("/d")
	if _, err := ExecPlan(v, ann, planDir); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir err = %v", err)
	}
}

func TestAnnotatedAccessCostLowerThanStack(t *testing.T) {
	// The plan executor touches exactly the objects on the path; the
	// full FS stack re-reads parents for create-time checks etc. Here we
	// only assert both charge comparable costs and the plan's device
	// reads equal path length + data extents.
	v, fs := newFS(t)
	_ = fs.Mkdir("/x")
	_ = fs.WriteFile("/x/f", []byte("abc"))
	ann := fs.Annotate()
	plan, _ := CompilePlan("/x/f")
	v.TakeCost()
	rBefore := v.DevReads
	if _, err := ExecPlan(v, ann, plan); err != nil {
		t.Fatal(err)
	}
	reads := v.DevReads - rBefore
	// root inode + root data + x inode + x data + f inode + f extent = 6
	if reads != 6 {
		t.Fatalf("plan device reads = %d, want 6", reads)
	}
	if v.TakeCost() <= 0 {
		t.Fatal("no cost charged")
	}
}

func TestManyFilesDeepPaths(t *testing.T) {
	_, fs := newFS(t)
	path := ""
	for i := 0; i < 8; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := fs.Mkdir(path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		f := fmt.Sprintf("%s/f%02d", path, i)
		if err := fs.WriteFile(f, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir(path)
	if err != nil || len(ents) != 50 {
		t.Fatalf("deep dir entries = %d,%v", len(ents), err)
	}
	got, err := fs.ReadFile(path + "/f25")
	if err != nil || got[0] != 25 {
		t.Fatalf("deep read = %v,%v", got, err)
	}
}

func BenchmarkPathLookup(b *testing.B) {
	_, fs := newFS(b)
	_ = fs.Mkdir("/a")
	_ = fs.Mkdir("/a/b")
	_ = fs.Mkdir("/a/b/c")
	_ = fs.WriteFile("/a/b/c/f", []byte("x"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadFile("/a/b/c/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnotatedPlanExec(b *testing.B) {
	v, fs := newFS(b)
	_ = fs.Mkdir("/a")
	_ = fs.Mkdir("/a/b")
	_ = fs.Mkdir("/a/b/c")
	_ = fs.WriteFile("/a/b/c/f", []byte("x"))
	ann := fs.Annotate()
	plan, _ := CompilePlan("/a/b/c/f")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecPlan(v, ann, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	// Random create/write/unlink/mkdir sequences against a path→content
	// model; directory listings and file reads must always agree.
	f := func(seed uint64) bool {
		_, fs := newFS(t)
		r := sim.NewRand(seed)
		model := map[string][]byte{} // files only
		dirs := map[string]bool{"": true}
		dirList := []string{""}
		randDir := func() string { return dirList[r.Intn(len(dirList))] }
		for i := 0; i < 150; i++ {
			switch r.Intn(5) {
			case 0: // mkdir
				parent := randDir()
				name := fmt.Sprintf("d%d", r.Intn(20))
				p := parent + "/" + name
				err := fs.Mkdir(p)
				if dirs[p] || model[p] != nil {
					if err == nil {
						return false // duplicate accepted
					}
				} else if err == nil {
					dirs[p] = true
					dirList = append(dirList, p)
				}
			case 1, 2: // write file
				parent := randDir()
				p := parent + "/" + fmt.Sprintf("f%d", r.Intn(20))
				if dirs[p] {
					continue // name already a directory
				}
				content := make([]byte, r.Intn(5000))
				for j := range content {
					content[j] = byte(r.Intn(256))
				}
				if err := fs.WriteFile(p, content); err != nil {
					return false
				}
				model[p] = content
			case 3: // read file
				for p, want := range model {
					got, err := fs.ReadFile(p)
					if err != nil || !bytes.Equal(got, want) {
						return false
					}
					break
				}
			case 4: // unlink a file
				for p := range model {
					if err := fs.Unlink(p); err != nil {
						return false
					}
					delete(model, p)
					break
				}
			}
		}
		// Full sweep: every modeled file reads back exactly.
		for p, want := range model {
			got, err := fs.ReadFile(p)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
