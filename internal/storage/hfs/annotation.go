package hfs

import (
	"fmt"

	"hyperion/internal/seg"
	"hyperion/internal/wire"
)

// Annotation is the declarative layout description of an hfs instance —
// the Spiffy idea (§2.3): enough metadata about on-store formats that
// generated code (here: the plan executor; on real Hyperion: HDL) can
// resolve files to their storage locations without running any
// filesystem code.
type Annotation struct {
	// Object addressing rule: inode i lives at {InodePrefix, i}.
	InodePrefix uint64
	RootIno     uint64

	// Inode record layout.
	InodeBytes    int
	TypeOff       int // u8
	SizeOff       int // u64
	ExtCountOff   int // u16
	ExtTableOff   int
	ExtEntryBytes int // ObjectID Hi(8)+Lo(8)
	ExtentBytes   int

	// Directory stream layout: count u32, then records
	// [ino u64][type u8][nameLen u8][name].
	DirCountBytes    int
	DirentInoOff     int
	DirentTypeOff    int
	DirentNameLenOff int
	DirentNameOff    int

	TypeFile uint8
	TypeDir  uint8
}

// Annotate publishes the filesystem's layout.
func (fs *FS) Annotate() Annotation {
	return Annotation{
		InodePrefix:   fs.prefix,
		RootIno:       1,
		InodeBytes:    InodeBytes,
		TypeOff:       0,
		SizeOff:       8,
		ExtCountOff:   16,
		ExtTableOff:   24,
		ExtEntryBytes: 16,
		ExtentBytes:   ExtentBytes,

		DirCountBytes:    4,
		DirentInoOff:     0,
		DirentTypeOff:    8,
		DirentNameLenOff: 9,
		DirentNameOff:    10,

		TypeFile: TypeFile,
		TypeDir:  TypeDir,
	}
}

// PlanStep is one step of a compiled access plan.
type PlanStep struct {
	// Op is "lookup" (resolve Name in the current directory inode) or
	// "read" (return the current file's contents).
	Op   string
	Name string
}

// Plan is a compiled path access program.
type Plan struct {
	Steps []PlanStep
}

// CompilePlan turns a path into an access plan: one lookup per
// component, then a read.
func CompilePlan(path string) (Plan, error) {
	comps, err := splitPath(path)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	for _, c := range comps {
		p.Steps = append(p.Steps, PlanStep{Op: "lookup", Name: c})
	}
	p.Steps = append(p.Steps, PlanStep{Op: "read"})
	return p, nil
}

// ExecPlan runs a plan against the raw segment store using only the
// annotation — no *FS methods. This is the code path an accelerator
// executes; its read count is what E12 compares against the CPU-mediated
// stack.
func ExecPlan(v *seg.SyncView, ann Annotation, p Plan) ([]byte, error) {
	ino := ann.RootIno
	for _, step := range p.Steps {
		switch step.Op {
		case "lookup":
			next, err := annLookup(v, ann, ino, step.Name)
			if err != nil {
				return nil, err
			}
			ino = next
		case "read":
			typ, data, err := annReadAll(v, ann, ino)
			if err != nil {
				return nil, err
			}
			if typ != ann.TypeFile {
				return nil, ErrIsDir
			}
			return data, nil
		default:
			return nil, fmt.Errorf("hfs: unknown plan op %q", step.Op)
		}
	}
	return nil, fmt.Errorf("hfs: plan missing read step")
}

// annReadAll reads an inode and its full contents using annotation
// offsets only.
func annReadAll(v *seg.SyncView, ann Annotation, ino uint64) (uint8, []byte, error) {
	ibuf, err := v.ReadAt(seg.ObjectID{Hi: ann.InodePrefix, Lo: ino}, 0, int64(ann.InodeBytes))
	if err != nil {
		return 0, nil, err
	}
	typ := ibuf[ann.TypeOff]
	size := int64(wire.LE64At(ibuf, ann.SizeOff))
	cnt := int(wire.LE16At(ibuf, ann.ExtCountOff))
	out := make([]byte, 0, size)
	remaining := size
	for i := 0; i < cnt && remaining > 0; i++ {
		off := ann.ExtTableOff + i*ann.ExtEntryBytes
		ext := seg.DecodeID(ibuf[off:])
		n := int64(ann.ExtentBytes)
		if n > remaining {
			n = remaining
		}
		data, err := v.ReadAt(ext, 0, n)
		if err != nil {
			return 0, nil, err
		}
		out = append(out, data...)
		remaining -= n
	}
	return typ, out, nil
}

// annLookup resolves name within directory ino via the annotated dirent
// format.
func annLookup(v *seg.SyncView, ann Annotation, ino uint64, name string) (uint64, error) {
	typ, data, err := annReadAll(v, ann, ino)
	if err != nil {
		return 0, err
	}
	if typ != ann.TypeDir {
		return 0, ErrNotDir
	}
	if len(data) < ann.DirCountBytes {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	n := int(wire.LE32At(data, 0))
	off := ann.DirCountBytes
	for i := 0; i < n; i++ {
		if off+ann.DirentNameOff > len(data) {
			return 0, fmt.Errorf("%w: truncated dirent", ErrCorrupt)
		}
		entIno := wire.LE64At(data, off+ann.DirentInoOff)
		nl := int(data[off+ann.DirentNameLenOff])
		if off+ann.DirentNameOff+nl > len(data) {
			return 0, fmt.Errorf("%w: truncated name", ErrCorrupt)
		}
		if string(data[off+ann.DirentNameOff:off+ann.DirentNameOff+nl]) == name {
			return entIno, nil
		}
		off += ann.DirentNameOff + nl
	}
	return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
}
