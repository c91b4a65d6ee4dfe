// Package hfs is Hyperion's extent filesystem plus the annotation
// machinery of §2.3: alongside the normal POSIX-ish API, the filesystem
// publishes a declarative layout annotation (after Spiffy, Sun et al.,
// FAST'18) from which path lookups compile into flat access plans — a
// list of typed object reads that an accelerator can execute directly,
// with no filesystem code in the loop.
package hfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hyperion/internal/seg"
	"hyperion/internal/wire"
)

// Inode types.
const (
	TypeFile = 1
	TypeDir  = 2
)

// Geometry.
const (
	InodeBytes  = 256
	ExtentBytes = 64 << 10 // data extent object size
	MaxName     = 64
	maxExtents  = 12 // direct extents per inode (no indirection needed at sim scale)
)

// Errors.
var (
	ErrNotFound    = errors.New("hfs: no such file or directory")
	ErrExist       = errors.New("hfs: file exists")
	ErrNotDir      = errors.New("hfs: not a directory")
	ErrIsDir       = errors.New("hfs: is a directory")
	ErrNameTooLong = errors.New("hfs: name too long")
	ErrFileTooBig  = errors.New("hfs: file exceeds extent table")
	ErrCorrupt     = errors.New("hfs: corrupt filesystem")
	ErrNotEmpty    = errors.New("hfs: directory not empty")
)

const superMagic = 0x48465331 // "HFS1"

// FS is a mounted filesystem.
type FS struct {
	v       *seg.SyncView
	super   seg.ObjectID
	prefix  uint64
	nextIno uint64
	nextExt uint64
	durable bool
}

// Inode is the on-store index node.
type Inode struct {
	Ino     uint64
	Type    uint8
	Size    int64
	Extents []seg.ObjectID
}

// DirEntry is one directory record.
type DirEntry struct {
	Name string
	Ino  uint64
	Type uint8
}

// Mkfs formats a filesystem whose superblock lives at superID.
func Mkfs(v *seg.SyncView, superID seg.ObjectID, durable bool) (*FS, error) {
	fs := &FS{v: v, super: superID, prefix: superID.Hi, durable: durable,
		nextIno: 2, nextExt: 1 << 32}
	if _, err := v.Alloc(superID, 128, durable, seg.HintAuto); err != nil {
		return nil, err
	}
	// Root directory: ino 1.
	root := &Inode{Ino: 1, Type: TypeDir}
	if _, err := v.Alloc(fs.inodeOID(1), InodeBytes, durable, seg.HintAuto); err != nil {
		return nil, err
	}
	if err := fs.writeInode(root); err != nil {
		return nil, err
	}
	return fs, fs.writeSuper()
}

// Mount opens an existing filesystem.
func Mount(v *seg.SyncView, superID seg.ObjectID) (*FS, error) {
	fs := &FS{v: v, super: superID, prefix: superID.Hi}
	buf, err := v.ReadAt(superID, 0, 128)
	if err != nil {
		return nil, err
	}
	if wire.LE32At(buf, 0) != superMagic {
		return nil, fmt.Errorf("%w: bad superblock magic", ErrCorrupt)
	}
	fs.nextIno = wire.LE64At(buf, 8)
	fs.nextExt = wire.LE64At(buf, 16)
	fs.durable = buf[24] == 1
	return fs, nil
}

func (fs *FS) writeSuper() error {
	buf := make([]byte, 128)
	wire.PutLE32At(buf, 0, superMagic)
	wire.PutLE64At(buf, 8, fs.nextIno)
	wire.PutLE64At(buf, 16, fs.nextExt)
	if fs.durable {
		buf[24] = 1
	}
	return fs.v.WriteAt(fs.super, 0, buf)
}

// inodeOID maps ino → object id (the annotation exposes this rule).
func (fs *FS) inodeOID(ino uint64) seg.ObjectID {
	return seg.ObjectID{Hi: fs.prefix, Lo: ino}
}

func (fs *FS) extentOID() seg.ObjectID {
	id := seg.ObjectID{Hi: fs.prefix, Lo: fs.nextExt}
	fs.nextExt++
	return id
}

// Inode (de)serialization: type(1) pad(7) size(8) next(2 pad6) then
// extent count(2) + extents (16 each).
func (fs *FS) writeInode(ino *Inode) error {
	buf := make([]byte, InodeBytes)
	buf[0] = ino.Type
	wire.PutLE64At(buf, 8, uint64(ino.Size))
	wire.PutLE16At(buf, 16, uint16(len(ino.Extents)))
	for i, e := range ino.Extents {
		e.EncodeTo(buf[24+16*i:])
	}
	return fs.v.WriteAt(fs.inodeOID(ino.Ino), 0, buf)
}

func (fs *FS) readInode(ino uint64) (*Inode, error) {
	buf, err := fs.v.ReadAt(fs.inodeOID(ino), 0, InodeBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: inode %d", ErrNotFound, ino)
	}
	n := &Inode{Ino: ino, Type: buf[0], Size: int64(wire.LE64At(buf, 8))}
	cnt := int(wire.LE16At(buf, 16))
	if cnt > maxExtents {
		return nil, fmt.Errorf("%w: inode %d extent count %d", ErrCorrupt, ino, cnt)
	}
	for i := 0; i < cnt; i++ {
		n.Extents = append(n.Extents, seg.DecodeID(buf[24+16*i:]))
	}
	return n, nil
}

// readAll returns a file/dir's full contents.
func (fs *FS) readAll(ino *Inode) ([]byte, error) {
	out := make([]byte, 0, ino.Size)
	remaining := ino.Size
	for _, e := range ino.Extents {
		n := int64(ExtentBytes)
		if n > remaining {
			n = remaining
		}
		if n <= 0 {
			break
		}
		data, err := fs.v.ReadAt(e, 0, n)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		remaining -= n
	}
	return out, nil
}

// writeAll replaces a file/dir's contents.
func (fs *FS) writeAll(ino *Inode, data []byte) error {
	need := (len(data) + ExtentBytes - 1) / ExtentBytes
	if need > maxExtents {
		return ErrFileTooBig
	}
	for len(ino.Extents) < need {
		id := fs.extentOID()
		if _, err := fs.v.Alloc(id, ExtentBytes, fs.durable, seg.HintAuto); err != nil {
			return err
		}
		ino.Extents = append(ino.Extents, id)
	}
	for len(ino.Extents) > need {
		last := ino.Extents[len(ino.Extents)-1]
		if err := fs.v.Free(last); err != nil {
			return err
		}
		ino.Extents = ino.Extents[:len(ino.Extents)-1]
	}
	for i := 0; i < need; i++ {
		lo := i * ExtentBytes
		hi := lo + ExtentBytes
		if hi > len(data) {
			hi = len(data)
		}
		if err := fs.v.WriteAt(ino.Extents[i], 0, data[lo:hi]); err != nil {
			return err
		}
	}
	ino.Size = int64(len(data))
	if err := fs.writeInode(ino); err != nil {
		return err
	}
	return fs.writeSuper()
}

// Directory serialization: count(4) then records of
// [ino u64][type u8][nameLen u8][name].
func encodeDir(entries []DirEntry) []byte {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	buf := make([]byte, 4)
	wire.PutLE32At(buf, 0, uint32(len(entries)))
	for _, e := range entries {
		rec := make([]byte, 10+len(e.Name))
		wire.PutLE64At(rec, 0, e.Ino)
		rec[8] = e.Type
		rec[9] = byte(len(e.Name))
		copy(rec[10:], e.Name)
		buf = append(buf, rec...)
	}
	return buf
}

func decodeDir(buf []byte) ([]DirEntry, error) {
	if len(buf) < 4 {
		return nil, nil
	}
	n := int(wire.LE32At(buf, 0))
	off := 4
	var out []DirEntry
	for i := 0; i < n; i++ {
		if off+10 > len(buf) {
			return nil, fmt.Errorf("%w: truncated dirent", ErrCorrupt)
		}
		ino := wire.LE64At(buf, off)
		typ := buf[off+8]
		nl := int(buf[off+9])
		if off+10+nl > len(buf) {
			return nil, fmt.Errorf("%w: truncated name", ErrCorrupt)
		}
		out = append(out, DirEntry{Name: string(buf[off+10 : off+10+nl]), Ino: ino, Type: typ})
		off += 10 + nl
	}
	return out, nil
}

func (fs *FS) readDir(ino *Inode) ([]DirEntry, error) {
	if ino.Type != TypeDir {
		return nil, ErrNotDir
	}
	data, err := fs.readAll(ino)
	if err != nil {
		return nil, err
	}
	return decodeDir(data)
}

// splitPath normalizes "/a/b/c" into components.
func splitPath(path string) ([]string, error) {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c == "" || c == "." {
			continue
		}
		if c == ".." {
			return nil, errors.New("hfs: '..' not supported")
		}
		if len(c) > MaxName {
			return nil, ErrNameTooLong
		}
		out = append(out, c)
	}
	return out, nil
}

// lookup resolves a path to its inode.
func (fs *FS) lookup(path string) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur, err := fs.readInode(1)
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		entries, err := fs.readDir(cur)
		if err != nil {
			return nil, err
		}
		found := false
		for _, e := range entries {
			if e.Name == c {
				cur, err = fs.readInode(e.Ino)
				if err != nil {
					return nil, err
				}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
	}
	return cur, nil
}

// parentOf resolves the parent directory and leaf name of a path.
func (fs *FS) parentOf(path string) (*Inode, string, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("%w: root has no parent", ErrExist)
	}
	parentPath := strings.Join(comps[:len(comps)-1], "/")
	parent, err := fs.lookup(parentPath)
	if err != nil {
		return nil, "", err
	}
	if parent.Type != TypeDir {
		return nil, "", ErrNotDir
	}
	return parent, comps[len(comps)-1], nil
}

func (fs *FS) addEntry(parent *Inode, ent DirEntry) error {
	entries, err := fs.readDir(parent)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name == ent.Name {
			return fmt.Errorf("%w: %s", ErrExist, ent.Name)
		}
	}
	entries = append(entries, ent)
	return fs.writeAll(parent, encodeDir(entries))
}

func (fs *FS) newInode(typ uint8) (*Inode, error) {
	ino := &Inode{Ino: fs.nextIno, Type: typ}
	fs.nextIno++
	if _, err := fs.v.Alloc(fs.inodeOID(ino.Ino), InodeBytes, fs.durable, seg.HintAuto); err != nil {
		return nil, err
	}
	if err := fs.writeInode(ino); err != nil {
		return nil, err
	}
	return ino, fs.writeSuper()
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) error {
	parent, name, err := fs.parentOf(path)
	if err != nil {
		return err
	}
	dir, err := fs.newInode(TypeDir)
	if err != nil {
		return err
	}
	return fs.addEntry(parent, DirEntry{Name: name, Ino: dir.Ino, Type: TypeDir})
}

// Create makes an empty file.
func (fs *FS) Create(path string) error {
	parent, name, err := fs.parentOf(path)
	if err != nil {
		return err
	}
	f, err := fs.newInode(TypeFile)
	if err != nil {
		return err
	}
	return fs.addEntry(parent, DirEntry{Name: name, Ino: f.Ino, Type: TypeFile})
}

// WriteFile replaces a file's contents (creating it if absent).
func (fs *FS) WriteFile(path string, data []byte) error {
	ino, err := fs.lookup(path)
	if errors.Is(err, ErrNotFound) {
		if cerr := fs.Create(path); cerr != nil {
			return cerr
		}
		ino, err = fs.lookup(path)
	}
	if err != nil {
		return err
	}
	if ino.Type != TypeFile {
		return ErrIsDir
	}
	return fs.writeAll(ino, data)
}

// ReadFile returns a file's contents.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if ino.Type != TypeFile {
		return nil, ErrIsDir
	}
	return fs.readAll(ino)
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	return fs.readDir(ino)
}

// Stat returns a path's inode.
func (fs *FS) Stat(path string) (*Inode, error) { return fs.lookup(path) }

// Unlink removes a file or empty directory.
func (fs *FS) Unlink(path string) error {
	parent, name, err := fs.parentOf(path)
	if err != nil {
		return err
	}
	entries, err := fs.readDir(parent)
	if err != nil {
		return err
	}
	idx := -1
	for i, e := range entries {
		if e.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	victim, err := fs.readInode(entries[idx].Ino)
	if err != nil {
		return err
	}
	if victim.Type == TypeDir {
		kids, err := fs.readDir(victim)
		if err != nil {
			return err
		}
		if len(kids) > 0 {
			return ErrNotEmpty
		}
	}
	for _, e := range victim.Extents {
		if err := fs.v.Free(e); err != nil {
			return err
		}
	}
	if err := fs.v.Free(fs.inodeOID(victim.Ino)); err != nil {
		return err
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	return fs.writeAll(parent, encodeDir(entries))
}
