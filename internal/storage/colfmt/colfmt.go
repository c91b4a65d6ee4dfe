// Package colfmt implements the Parquet/Arrow-style columnar pipeline of
// §2.3: a columnar on-storage format (row groups, per-column chunks,
// min/max statistics) written into segment objects, an Arrow-like
// in-memory batch representation, and a scan path with predicate
// pushdown that an accelerator can run next to the data — so columnar
// analytics never bounce through a host CPU.
package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hyperion/internal/seg"
)

// ColumnType enumerates supported column types.
type ColumnType uint8

const (
	TypeInt64 ColumnType = iota + 1
	TypeString
)

// Column declares one schema column.
type Column struct {
	Name string
	Type ColumnType
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColumnIndex returns the position of the named column.
func (s Schema) ColumnIndex(name string) (int, error) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("colfmt: no column %q", name)
}

// Batch is the Arrow-like in-memory representation: one slice per
// schema position, all the same length. Callers address a column by
// its position; Schema.ColumnIndex resolves a name once.
type Batch struct {
	Schema  Schema
	int64s  [][]int64  // by position; nil at a string column
	strings [][]string // by position; nil at an int64 column
}

func newBatch(s Schema) Batch {
	return Batch{Schema: s, int64s: make([][]int64, len(s.Columns)), strings: make([][]string, len(s.Columns))}
}

// Int64s returns the values of the int64 column at position col.
func (b *Batch) Int64s(col int) []int64 { return b.int64s[col] }

// Strings returns the values of the string column at position col.
func (b *Batch) Strings(col int) []string { return b.strings[col] }

// Rows returns the number of rows.
func (b *Batch) Rows() int {
	if len(b.Schema.Columns) == 0 {
		return 0
	}
	if b.Schema.Columns[0].Type == TypeInt64 {
		return len(b.int64s[0])
	}
	return len(b.strings[0])
}

// reset empties every column, keeping its capacity.
func (b *Batch) reset() {
	for i := range b.int64s {
		b.int64s[i] = b.int64s[i][:0]
		b.strings[i] = b.strings[i][:0]
	}
}

// Errors.
var ErrCorrupt = errors.New("colfmt: corrupt table object")

const tableMagic = 0x434f4c31 // "COL1"

// Writer serializes rows into a table object. It fills one batch per
// row group, reused across groups, and encodes each full group straight
// onto the table image.
type Writer struct {
	v            *seg.SyncView
	schema       Schema
	rowsPerGroup int
	pending      Batch
	payload      []byte // the encoded groups, back to back
	index        []byte // offset(4) and length(4) of each group in payload
}

// NewWriter creates a writer.
func NewWriter(v *seg.SyncView, schema Schema, rowsPerGroup int) *Writer {
	if rowsPerGroup <= 0 {
		rowsPerGroup = 1024
	}
	return &Writer{v: v, schema: schema, rowsPerGroup: rowsPerGroup, pending: newBatch(schema)}
}

// Append adds one row; vals must match the schema order and types.
func (w *Writer) Append(vals ...any) error {
	if len(vals) != len(w.schema.Columns) {
		return fmt.Errorf("colfmt: row has %d values, schema has %d columns", len(vals), len(w.schema.Columns))
	}
	for i, c := range w.schema.Columns {
		switch v := vals[i]; c.Type {
		case TypeInt64:
			if _, ok := v.(int64); !ok {
				return fmt.Errorf("colfmt: column %s wants int64, got %T", c.Name, v)
			}
		case TypeString:
			if _, ok := v.(string); !ok {
				return fmt.Errorf("colfmt: column %s wants string, got %T", c.Name, v)
			}
		}
	}
	b := &w.pending
	for i, c := range w.schema.Columns {
		switch c.Type {
		case TypeInt64:
			b.int64s[i] = append(b.int64s[i], vals[i].(int64))
		case TypeString:
			b.strings[i] = append(b.strings[i], vals[i].(string))
		}
	}
	w.rowAdded()
	return nil
}

// AppendInt64s adds one row to an all-int64 table without boxing. The
// variadic slice never escapes, so a call with literal arguments is
// allocation-free.
func (w *Writer) AppendInt64s(vals ...int64) error {
	if len(vals) != len(w.schema.Columns) {
		return fmt.Errorf("colfmt: row has %d values, schema has %d columns", len(vals), len(w.schema.Columns))
	}
	for _, c := range w.schema.Columns {
		if c.Type != TypeInt64 {
			return fmt.Errorf("colfmt: column %s is not int64", c.Name)
		}
	}
	for i, v := range vals {
		w.pending.int64s[i] = append(w.pending.int64s[i], v)
	}
	w.rowAdded()
	return nil
}

func (w *Writer) rowAdded() {
	if w.pending.Rows() >= w.rowsPerGroup {
		w.flushGroup()
	}
}

func (w *Writer) flushGroup() {
	if w.pending.Rows() == 0 {
		return
	}
	off := len(w.payload)
	if need := off + groupBytes(&w.pending); need > cap(w.payload) {
		// Double rather than let append grow by a quarter: a table of
		// g groups is then copied O(log g) times, not O(g).
		w.payload = append(make([]byte, 0, 2*need), w.payload...)
	}
	w.payload = appendGroup(w.payload, &w.pending)
	w.index = binary.LittleEndian.AppendUint32(w.index, uint32(off))
	w.index = binary.LittleEndian.AppendUint32(w.index, uint32(len(w.payload)-off))
	w.pending.reset()
}

// groupBytes is the encoded size of b.
func groupBytes(b *Batch) int {
	n := 4
	for i, c := range b.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			n += 16 + 8*len(b.int64s[i])
		case TypeString:
			n += 4 + 2*len(b.strings[i])
			for _, s := range b.strings[i] {
				n += len(s)
			}
		}
	}
	return n
}

// appendGroup lays out one row group after dst, which has room for it:
// rows(u32) then per column: for int64: min(8) max(8) values(8*rows);
// for string: totalLen(u32) then len(u16)+bytes per value.
func appendGroup(dst []byte, b *Batch) []byte {
	rows := b.Rows()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for i, c := range b.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			vals := b.int64s[i]
			mn, mx := vals[0], vals[0]
			for _, v := range vals {
				mn, mx = min(mn, v), max(mx, v)
			}
			at := len(dst)
			dst = dst[:at+16+8*rows]
			chunk := dst[at:]
			binary.LittleEndian.PutUint64(chunk[0:], uint64(mn))
			binary.LittleEndian.PutUint64(chunk[8:], uint64(mx))
			for j, v := range vals {
				binary.LittleEndian.PutUint64(chunk[16+j*8:], uint64(v))
			}
		case TypeString:
			vals := b.strings[i]
			total := 0
			for _, s := range vals {
				total += 2 + len(s)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(total))
			for _, s := range vals {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
				dst = append(dst, s...)
			}
		}
	}
	return dst
}

// Close flushes and writes the table into object id. Layout:
// magic(4) ncols(2) pad(2) — schema — ngroups(4) — group offsets and
// lengths, relative to the payload — group payloads.
func (w *Writer) Close(id seg.ObjectID, durable bool) error {
	w.flushGroup()
	head := make([]byte, 8, 8+len(w.index)+4+2*len(w.schema.Columns))
	binary.LittleEndian.PutUint32(head[0:], tableMagic)
	binary.LittleEndian.PutUint16(head[4:], uint16(len(w.schema.Columns)))
	for _, c := range w.schema.Columns {
		head = append(head, byte(c.Type), byte(len(c.Name)))
		head = append(head, c.Name...)
	}
	head = binary.LittleEndian.AppendUint32(head, uint32(len(w.index)/8))
	head = append(head, w.index...)
	full := slices.Insert(w.payload, 0, head...)
	if _, err := w.v.Alloc(id, int64(len(full)), durable, seg.HintAuto); err != nil {
		return err
	}
	return w.v.WriteAt(id, 0, full)
}

// Reader scans a table object. It reads each group into one buffer and
// decodes it into one batch, both its own and reused: a batch handed to
// a scan callback or returned by ReadGroup is valid until the next read.
type Reader struct {
	v          *seg.SyncView
	id         seg.ObjectID
	Schema     Schema
	groups     []groupRef
	payloadOff int64
	raw        []byte
	batch      Batch

	// Scan statistics (predicate pushdown effectiveness).
	GroupsRead, GroupsSkipped int64
}

type groupRef struct {
	off, size int64
}

// OpenReader parses a table object's header and group index.
func OpenReader(v *seg.SyncView, id seg.ObjectID) (*Reader, error) {
	sg, err := v.Stat(id)
	if err != nil {
		return nil, err
	}
	// Read the whole header region lazily: first a prefix, then exact.
	probe := int64(4096)
	if probe > sg.Size {
		probe = sg.Size
	}
	buf, err := v.ReadAt(id, 0, probe)
	if err != nil {
		return nil, err
	}
	if len(buf) < 8 || binary.LittleEndian.Uint32(buf[0:]) != tableMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := &Reader{v: v, id: id}
	ncols := int(binary.LittleEndian.Uint16(buf[4:]))
	off := 8
	for i := 0; i < ncols; i++ {
		if off+2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated schema", ErrCorrupt)
		}
		typ := ColumnType(buf[off])
		nl := int(buf[off+1])
		if off+2+nl > len(buf) {
			return nil, fmt.Errorf("%w: truncated column name", ErrCorrupt)
		}
		r.Schema.Columns = append(r.Schema.Columns, Column{Name: string(buf[off+2 : off+2+nl]), Type: typ})
		off += 2 + nl
	}
	if off+4 > len(buf) {
		return nil, fmt.Errorf("%w: truncated index", ErrCorrupt)
	}
	ngroups := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	need := int64(off + ngroups*8)
	if need > int64(len(buf)) {
		buf, err = r.v.ReadAt(id, 0, need)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < ngroups; i++ {
		r.groups = append(r.groups, groupRef{
			off:  int64(binary.LittleEndian.Uint32(buf[off:])),
			size: int64(binary.LittleEndian.Uint32(buf[off+4:])),
		})
		off += 8
	}
	r.payloadOff = int64(off)
	r.batch = newBatch(r.Schema)
	return r, nil
}

// Groups returns the row-group count.
func (r *Reader) Groups() int { return len(r.groups) }

// decodeGroup parses one raw group into the reader's batch. A string
// column's values share one string per group.
func (r *Reader) decodeGroup(raw []byte) (*Batch, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: short group", ErrCorrupt)
	}
	rows := int(binary.LittleEndian.Uint32(raw[0:]))
	b := &r.batch
	b.reset()
	off := 4
	for i, c := range r.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			if off+16+8*rows > len(raw) {
				return nil, fmt.Errorf("%w: short int64 chunk", ErrCorrupt)
			}
			vals := slices.Grow(b.int64s[i], rows)[:rows]
			for j := range vals {
				vals[j] = int64(binary.LittleEndian.Uint64(raw[off+16+j*8:]))
			}
			b.int64s[i] = vals
			off += 16 + 8*rows
		case TypeString:
			if off+4 > len(raw) {
				return nil, fmt.Errorf("%w: short string chunk", ErrCorrupt)
			}
			total := int(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
			if total > len(raw)-off || 2*rows > total {
				return nil, fmt.Errorf("%w: short string chunk", ErrCorrupt)
			}
			chunk := raw[off : off+total]
			all := string(chunk)
			vals := slices.Grow(b.strings[i], rows)
			for at := 0; len(vals) < rows; {
				if at+2 > total {
					return nil, fmt.Errorf("%w: short string", ErrCorrupt)
				}
				l := int(binary.LittleEndian.Uint16(chunk[at:]))
				if at+2+l > total {
					return nil, fmt.Errorf("%w: short string", ErrCorrupt)
				}
				vals = append(vals, all[at+2:at+2+l])
				at += 2 + l
			}
			b.strings[i] = vals
			off += total
		}
	}
	return b, nil
}

// groupStats reads only a group's min/max for an int64 column without
// decoding the whole group. colOffset is computed from preceding
// columns, which requires string columns to be after the stats column or
// the caller to use ReadGroup; for simplicity stats pushdown works when
// the predicate column is the FIRST int64 column.
func (r *Reader) groupStats(g groupRef, colPos int) (mn, mx int64, ok bool, err error) {
	if colPos != 0 {
		return 0, 0, false, nil
	}
	r.raw, err = r.v.ReadAtBuf(r.id, r.payloadOff+g.off, 20, r.raw)
	if err != nil {
		return 0, 0, false, err
	}
	return int64(binary.LittleEndian.Uint64(r.raw[4:])), int64(binary.LittleEndian.Uint64(r.raw[12:])), true, nil
}

// ReadGroup fully decodes group i into the reader's batch, valid until
// the reader's next read.
func (r *Reader) ReadGroup(i int) (*Batch, error) {
	if i < 0 || i >= len(r.groups) {
		return nil, fmt.Errorf("colfmt: group %d out of range", i)
	}
	g := r.groups[i]
	var err error
	r.raw, err = r.v.ReadAtBuf(r.id, r.payloadOff+g.off, g.size, r.raw)
	if err != nil {
		return nil, err
	}
	r.GroupsRead++
	return r.decodeGroup(r.raw)
}

// ScanInt64 visits rows where lo <= col value <= hi, skipping row groups
// whose statistics exclude the range (predicate pushdown). fn receives
// the row's batch, valid until fn returns, and the row's index in it.
func (r *Reader) ScanInt64(col string, lo, hi int64, fn func(b *Batch, row int) bool) error {
	pos, err := r.Schema.ColumnIndex(col)
	if err != nil {
		return err
	}
	if r.Schema.Columns[pos].Type != TypeInt64 {
		return fmt.Errorf("colfmt: column %s is not int64", col)
	}
	for i, g := range r.groups {
		mn, mx, ok, err := r.groupStats(g, pos)
		if err != nil {
			return err
		}
		if ok && (mx < lo || mn > hi) {
			r.GroupsSkipped++
			continue
		}
		b, err := r.ReadGroup(i)
		if err != nil {
			return err
		}
		for row, v := range b.int64s[pos] {
			if v >= lo && v <= hi {
				if !fn(b, row) {
					return nil
				}
			}
		}
	}
	return nil
}
