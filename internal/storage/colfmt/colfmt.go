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
// column, all the same length.
type Batch struct {
	Schema  Schema
	Int64s  map[string][]int64
	Strings map[string][]string
}

// NewBatch creates an empty batch for the schema.
func NewBatch(s Schema) *Batch {
	return &Batch{Schema: s, Int64s: map[string][]int64{}, Strings: map[string][]string{}}
}

// Rows returns the number of rows.
func (b *Batch) Rows() int {
	for _, c := range b.Schema.Columns {
		if c.Type == TypeInt64 {
			return len(b.Int64s[c.Name])
		}
		return len(b.Strings[c.Name])
	}
	return 0
}

// AppendRow adds one row; vals must match the schema order and types.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != len(b.Schema.Columns) {
		return fmt.Errorf("colfmt: row has %d values, schema has %d columns", len(vals), len(b.Schema.Columns))
	}
	for i, c := range b.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			v, ok := vals[i].(int64)
			if !ok {
				return fmt.Errorf("colfmt: column %s wants int64, got %T", c.Name, vals[i])
			}
			b.Int64s[c.Name] = append(b.Int64s[c.Name], v)
		case TypeString:
			v, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("colfmt: column %s wants string, got %T", c.Name, vals[i])
			}
			b.Strings[c.Name] = append(b.Strings[c.Name], v)
		}
	}
	return nil
}

// AppendInt64s adds one row of int64 values without boxing; the schema
// must be all-int64 (the common telemetry/analytics shape). The variadic
// slice never escapes, so a call with literal arguments is allocation-free.
func (b *Batch) AppendInt64s(vals ...int64) error {
	if len(vals) != len(b.Schema.Columns) {
		return fmt.Errorf("colfmt: row has %d values, schema has %d columns", len(vals), len(b.Schema.Columns))
	}
	for i, c := range b.Schema.Columns {
		if c.Type != TypeInt64 {
			return fmt.Errorf("colfmt: column %s is not int64", c.Name)
		}
		b.Int64s[c.Name] = append(b.Int64s[c.Name], vals[i])
	}
	return nil
}

// Errors.
var ErrCorrupt = errors.New("colfmt: corrupt table object")

const tableMagic = 0x434f4c31 // "COL1"

// Writer serializes batches into a table object.
type Writer struct {
	v            *seg.SyncView
	schema       Schema
	rowsPerGroup int
	groups       [][]byte // encoded row groups
	pending      *Batch
}

// NewWriter creates a writer.
func NewWriter(v *seg.SyncView, schema Schema, rowsPerGroup int) *Writer {
	if rowsPerGroup <= 0 {
		rowsPerGroup = 1024
	}
	return &Writer{v: v, schema: schema, rowsPerGroup: rowsPerGroup, pending: NewBatch(schema)}
}

// Append adds one row.
func (w *Writer) Append(vals ...any) error {
	if err := w.pending.AppendRow(vals...); err != nil {
		return err
	}
	if w.pending.Rows() >= w.rowsPerGroup {
		w.flushGroup()
	}
	return nil
}

// AppendInt64s adds one row to an all-int64 table without boxing.
func (w *Writer) AppendInt64s(vals ...int64) error {
	if err := w.pending.AppendInt64s(vals...); err != nil {
		return err
	}
	if w.pending.Rows() >= w.rowsPerGroup {
		w.flushGroup()
	}
	return nil
}

func (w *Writer) flushGroup() {
	if w.pending.Rows() == 0 {
		return
	}
	w.groups = append(w.groups, encodeGroup(w.pending))
	w.pending = NewBatch(w.schema)
}

// encodeGroup lays out one row group:
// rows(u32) then per column: for int64: min(8) max(8) values(8*rows);
// for string: totalLen(u32) then len(u16)+bytes per value.
func encodeGroup(b *Batch) []byte {
	rows := b.Rows()
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf[0:], uint32(rows))
	for _, c := range b.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			vals := b.Int64s[c.Name]
			mn, mx := vals[0], vals[0]
			for _, v := range vals {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			chunk := make([]byte, 16+8*rows)
			binary.LittleEndian.PutUint64(chunk[0:], uint64(mn))
			binary.LittleEndian.PutUint64(chunk[8:], uint64(mx))
			for i, v := range vals {
				binary.LittleEndian.PutUint64(chunk[16+i*8:], uint64(v))
			}
			buf = append(buf, chunk...)
		case TypeString:
			vals := b.Strings[c.Name]
			total := 0
			for _, s := range vals {
				total += 2 + len(s)
			}
			chunk := make([]byte, 4, 4+total)
			binary.LittleEndian.PutUint32(chunk[0:], uint32(total))
			for _, s := range vals {
				chunk = binary.LittleEndian.AppendUint16(chunk, uint16(len(s)))
				chunk = append(chunk, s...)
			}
			buf = append(buf, chunk...)
		}
	}
	return buf
}

// Close flushes and writes the table into object id. Layout:
// magic(4) ncols(2) rowsPerGroup pad — schema — ngroups(4) —
// group offsets/lengths — group payloads.
func (w *Writer) Close(id seg.ObjectID, durable bool) error {
	w.flushGroup()
	// Header: schema.
	head := make([]byte, 8)
	binary.LittleEndian.PutUint32(head[0:], tableMagic)
	binary.LittleEndian.PutUint16(head[4:], uint16(len(w.schema.Columns)))
	for _, c := range w.schema.Columns {
		head = append(head, byte(c.Type), byte(len(c.Name)))
		head = append(head, c.Name...)
	}
	idx := binary.LittleEndian.AppendUint32(nil, uint32(len(w.groups)))
	var payload []byte
	// Offsets are relative to payload start.
	off := 0
	for _, g := range w.groups {
		var ent [8]byte
		binary.LittleEndian.PutUint32(ent[:], uint32(off))
		binary.LittleEndian.PutUint32(ent[4:], uint32(len(g)))
		idx = append(idx, ent[:]...)
		payload = append(payload, g...)
		off += len(g)
	}
	full := append(append(head, idx...), payload...)
	if _, err := w.v.Alloc(id, int64(len(full)), durable, seg.HintAuto); err != nil {
		return err
	}
	return w.v.WriteAt(id, 0, full)
}

// Reader scans a table object.
type Reader struct {
	v          *seg.SyncView
	id         seg.ObjectID
	Schema     Schema
	groups     []groupRef
	payloadOff int64

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
	return r, nil
}

// Groups returns the row-group count.
func (r *Reader) Groups() int { return len(r.groups) }

// decodeGroup parses one raw group into a batch.
func (r *Reader) decodeGroup(raw []byte) (*Batch, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: short group", ErrCorrupt)
	}
	rows := int(binary.LittleEndian.Uint32(raw[0:]))
	b := NewBatch(r.Schema)
	off := 4
	for _, c := range r.Schema.Columns {
		switch c.Type {
		case TypeInt64:
			if off+16+8*rows > len(raw) {
				return nil, fmt.Errorf("%w: short int64 chunk", ErrCorrupt)
			}
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(raw[off+16+i*8:]))
			}
			b.Int64s[c.Name] = vals
			off += 16 + 8*rows
		case TypeString:
			if off+4 > len(raw) {
				return nil, fmt.Errorf("%w: short string chunk", ErrCorrupt)
			}
			total := int(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
			end := off + total
			vals := make([]string, 0, rows)
			for i := 0; i < rows; i++ {
				if off+2 > end {
					return nil, fmt.Errorf("%w: short string", ErrCorrupt)
				}
				l := int(binary.LittleEndian.Uint16(raw[off:]))
				vals = append(vals, string(raw[off+2:off+2+l]))
				off += 2 + l
			}
			b.Strings[c.Name] = vals
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
	buf, err := r.v.ReadAt(r.id, r.payloadOff+g.off, 20)
	if err != nil {
		return 0, 0, false, err
	}
	return int64(binary.LittleEndian.Uint64(buf[4:])), int64(binary.LittleEndian.Uint64(buf[12:])), true, nil
}

// ReadGroup fully decodes group i.
func (r *Reader) ReadGroup(i int) (*Batch, error) {
	if i < 0 || i >= len(r.groups) {
		return nil, fmt.Errorf("colfmt: group %d out of range", i)
	}
	g := r.groups[i]
	raw, err := r.v.ReadAt(r.id, r.payloadOff+g.off, g.size)
	if err != nil {
		return nil, err
	}
	r.GroupsRead++
	return r.decodeGroup(raw)
}

// ScanInt64 visits rows where lo <= col value <= hi, skipping row groups
// whose statistics exclude the range (predicate pushdown). fn receives
// the row's batch and index.
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
		vals := b.Int64s[col]
		for row, v := range vals {
			if v >= lo && v <= hi {
				if !fn(b, row) {
					return nil
				}
			}
		}
	}
	return nil
}
