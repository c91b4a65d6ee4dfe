package colfmt

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hyperion/internal/seg"
	"hyperion/internal/sim"
)

// oracleTable is the table encoder as it was when a batch was a pair of
// maps keyed by column name and every group was encoded into its own
// buffer, then concatenated behind the header at Close. It is kept here
// only to pin the Writer's bytes.
func oracleTable(schema Schema, rowsPerGroup int, rows [][]any) []byte {
	if rowsPerGroup <= 0 {
		rowsPerGroup = 1024
	}
	var groups [][]byte
	for lo := 0; lo < len(rows); lo += rowsPerGroup {
		group := rows[lo:min(lo+rowsPerGroup, len(rows))]
		buf := make([]byte, 4)
		binary.LittleEndian.PutUint32(buf[0:], uint32(len(group)))
		for i, c := range schema.Columns {
			switch c.Type {
			case TypeInt64:
				mn, mx := group[0][i].(int64), group[0][i].(int64)
				for _, row := range group {
					v := row[i].(int64)
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
				chunk := make([]byte, 16+8*len(group))
				binary.LittleEndian.PutUint64(chunk[0:], uint64(mn))
				binary.LittleEndian.PutUint64(chunk[8:], uint64(mx))
				for j, row := range group {
					binary.LittleEndian.PutUint64(chunk[16+j*8:], uint64(row[i].(int64)))
				}
				buf = append(buf, chunk...)
			case TypeString:
				total := 0
				for _, row := range group {
					total += 2 + len(row[i].(string))
				}
				chunk := make([]byte, 4, 4+total)
				binary.LittleEndian.PutUint32(chunk[0:], uint32(total))
				for _, row := range group {
					s := row[i].(string)
					chunk = binary.LittleEndian.AppendUint16(chunk, uint16(len(s)))
					chunk = append(chunk, s...)
				}
				buf = append(buf, chunk...)
			}
		}
		groups = append(groups, buf)
	}
	head := make([]byte, 8)
	binary.LittleEndian.PutUint32(head[0:], tableMagic)
	binary.LittleEndian.PutUint16(head[4:], uint16(len(schema.Columns)))
	for _, c := range schema.Columns {
		head = append(head, byte(c.Type), byte(len(c.Name)))
		head = append(head, c.Name...)
	}
	idx := binary.LittleEndian.AppendUint32(nil, uint32(len(groups)))
	var payload []byte
	off := 0
	for _, g := range groups {
		var ent [8]byte
		binary.LittleEndian.PutUint32(ent[:], uint32(off))
		binary.LittleEndian.PutUint32(ent[4:], uint32(len(g)))
		idx = append(idx, ent[:]...)
		payload = append(payload, g...)
		off += len(g)
	}
	return append(append(head, idx...), payload...)
}

// TestWriterMatchesEncodeOracle writes random tables — int64 and string
// columns in random order, empty tables, one-row groups, a partial last
// group — and requires every stored byte to equal the oracle's image,
// and every value to read back through the positional batch.
func TestWriterMatchesEncodeOracle(t *testing.T) {
	v := newView(t)
	rng := sim.NewRand(49)
	for trial := 0; trial < 200; trial++ {
		var schema Schema
		allInt := true
		for c := 0; c < 1+rng.Intn(5); c++ {
			typ := TypeInt64
			if rng.Intn(3) == 0 {
				typ, allInt = TypeString, false
			}
			schema.Columns = append(schema.Columns, Column{Name: fmt.Sprintf("c%d_%d", c, rng.Intn(1000)), Type: typ})
		}
		perGroup := []int{0, 1, 1, 2, 7, 16, 64}[rng.Intn(7)]
		rows := make([][]any, []int{0, 1, 5, 63, 64, 65, 300}[rng.Intn(7)])
		for r := range rows {
			for _, c := range schema.Columns {
				if c.Type == TypeInt64 {
					rows[r] = append(rows[r], int64(rng.Uint64()>>uint(rng.Intn(64))))
					if rng.Intn(2) == 0 {
						rows[r][len(rows[r])-1] = -rows[r][len(rows[r])-1].(int64)
					}
					continue
				}
				b := make([]byte, rng.Intn(20))
				for i := range b {
					b[i] = byte(rng.Uint64())
				}
				rows[r] = append(rows[r], string(b))
			}
		}
		byInts := allInt && rng.Intn(2) == 0
		w := NewWriter(v, schema, perGroup)
		ints := make([]int64, len(schema.Columns))
		for _, row := range rows {
			var err error
			if byInts {
				for i := range ints {
					ints[i] = row[i].(int64)
				}
				err = w.AppendInt64s(ints...)
			} else {
				err = w.Append(row...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		id := seg.OID(701, uint64(trial))
		if err := w.Close(id, true); err != nil {
			t.Fatal(err)
		}
		want := oracleTable(schema, perGroup, rows)
		got, err := v.ReadAt(id, 0, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if sg, _ := v.Stat(id); sg.Size != int64(len(want)) || string(got) != string(want) {
			t.Fatalf("trial %d (%d columns, %d rows, %d per group): image of %d bytes differs from the oracle's %d",
				trial, len(schema.Columns), len(rows), perGroup, sg.Size, len(want))
		}

		r, err := OpenReader(v, id)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for g := 0; g < r.Groups(); g++ {
			b, err := r.ReadGroup(g)
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < b.Rows(); row, next = row+1, next+1 {
				for i, c := range schema.Columns {
					var got any
					if c.Type == TypeInt64 {
						got = b.Int64s(i)[row]
					} else {
						got = b.Strings(i)[row]
					}
					if got != rows[next][i] {
						t.Fatalf("trial %d row %d column %d = %v, want %v", trial, next, i, got, rows[next][i])
					}
				}
			}
		}
		if next != len(rows) {
			t.Fatalf("trial %d: read %d rows back, wrote %d", trial, next, len(rows))
		}
	}
}
