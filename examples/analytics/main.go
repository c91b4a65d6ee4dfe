// Analytics example: the §2.3 end-to-end data pipeline. A columnar
// table (Parquet-style row groups with statistics) is written into the
// hfs filesystem on the DPU's SSDs; the filesystem publishes its layout
// annotation; a compiled access plan resolves the file with no
// filesystem code in the loop; and a predicate-pushdown scan runs next
// to the data — Arrow/Parquet on F2FS/ext4-style storage "without any
// host-side, or client-side CPU involvement".
package main

import (
	"fmt"
	"log"

	"hyperion/internal/core"
	"hyperion/internal/netsim"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/colfmt"
	"hyperion/internal/storage/hfs"
)

func main() {
	eng := sim.NewEngine(3)
	net := netsim.New(eng, netsim.DefaultConfig())
	dpu, _, err := core.Boot(eng, net, core.DefaultConfig("olap"))
	if err != nil {
		log.Fatal(err)
	}
	v := dpu.View

	// Filesystem on the single-level store.
	fs, err := hfs.Mkfs(v, seg.OID(0xF5, 0))
	if err != nil {
		log.Fatal(err)
	}
	if err := fs.Mkdir("/warehouse"); err != nil {
		log.Fatal(err)
	}

	// A sensor table: 200k rows in 8k-row groups.
	schema := colfmt.Schema{Columns: []colfmt.Column{
		{Name: "ts", Type: colfmt.TypeInt64},
		{Name: "temp_mC", Type: colfmt.TypeInt64},
		{Name: "sensor", Type: colfmt.TypeString},
	}}
	w := colfmt.NewWriter(v, schema, 8192)
	rng := sim.NewRand(17)
	const rows = 200000
	for i := 0; i < rows; i++ {
		temp := int64(20000 + rng.Intn(8000)) // 20–28 °C in milli-degrees
		if err := w.Append(int64(i), temp, fmt.Sprintf("s%02d", i%16)); err != nil {
			log.Fatal(err)
		}
	}
	tableID := seg.OID(0xF6, 1)
	if err := w.Close(tableID, true); err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile("/warehouse/sensors.tbl", []byte(tableID.String())); err != nil {
		log.Fatal(err)
	}
	loadCost := v.TakeCost()
	fmt.Printf("ingested %d rows (modeled %v of device time)\n", rows, loadCost)

	// Resolve the file through the ANNOTATION, not the FS code: this is
	// the access path an accelerator executes.
	ann := fs.Annotate()
	plan, err := hfs.CompilePlan("/warehouse/sensors.tbl")
	if err != nil {
		log.Fatal(err)
	}
	ptr, err := hfs.ExecPlan(v, ann, plan)
	if err != nil {
		log.Fatal(err)
	}
	oid, err := seg.ParseObjectID(string(ptr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotated plan resolved %q → object %v in %d steps\n",
		"/warehouse/sensors.tbl", oid, len(plan.Steps))

	// Near-data scan with predicate pushdown on the time column.
	rd, err := colfmt.OpenReader(v, oid)
	if err != nil {
		log.Fatal(err)
	}
	v.TakeCost()
	// Columns are addressed by position, resolved from names once.
	temp, err := rd.Schema.ColumnIndex("temp_mC")
	if err != nil {
		log.Fatal(err)
	}
	sensor, err := rd.Schema.ColumnIndex("sensor")
	if err != nil {
		log.Fatal(err)
	}
	var hot int
	var sum, peak int64
	var peakSensor string
	if err := rd.ScanInt64("ts", 120000, 129999, func(b *colfmt.Batch, row int) bool {
		hot++
		t := b.Int64s(temp)[row]
		sum += t
		if t > peak {
			peak, peakSensor = t, b.Strings(sensor)[row]
		}
		return true
	}); err != nil {
		log.Fatal(err)
	}
	scanCost := v.TakeCost()
	fmt.Printf("scan ts∈[120000,130000): %d rows, mean temp %.2f °C, peak %.2f °C at %s\n",
		hot, float64(sum)/float64(hot)/1000, float64(peak)/1000, peakSensor)
	fmt.Printf("pushdown: read %d row groups, skipped %d; modeled scan time %v\n",
		rd.GroupsRead, rd.GroupsSkipped, scanCost)
}
