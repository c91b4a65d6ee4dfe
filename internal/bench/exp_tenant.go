package bench

import (
	"fmt"

	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/ehdl"
	"hyperion/internal/fabric"
	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
	"hyperion/internal/tenant"
	"hyperion/internal/trace"
)

const (
	// tenantAuthTag authorizes every bitstream in the sweep (the
	// config-engine check of §2.2 applies to tenants like anyone else).
	tenantAuthTag = "hyperion-tenant-key"
	// tenantCap is the admission cap: below the 16-tenant sweep point,
	// so the largest cells exercise the rejection path.
	tenantCap = 14
	// tenantHorizon ends traffic and scheduling; engines then drain.
	// 50 ms is long enough for a compiled eHDL filter (≈ 19 ms of
	// partial reconfiguration at 400 MB/s) to earn useful service.
	tenantHorizon = sim.Time(50 * sim.Millisecond)
	// tenantChurnAt departs every fourth tenant mid-run; tenantLateAt
	// admits a late arrival into the churned-out capacity.
	tenantChurnAt = sim.Time(30 * sim.Millisecond)
	tenantLateAt  = sim.Time(35 * sim.Millisecond)
)

// Offload classes in the tenant mix. Class is a pure function of the
// arrival index — names are display labels only, which the relabeling
// metamorphic relation depends on.
const (
	classQuiet  = iota // latency-sensitive, small requests, tight SLO
	classNoisy         // antagonist: big bursts, no SLO, weight 1
	classEcho          // mid-size echo offload
	classScan          // deep scan pipeline, large requests
	classFilter        // real compiled fail2ban eBPF→eHDL filter
)

// tenantCellCfg shapes one sweep cell.
type tenantCellCfg struct {
	idx   int // cell index: seeds the cell's generators and fault plan
	n     int // tenant arrivals (before the late one)
	lease sim.Duration
	rate  float64 // fault-plane slot-eviction rate
}

// tenantCellRun is one live cell: its controller plus the offered-load
// ledger the table reports.
type tenantCellRun struct {
	cfg      tenantCellCfg
	ctl      *tenant.Controller
	eng      *sim.Engine
	rnd      *sim.Rand   // the cell's own generator
	lanes    tenantLanes // the tick lanes of the cell's engine
	accepted int64       // requests accepted into tenant FIFOs
	quiet    string      // the quiet tenant's (possibly relabeled) name
}

// tenantLanes carries one cell's tenant ticks on one sim.Lane per
// tick interval (trafficShape: 50 µs for the antagonist, 100 µs for
// every other class). A tick re-arms exactly one interval after it
// fires, so every push lands at or after its lane's tail, and only the
// two heads sit in the engine's heap however many tenants tick.
type tenantLanes struct {
	fast, slow sim.Lane[tenantTicker, *tenantTicker]
	// tickers carves the cell's tickers in chunks rather than one
	// allocation per tenant; a ticker lives as long as the run.
	tickers sim.FreeList[tenantTicker]
}

func (ls *tenantLanes) every(interval sim.Duration) *sim.Lane[tenantTicker, *tenantTicker] {
	if interval < 100*sim.Microsecond {
		return &ls.fast
	}
	return &ls.slow
}

// tenantTicker is one admitted tenant's open-loop client: each firing
// offers one tick's burst (trafficShape) and re-arms one interval later.
type tenantTicker struct {
	cell  *tenantCellRun
	h     *tenant.Tenant
	class int
	// Submit copies the context, so one scratch header serves every
	// packet a filter tenant sends.
	scratch [trace.PacketBytes]byte
}

func (tk *tenantTicker) Fire() {
	cell := tk.cell
	now := cell.eng.Now()
	if now >= tenantHorizon || tk.h.State == tenant.StateDeparted {
		return
	}
	interval, burst, bytes := trafficShape(tk.class)
	for b := 0; b < burst; b++ {
		var ctx []byte
		if tk.class == classFilter {
			trace.Packet{
				SrcIP: uint32(1 + cell.rnd.Intn(64)), DstPort: 22, Proto: 6,
				Bytes: 512, AuthFail: cell.rnd.Intn(4) == 0,
			}.MarshalTo(tk.scratch[:])
			ctx = tk.scratch[:]
		}
		if cell.ctl.Submit(tk.h.ID, ctx, bytes, nil) == nil {
			cell.accepted++
		}
		// Refusals (not active, FIFO full) are the client's retry
		// signal; the report's retry column counts them.
	}
	cell.lanes.every(interval).At(cell.eng, now.Add(interval), tk)
}

// tenantClass maps an arrival index to its offload class.
func tenantClass(i int) int {
	switch i {
	case 0:
		return classQuiet
	case 1:
		return classNoisy
	}
	switch i % 3 {
	case 0:
		return classEcho
	case 1:
		return classScan
	default:
		return classFilter
	}
}

// tenantSpec builds arrival i's spec: name, weight, SLO, and a fresh
// image (a filter tenant runs its own instance of the run's compiled
// filter, with private map state, so two filter tenants never share a
// ban table).
func tenantSpec(i int, filter *ehdl.Image) tenant.Spec {
	echo := func(name string, mib int64, depth int) *fabric.Bitstream {
		return &fabric.Bitstream{
			Name: name, SizeBytes: mib << 20,
			Uses:  fabric.Resources{LUTs: 30_000, FFs: 60_000, BRAM: 48, DSP: 24},
			Depth: depth, II: 1, AuthTag: tenantAuthTag,
			Process: func(in any) any { return in },
		}
	}
	switch tenantClass(i) {
	case classQuiet:
		return tenant.Spec{Name: "aa-quiet", Weight: 4, Image: echo("quiet", 1, 12),
			SLO: tenant.SLO{P99: 25 * sim.Microsecond, Goodput: 6000}}
	case classNoisy:
		return tenant.Spec{Name: "ab-noisy", Weight: 1, Image: echo("noisy", 4, 24)}
	case classEcho:
		return tenant.Spec{Name: fmt.Sprintf("t%02d-echo", i), Weight: 1 + i%4, Image: echo("echo", 2, 16),
			SLO: tenant.SLO{P99: 200 * sim.Microsecond, Goodput: 2000}}
	case classScan:
		img := echo("scan", 4, 48)
		img.II = 2
		return tenant.Spec{Name: fmt.Sprintf("t%02d-scan", i), Weight: 1 + i%4, Image: img,
			SLO: tenant.SLO{P99: 500 * sim.Microsecond, Goodput: 1000}}
	default:
		pipe := filter.Instance(fmt.Sprintf("f2b%02d", i))
		return tenant.Spec{Name: fmt.Sprintf("t%02d-filter", i), Weight: 1 + i%4, Image: pipe.Bitstream(),
			SLO: tenant.SLO{P99: 500 * sim.Microsecond, Goodput: 1000}}
	}
}

// trafficShape returns a class's open-loop offered load: submit
// interval, requests per tick, and bus bytes per request.
func trafficShape(class int) (interval sim.Duration, burst, bytes int) {
	switch class {
	case classQuiet:
		return 100 * sim.Microsecond, 1, 64
	case classNoisy:
		return 50 * sim.Microsecond, 4, 64 << 10
	case classScan:
		return 100 * sim.Microsecond, 1, 4096
	default:
		return 100 * sim.Microsecond, 1, 128
	}
}

// tenantMix derives a cell-private generator seed (same finalizer
// constant the fault plane's indexed plans use).
func tenantMix(seed uint64, idx int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * (uint64(idx) + 1))
}

// runTenantCell builds one sweep cell on its own engine, runs its whole
// life to the end and checks the controller's invariants: staggered
// arrivals, per-class open-loop traffic, mid-run departures, a late
// arrival, and (rate > 0) the fault plane's slot evictions. Cell
// randomness comes only from the cell's own generator, never the
// engine's. rename relabels tenant display names (nil = identity);
// every scheduling input is index-derived, so renaming can only
// permute report rows. filter is the run's compiled fail2ban image,
// which the cell only instantiates, so cells may run concurrently.
func runTenantCell(seed uint64, cc tenantCellCfg, filter *ehdl.Image, rec *telemetry.Recorder, rename func(string) string) *tenantCellRun {
	if rename == nil {
		rename = func(s string) string { return s }
	}
	eng := sim.NewEngine(seed)
	fab := fabric.New(eng, fabric.DefaultConfig(), tenantAuthTag)
	tcfg := tenant.DefaultConfig()
	tcfg.MaxTenants = tenantCap
	tcfg.Lease = cc.lease
	ctl := tenant.New(eng, fab, tcfg)
	if rec != nil {
		ctl.SetRecorder(rec)
	}
	ctl.SetHorizon(tenantHorizon)
	if cc.rate > 0 {
		plan := fault.NewPlanIndexed(seed, "tenant", cc.idx).Set(fault.Evict, cc.rate)
		// rate scales outage frequency: 1% ≈ one eviction per 10 ms of
		// box up-time, 5% ≈ one per 2 ms — bruising but survivable
		// against multi-millisecond partial-reconfiguration times.
		meanUp := sim.Duration(float64(100*sim.Microsecond) / cc.rate)
		ctl.ArmEvictions(plan, tenantHorizon, meanUp, 500*sim.Microsecond)
	}
	cell := &tenantCellRun{cfg: cc, ctl: ctl, eng: eng, rnd: sim.NewRand(tenantMix(seed, cc.idx)),
		quiet: rename("aa-quiet")}
	for i := 0; i < cc.n; i++ {
		spec := tenantSpec(i, filter)
		spec.Name = rename(spec.Name)
		departAt := sim.Time(0)
		if i%4 == 3 {
			departAt = tenantChurnAt
		}
		cell.admit(sim.Time(0).Add(sim.Duration(i+1)*(300*sim.Microsecond)), spec, tenantClass(i), departAt)
	}
	late := tenant.Spec{
		Name: rename("zz-late"), Weight: 2,
		Image: tenantSpec(0, filter).Image,
		SLO:   tenant.SLO{P99: 200 * sim.Microsecond, Goodput: 1000},
	}
	cell.admit(tenantLateAt, late, classEcho, 0)
	eng.Run()
	if err := ctl.CheckInvariants(); err != nil {
		panic("bench: e18 invariants: " + err.Error())
	}
	return cell
}

// admit schedules one tenant's arrival and, on admission, its traffic
// loop and optional departure. Rejections are the admission
// controller's business — the cell just moves on.
func (cell *tenantCellRun) admit(at sim.Time, spec tenant.Spec, class int, departAt sim.Time) {
	eng := cell.eng
	eng.At(at, "e18.arrive", func() {
		h, err := cell.ctl.Admit(spec)
		if err != nil {
			return // counted in ctl.Rejected
		}
		if departAt > 0 {
			eng.At(departAt, "e18.depart", func() {
				if derr := cell.ctl.Depart(h.ID); derr != nil {
					panic("bench: e18 depart: " + derr.Error())
				}
			})
		}
		tk, _ := cell.lanes.tickers.Get()
		tk.cell, tk.h, tk.class = cell, h, class
		interval, _, _ := trafficShape(class)
		cell.lanes.every(interval).At(eng, eng.Now().Add(interval), tk)
	})
}

// tenantHeader heads E18's table and the one-cell scenario's.
var tenantHeader = []string{"tenants", "lease", "fault", "adm", "rej", "reconf", "preempt", "evict",
	"ops", "ok", "retry", "err", "viol", "quiet p99", "worst p99"}

// row folds the finished cell into one table row.
func (cell *tenantCellRun) row() []string {
	window := tenantHorizon.Sub(sim.Time(0))
	rows := cell.ctl.Report(window)
	var ok, retry, failed int64
	viol := 0
	var quietP99, worst sim.Duration
	for _, row := range rows {
		ok += row.Completed
		retry += row.Retryable
		failed += row.Failed
		if row.ViolLat || row.ViolGood {
			viol++
		}
		if row.Name == cell.quiet {
			quietP99 = row.P99
		}
		if row.P99 > worst {
			worst = row.P99
		}
	}
	lease := "static"
	if cell.cfg.lease > 0 {
		lease = cell.cfg.lease.String()
	}
	ctl := cell.ctl
	return []string{itoa(int64(cell.cfg.n)), lease, pct(cell.cfg.rate),
		itoa(ctl.Admitted), itoa(ctl.Rejected), itoa(ctl.Reconfigs),
		itoa(ctl.Preempts), itoa(ctl.Evictions),
		itoa(cell.accepted), itoa(ok), itoa(retry), itoa(failed),
		itoa(int64(viol)), quietP99.String(), worst.String()}
}

// compileTenantFilter compiles the filter tenants' fail2ban image, once
// per run: every filter tenant of every cell is an instance of it.
func compileTenantFilter() *ehdl.Image {
	img, err := fail2ban.Compile(tenantAuthTag, 3)
	if err != nil {
		panic("bench: fail2ban image: " + err.Error())
	}
	return img
}

// Tenants (E18) sweeps the multi-tenant control plane: tenant count ×
// slot-lease policy × fault-plane eviction rate, every cell a full
// admission/placement/reconfiguration/churn scenario over its own
// five-slot fabric with a weighted-fair bus in front. The mix holds a
// tight-SLO quiet tenant, a big-burst antagonist, and class-rotated
// offloads including compiled fail2ban eBPF filters, so the table
// doubles as the isolation story: the quiet p99 column should not
// follow the antagonist or the fault rate.
func Tenants(seed uint64) Result { return tenantRun(seed, nil) }

// TenantsTraced is Tenants with the telemetry plane armed: one child
// process per cell, per-tenant child processes under it, request spans
// through WFQ and slot. Each cell records into its own recorder and the
// cells are merged in sweep order, so the Result matches Tenants at the
// same seed.
func TenantsTraced(seed uint64, rec *telemetry.Recorder) Result { return tenantRun(seed, rec) }

func tenantRun(seed uint64, rec *telemetry.Recorder) Result {
	r := Result{ID: "E18", Title: "multi-tenant control plane — admission, slot leases, SLO isolation under churn"}
	r.Table.Header = tenantHeader
	filter := compileTenantFilter()
	var cells []tenantCellCfg
	for _, n := range []int{4, 10, 16} {
		for _, lease := range []sim.Duration{0, 2 * sim.Millisecond} {
			for _, rate := range []float64{0, 0.01, 0.05} {
				cells = append(cells, tenantCellCfg{idx: len(cells), n: n, lease: lease, rate: rate})
			}
		}
	}
	// Cells share nothing but the immutable filter image, so each is
	// one row on its own engine (runRows).
	r.addRows(runRows(len(cells), rec,
		func(i int) string { return fmt.Sprintf("e18.cell%02d", i) },
		func(i int, crec *telemetry.Recorder) tableRow {
			cell := runTenantCell(seed, cells[i], filter, crec, nil)
			return engineRow(cell.row(), cell.eng)
		}))
	r.Notes = append(r.Notes,
		"every cell is an independent scenario on its own engine, one row of the fan-out; the table is byte-identical for every worker count",
		fmt.Sprintf("admission cap %d of 16 offered tenants; every fourth tenant departs at %v and a late tenant arrives at %v",
			tenantCap, tenantChurnAt, tenantLateAt))
	return r
}

// TenantScenario runs a single E18-style cell (cell index 0) on a
// plain engine — the `hyperionctl tenants` form — returning both the
// one-row summary and the per-tenant SLO report. rename maps tenant
// display names (nil is the identity): names are pure labels, so a
// renamed run must produce the same rows up to reordering by the new
// names, the relabeling metamorphic relation.
func TenantScenario(seed uint64, tenants int, lease sim.Duration, faultRate float64, rename func(string) string) (Result, []tenant.Row) {
	cell := runTenantCell(seed, tenantCellCfg{idx: 0, n: tenants, lease: lease, rate: faultRate},
		compileTenantFilter(), nil, rename)
	r := Result{ID: "E18", Title: "tenant scenario — one cell of the E18 sweep"}
	r.Table.Header = tenantHeader
	r.Table.AddRow(cell.row()...)
	r.observe(cell.eng)
	return r, cell.ctl.Report(tenantHorizon.Sub(sim.Time(0)))
}
