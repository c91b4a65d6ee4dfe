package core

import (
	"testing"

	"hyperion/internal/sim"
	"hyperion/internal/tenant"
)

// fig2Timeline drives n Figure 2 probes through a freshly booted DPU
// and returns each probe's completion time and stage breakdown.
func fig2Timeline(t *testing.T, n int, install bool) (times []sim.Time, traces []Fig2Trace) {
	t.Helper()
	eng, _, d := bootTest(t)
	if install {
		tenant.New(d.Eng, d.Fabric, tenant.DefaultConfig())
	}
	if err := d.LoadAccelerator(0, ProbeBitstream(d.Cfg.AuthTag), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < n; i++ {
		err := d.Fig2Probe(0, i%4, int64(i)*7, 1+i%4, func(tr Fig2Trace, _ []byte, perr error) {
			if perr != nil {
				t.Error(perr)
			}
			times = append(times, eng.Now())
			traces = append(traces, tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	return
}

func TestIdleTenantPlaneIsNeutral(t *testing.T) {
	// The chaos satellite's standing requirement: a DPU with the tenant
	// plane installed but no tenants admitted must be bit-identical to
	// a plain DPU — same probe completions at the same picoseconds.
	bt, btr := fig2Timeline(t, 8, false)
	wt, wtr := fig2Timeline(t, 8, true)
	if len(bt) != len(wt) {
		t.Fatalf("probe counts differ: %d vs %d", len(bt), len(wt))
	}
	for i := range bt {
		if bt[i] != wt[i] || btr[i] != wtr[i] {
			t.Fatalf("probe %d perturbed by idle tenant plane: t=%v/%v trace %+v vs %+v",
				i, bt[i], wt[i], btr[i], wtr[i])
		}
	}
}

func TestTenantPlaneOverDPUFabric(t *testing.T) {
	// The plane schedules over the DPU's own fabric: admit two tenants,
	// serve traffic, and verify slot bookkeeping through both views.
	eng, _, d := bootTest(t)
	ctl := tenant.New(d.Eng, d.Fabric, tenant.DefaultConfig())
	img := ProbeBitstream(d.Cfg.AuthTag)
	a, err := ctl.Admit(tenant.Spec{Name: "a", Weight: 2, Image: img})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.State != tenant.StateActive {
		t.Fatalf("tenant a: %v", a.State)
	}
	slot, _ := d.Fabric.Slot(a.Slot)
	if slot.Image != img {
		t.Fatal("tenant image not in DPU fabric slot")
	}
	var done int
	for i := 0; i < 4; i++ {
		if err := ctl.Submit(a.ID, i, 64, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if err := ctl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
