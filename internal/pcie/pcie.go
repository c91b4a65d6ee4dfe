// Package pcie models the PCIe interconnect of the Hyperion DPU: the
// FPGA-hosted root complex, the x16-to-4×x4 bifurcation provided by the
// crossover board, BAR address assignment, and DMA transfers with per-link
// bandwidth and latency.
//
// Making the DPU self-hosting — running the root complex on the FPGA
// instead of a host CPU — is the paper's key hardware move: every access
// to storage funnels through the FPGA with no host in the loop.
package pcie

import (
	"errors"
	"fmt"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// Per-lane effective bandwidth (PCIe Gen3, 8 GT/s with 128b/130b
// encoding, minus protocol overhead ≈ 985 MB/s).
const Gen3LaneBytesPerSec = 985_000_000

// Typical one-way TLP latency through a switch/bridge hop.
const hopLatency = 300 * sim.Nanosecond

// Errors returned by PCIe operations.
var (
	ErrNoSuchDevice  = errors.New("pcie: no such device")
	ErrBadAddress    = errors.New("pcie: address not claimed by any BAR")
	ErrEnumerated    = errors.New("pcie: bus already enumerated")
	ErrNotEnumerated = errors.New("pcie: bus not enumerated")
	ErrPortTaken     = errors.New("pcie: port already occupied")
)

// Device is an endpoint attached to the bus. Devices expose memory-mapped
// registers via a BAR and accept DMA reads/writes.
type Device interface {
	// PCIeName identifies the device for enumeration output.
	PCIeName() string
	// BARSize returns the BAR aperture the device requests, in bytes.
	BARSize() int64
	// MMIORead and MMIOWrite access device registers at a BAR-relative
	// offset. They are doorbell-sized accesses (4/8 bytes).
	MMIORead(offset int64) uint64
	MMIOWrite(offset int64, val uint64)
}

// Port is one bifurcated link (x4 in the Hyperion crossover board).
type Port struct {
	Index     int
	Lanes     int
	dev       Device
	barBase   int64
	barSize   int64
	busyUntil sim.Time
	dmaName   string // precomputed DMA completion event name
	Bytes     int64
	TLPs      int64
}

// BandwidthBytesPerSec returns the port's effective unidirectional
// bandwidth.
func (p *Port) BandwidthBytesPerSec() int64 {
	return int64(p.Lanes) * Gen3LaneBytesPerSec
}

// Device returns the attached endpoint (nil if empty).
func (p *Port) Device() Device { return p.dev }

// BAR returns the port's assigned BAR window after enumeration.
func (p *Port) BAR() (base, size int64) { return p.barBase, p.barSize }

// RootComplex is the FPGA-hosted PCIe root with a fixed bifurcation.
type RootComplex struct {
	eng        *sim.Engine
	ports      []*Port
	enumerated bool
	nextBase   int64
	rec        *telemetry.Recorder

	Counters sim.CounterSet
}

// SetRecorder arms the telemetry plane: a latency histogram sample
// per DMA (queueing + transfer + hop) and MMIO counters. Disarmed
// (nil) the hooks are pure nil checks.
func (rc *RootComplex) SetRecorder(rec *telemetry.Recorder) { rc.rec = rec }

// NewRootComplex creates a root with the given bifurcation, e.g.
// lanes = [4,4,4,4] for the Hyperion crossover board splitting x16.
func NewRootComplex(eng *sim.Engine, lanes []int) *RootComplex {
	rc := &RootComplex{eng: eng, nextBase: 0x1000_0000}
	for i, l := range lanes {
		if l <= 0 {
			panic("pcie: non-positive lane count")
		}
		rc.ports = append(rc.ports, &Port{Index: i, Lanes: l})
	}
	return rc
}

// Ports returns all ports.
func (rc *RootComplex) Ports() []*Port { return rc.ports }

// Attach plugs a device into port i. Must happen before Enumerate.
func (rc *RootComplex) Attach(i int, dev Device) error {
	if rc.enumerated {
		return ErrEnumerated
	}
	if i < 0 || i >= len(rc.ports) {
		return ErrNoSuchDevice
	}
	if rc.ports[i].dev != nil {
		return ErrPortTaken
	}
	rc.ports[i].dev = dev
	return nil
}

// Enumerate walks the bus and assigns BAR windows — the job the paper
// notes a host CPU normally performs, done here by the DPU itself.
// It returns a human-readable description of the discovered topology.
func (rc *RootComplex) Enumerate() ([]string, error) {
	if rc.enumerated {
		return nil, ErrEnumerated
	}
	var out []string
	for _, p := range rc.ports {
		if p.dev == nil {
			out = append(out, fmt.Sprintf("port%d: empty (x%d)", p.Index, p.Lanes))
			continue
		}
		size := p.dev.BARSize()
		// Align BARs to their size, as real PCIe requires.
		base := alignUp(rc.nextBase, size)
		p.barBase, p.barSize = base, size
		p.dmaName = "pcie.dma:" + p.dev.PCIeName()
		rc.nextBase = base + size
		out = append(out, fmt.Sprintf("port%d: %s x%d BAR=[%#x,%#x)", p.Index, p.dev.PCIeName(), p.Lanes, base, base+size))
	}
	rc.enumerated = true
	return out, nil
}

func alignUp(x, align int64) int64 {
	if align <= 0 {
		return x
	}
	return (x + align - 1) / align * align
}

// resolve maps a bus address to (port, offset).
func (rc *RootComplex) resolve(addr int64) (*Port, int64, error) {
	if !rc.enumerated {
		return nil, 0, ErrNotEnumerated
	}
	for _, p := range rc.ports {
		if p.dev != nil && addr >= p.barBase && addr < p.barBase+p.barSize {
			return p, addr - p.barBase, nil
		}
	}
	return nil, 0, ErrBadAddress
}

// MMIORead performs a register read at a bus address (synchronous; the
// round-trip time is charged to the caller via the returned duration).
func (rc *RootComplex) MMIORead(addr int64) (uint64, sim.Duration, error) {
	p, off, err := rc.resolve(addr)
	if err != nil {
		return 0, 0, err
	}
	rc.Counters.Get("mmio_reads").Add(1)
	if rc.rec != nil {
		rc.rec.Count("pcie", "mmio_reads", 1)
	}
	p.TLPs++
	return p.dev.MMIORead(off), 2 * hopLatency, nil
}

// MMIOWrite performs a posted register write (doorbell ring).
func (rc *RootComplex) MMIOWrite(addr int64, val uint64) (sim.Duration, error) {
	p, off, err := rc.resolve(addr)
	if err != nil {
		return 0, err
	}
	rc.Counters.Get("mmio_writes").Add(1)
	if rc.rec != nil {
		rc.rec.Count("pcie", "mmio_writes", 1)
	}
	p.TLPs++
	p.dev.MMIOWrite(off, val)
	return hopLatency, nil
}

// DMA models a bulk transfer of size bytes to or from the device behind
// the given bus address. The transfer serializes on the port's link:
// concurrent DMAs queue behind each other, modeling link contention.
// done fires when the last byte lands.
func (rc *RootComplex) DMA(addr int64, size int64, done func()) error {
	p, _, err := rc.resolve(addr)
	if err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("pcie: non-positive DMA size %d", size)
	}
	now := rc.eng.Now()
	start := p.busyUntil
	if start < now {
		start = now
	}
	xfer := sim.Duration(float64(size) / float64(p.BandwidthBytesPerSec()) * float64(sim.Second))
	finish := start.Add(xfer + hopLatency)
	p.busyUntil = start.Add(xfer)
	p.Bytes += size
	p.TLPs += (size + 4095) / 4096
	rc.Counters.Get("dma_bytes").Add(size)
	if rc.rec != nil {
		rc.rec.Observe("pcie", "dma", finish.Sub(now))
	}
	if done == nil {
		done = nopDone
	}
	rc.eng.At(finish, p.dmaName, done)
	return nil
}

// nopDone keeps the completion event (and thus event order) of a
// callback-less DMA identical to one with a callback.
func nopDone() {}
