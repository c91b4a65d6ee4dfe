package nvme

import (
	"errors"
	"fmt"
)

// ZNS implements the NVMe Zoned Namespaces command set (§2 lists ZNS as
// one of Hyperion's application-selected storage APIs) over a device:
// the LBA space divides into fixed-size zones that must be written
// sequentially at the write pointer; Zone Append writes at the pointer
// and returns the assigned LBA; Reset rewinds a zone. This matches how
// flash actually erases, removing the block-interface tax the paper's
// citation [32] describes.
type ZNS struct {
	host       *Host
	zoneBlocks int64
	zones      []zone

	Appends, Resets, WriteErrors int64
}

// ZoneState is a zone's lifecycle state.
type ZoneState uint8

const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
)

func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "empty"
	case ZoneOpen:
		return "open"
	case ZoneFull:
		return "full"
	}
	return "?"
}

type zone struct {
	state ZoneState
	wp    int64 // blocks written within the zone
}

// ZoneInfo is one row of a zone report.
type ZoneInfo struct {
	Index        int
	State        ZoneState
	StartLBA     int64
	WritePointer int64 // absolute LBA of the next write
	Capacity     int64 // blocks
}

// ZNS errors.
var (
	ErrNotAtWritePointer = errors.New("zns: write not at the zone write pointer")
	ErrZoneFull          = errors.New("zns: zone full")
	ErrBadZone           = errors.New("zns: no such zone")
	ErrUnwrittenRead     = errors.New("zns: read beyond write pointer")
	ErrCrossZone         = errors.New("zns: operation crosses a zone boundary")
)

// NewZNS carves the host's device into zones of zoneBlocks blocks.
func NewZNS(host *Host, zoneBlocks int64) (*ZNS, error) {
	total := host.DeviceBlocks()
	if zoneBlocks <= 0 || zoneBlocks > total {
		return nil, fmt.Errorf("zns: bad zone size %d", zoneBlocks)
	}
	n := total / zoneBlocks
	return &ZNS{host: host, zoneBlocks: zoneBlocks, zones: make([]zone, n)}, nil
}

// Report returns the state of every zone.
func (z *ZNS) Report() []ZoneInfo {
	out := make([]ZoneInfo, len(z.zones))
	for i := range z.zones {
		out[i] = ZoneInfo{
			Index:        i,
			State:        z.zones[i].state,
			StartLBA:     int64(i) * z.zoneBlocks,
			WritePointer: int64(i)*z.zoneBlocks + z.zones[i].wp,
			Capacity:     z.zoneBlocks,
		}
	}
	return out
}

// Append writes data (whole blocks) at zone zi's write pointer and
// calls cb with the LBA it landed at — the race-free append verb that
// makes ZNS friendly to concurrent log writers.
func (z *ZNS) Append(zi int, data []byte, cb func(lba int64, err error)) error {
	if zi < 0 || zi >= len(z.zones) {
		return ErrBadZone
	}
	bs := z.host.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return fmt.Errorf("%w: %d bytes", ErrShortWrite, len(data))
	}
	blocks := int64(len(data) / bs)
	zn := &z.zones[zi]
	if zn.wp+blocks > z.zoneBlocks {
		z.WriteErrors++
		return ErrZoneFull
	}
	lba := int64(zi)*z.zoneBlocks + zn.wp
	zn.wp += blocks
	if zn.state == ZoneEmpty {
		zn.state = ZoneOpen
	}
	if zn.wp == z.zoneBlocks {
		zn.state = ZoneFull
	}
	z.Appends++
	return z.host.Write(0, lba, data, func(st uint16) {
		if cb == nil {
			return
		}
		if st != StatusOK {
			cb(0, fmt.Errorf("zns: device status %#x", st))
			return
		}
		cb(lba, nil)
	})
}

// WriteAt performs a positional write, which ZNS only permits exactly at
// the write pointer (sequential-write-required zones).
func (z *ZNS) WriteAt(lba int64, data []byte, cb func(err error)) error {
	zi := int(lba / z.zoneBlocks)
	if zi < 0 || zi >= len(z.zones) {
		return ErrBadZone
	}
	zn := &z.zones[zi]
	if lba != int64(zi)*z.zoneBlocks+zn.wp {
		z.WriteErrors++
		return fmt.Errorf("%w: lba %d, wp %d", ErrNotAtWritePointer, lba, int64(zi)*z.zoneBlocks+zn.wp)
	}
	return z.Append(zi, data, func(_ int64, err error) {
		if cb != nil {
			cb(err)
		}
	})
}

// Read returns blocks, rejecting reads beyond the write pointer or
// across a zone boundary.
func (z *ZNS) Read(lba int64, blocks int, cb func(data []byte, err error)) error {
	zi := int(lba / z.zoneBlocks)
	if zi < 0 || zi >= len(z.zones) {
		return ErrBadZone
	}
	zn := &z.zones[zi]
	end := lba + int64(blocks)
	if end > int64(zi+1)*z.zoneBlocks {
		return ErrCrossZone
	}
	if end > int64(zi)*z.zoneBlocks+zn.wp {
		return ErrUnwrittenRead
	}
	return z.host.Read(0, lba, blocks, func(data []byte, st uint16) {
		if st != StatusOK {
			cb(nil, fmt.Errorf("zns: device status %#x", st))
			return
		}
		cb(data, nil)
	})
}

// Reset rewinds a zone to empty (the flash erase). The erase itself
// costs a few milliseconds of the zone's channels.
func (z *ZNS) Reset(zi int, cb func(err error)) error {
	if zi < 0 || zi >= len(z.zones) {
		return ErrBadZone
	}
	z.zones[zi] = zone{}
	z.Resets++
	// Model the erase as a flush-scale delay on the device.
	return z.host.Flush(0, func(st uint16) {
		if cb == nil {
			return
		}
		if st != StatusOK {
			cb(fmt.Errorf("zns: reset status %#x", st))
			return
		}
		cb(nil)
	})
}
