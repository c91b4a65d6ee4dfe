package seg

import (
	"hash/crc32"

	"hyperion/internal/nvme"
)

// End-to-end read integrity (Config.ChecksumReads). The store keeps a
// CRC-32C per device block it has written; every queued-path read is
// verified against it and retried on mismatch, since corruption in this
// model is transient — the device's stored bytes stay intact, only the
// returned copy is damaged. Reads of blocks the store never wrote
// (e.g. freshly allocated segments) have no recorded CRC and pass.

// StatusChecksum is the store-synthesized status for a read whose
// payload still mismatched its recorded CRCs after crcMaxRereads
// rereads. (0xFFFF is the enqueue-failure sentinel; nvme.StatusTimeout
// is 0xFFFD.)
const StatusChecksum uint16 = 0xFFFE

// crcMaxRereads bounds how many rereads a mismatching read may trigger.
const crcMaxRereads = 3

var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcKey addresses one block across devices, reusing the devStride
// address-space split.
func crcKey(dev int, lba int64) int64 { return int64(dev)*devStride + lba }

// recordCRCs stores the CRC of every full block in data. Callers pad
// writes to whole blocks, so a trailing partial fragment never occurs
// on the queued path; one is ignored if it does.
func (s *Store) recordCRCs(dev int, lba int64, data []byte) {
	bs := s.cfg.BlockSize
	for i := 0; (i+1)*bs <= len(data); i++ {
		s.crcs[crcKey(dev, lba+int64(i))] = crc32.Checksum(data[i*bs:(i+1)*bs], crcCastagnoli)
	}
}

// refreshCRCs re-records blocks [lba, lba+blocks) from what the device
// now stores: the synchronous write path changes them behind the
// queued path's back, and a stale record would fail every later
// verified read of intact data.
func (s *Store) refreshCRCs(dev int, lba int64, blocks int) {
	d := s.devs[dev].Device()
	for i := int64(0); i < int64(blocks); i++ {
		s.crcs[crcKey(dev, lba+i)] = crc32.Checksum(d.BorrowSync(lba+i), crcCastagnoli)
	}
}

// verifyCRCs checks data against the recorded per-block CRCs; blocks
// without a record pass.
func (s *Store) verifyCRCs(dev int, lba int64, data []byte) bool {
	bs := s.cfg.BlockSize
	for i := 0; (i+1)*bs <= len(data); i++ {
		want, ok := s.crcs[crcKey(dev, lba+int64(i))]
		if !ok {
			continue
		}
		if crc32.Checksum(data[i*bs:(i+1)*bs], crcCastagnoli) != want {
			return false
		}
	}
	return true
}

// devReadVerified is devRead with verify-and-reread. attempt counts
// rereads already burned.
func (s *Store) devReadVerified(dev int, lba int64, blocks, attempt int, cb func([]byte, uint16)) {
	err := s.devs[dev].Read(0, lba, blocks, func(data []byte, st uint16) {
		if st != nvme.StatusOK || s.verifyCRCs(dev, lba, data) {
			cb(data, st)
			return
		}
		if attempt >= crcMaxRereads {
			s.Counters.Get("crc_failures").Add(1)
			cb(nil, StatusChecksum)
			return
		}
		s.Counters.Get("crc_rereads").Add(1)
		s.devReadVerified(dev, lba, blocks, attempt+1, cb)
	})
	if err != nil {
		cb(nil, 0xFFFF)
	}
}
