package predict

// Binary serialization for checkpoint/resume (internal/experiment) and for
// shipping per-shard tables. The format is sparse — only cells with a
// nonzero count are written — and canonical: marshaling a table, then
// unmarshaling, then marshaling again yields byte-identical output, and the
// restored table answers every query (Rate, count, TopPairs) exactly like
// the original and keeps recording exactly like it (the property tests pin
// both).
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "RTPT" | version 1
//	Types | Window(ns) | Windows | Decay (IEEE-754 bits, fixed 8 bytes LE)
//	nonEmptyCells
//	per cell, ascending index:
//	  cellIndex | base | Windows×numKinds counts

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

var codecMagic = [4]byte{'R', 'T', 'P', 'T'}

const codecVersion = 1

// cellDirty reports whether a cell holds any count at all.
func (t *Table) cellDirty(cell int) bool {
	row := t.counts[cell*t.cfg.Windows*numKinds : (cell+1)*t.cfg.Windows*numKinds]
	for _, c := range row {
		if c != 0 {
			return true
		}
	}
	return false
}

// MarshalBinary serializes the table. A cell whose counts are all zero is
// omitted — its base index carries no observable information (every read
// of it is 0 and a future Record re-bases it), so the canonical form drops
// it.
func (t *Table) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, codecMagic[:]...)
	buf = appendUvarint(buf, codecVersion)
	buf = appendUvarint(buf, uint64(t.cfg.Types))
	buf = appendUvarint(buf, uint64(t.cfg.Window))
	buf = appendUvarint(buf, uint64(t.cfg.Windows))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.Decay))
	n := 0
	for cell := 0; cell < t.cells; cell++ {
		if t.base[cell] >= 0 && t.cellDirty(cell) {
			n++
		}
	}
	buf = appendUvarint(buf, uint64(n))
	for cell := 0; cell < t.cells; cell++ {
		if t.base[cell] < 0 || !t.cellDirty(cell) {
			continue
		}
		buf = appendUvarint(buf, uint64(cell))
		buf = appendUvarint(buf, uint64(t.base[cell]))
		row := t.counts[cell*t.cfg.Windows*numKinds : (cell+1)*t.cfg.Windows*numKinds]
		for _, c := range row {
			buf = appendUvarint(buf, uint64(c))
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a table serialized by MarshalBinary, replacing
// t's configuration and contents. Malformed input returns an error and
// leaves t unchanged.
func (t *Table) UnmarshalBinary(data []byte) error {
	d := decoder{buf: data}
	var magic [4]byte
	if err := d.bytes(magic[:]); err != nil {
		return err
	}
	if magic != codecMagic {
		return fmt.Errorf("predict: bad magic %q", magic[:])
	}
	version, err := d.uvarint()
	if err != nil {
		return err
	}
	if version != codecVersion {
		return fmt.Errorf("predict: unsupported version %d", version)
	}
	types, err := d.uvarint()
	if err != nil {
		return err
	}
	window, err := d.uvarint()
	if err != nil {
		return err
	}
	windows, err := d.uvarint()
	if err != nil {
		return err
	}
	var decayBits [8]byte
	if err := d.bytes(decayBits[:]); err != nil {
		return err
	}
	cfg := Config{
		Types:   int(types),
		Window:  time.Duration(window),
		Windows: int(windows),
		Decay:   math.Float64frombits(binary.LittleEndian.Uint64(decayBits[:])),
	}
	if types > 4096 || window > uint64(1<<62) || windows > MaxWindows {
		return fmt.Errorf("predict: implausible header (types %d, window %d, windows %d)", types, window, windows)
	}
	if cells := types * (types + 1) / 2; cells*windows*numKinds > 1<<22 {
		return fmt.Errorf("predict: table too large (%d count buckets)", cells*windows*numKinds)
	}
	if cfg.Window <= 0 || cfg.Windows <= 0 {
		return fmt.Errorf("predict: non-positive window geometry")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	nt := New(cfg)
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(nt.cells) {
		return fmt.Errorf("predict: %d cells for a %d-cell table", n, nt.cells)
	}
	prev := -1
	for i := uint64(0); i < n; i++ {
		cell, err := d.uvarint()
		if err != nil {
			return err
		}
		if int(cell) >= nt.cells || int(cell) <= prev {
			return fmt.Errorf("predict: cell index %d out of order or range", cell)
		}
		prev = int(cell)
		base, err := d.uvarint()
		if err != nil {
			return err
		}
		if base > uint64(math.MaxInt64) {
			return fmt.Errorf("predict: cell %d base overflow", cell)
		}
		nt.base[cell] = int64(base)
		row := nt.counts[int(cell)*cfg.Windows*numKinds : (int(cell)+1)*cfg.Windows*numKinds]
		dirty := false
		for j := range row {
			c, err := d.uvarint()
			if err != nil {
				return err
			}
			if c > math.MaxUint32 {
				return fmt.Errorf("predict: cell %d count overflow", cell)
			}
			row[j] = uint32(c)
			dirty = dirty || c != 0
		}
		if !dirty {
			return fmt.Errorf("predict: cell %d serialized with all-zero counts", cell)
		}
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("predict: %d trailing bytes", len(d.buf)-d.off)
	}
	*t = *nt
	return nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) bytes(dst []byte) error {
	if d.off+len(dst) > len(d.buf) {
		return fmt.Errorf("predict: truncated input")
	}
	copy(dst, d.buf[d.off:])
	d.off += len(dst)
	return nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("predict: bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}
