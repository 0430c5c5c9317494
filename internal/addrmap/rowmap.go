// Package addrmap models in-DRAM row scrambling: the row address the
// memory controller sends is remapped inside the chip, so logically
// consecutive rows need not be physically adjacent (§3.2). The paper
// reverse-engineers each module's scheme with disturbance experiments
// before it picks physically adjacent aggressor and victim rows; the test
// bench takes the scheme as a known property of the module.
package addrmap

import "fmt"

// RowMapKind selects an in-DRAM logical→physical row scrambling scheme.
type RowMapKind int

// Known scrambling schemes (abstractions of the vendor-specific layouts
// reverse-engineered by prior work).
const (
	// RowDirect: physical = logical (no scrambling).
	RowDirect RowMapKind = iota
	// RowXOR3: the low three row bits are scrambled by XOR with bit 3
	// (a common vendor pattern: row pairs swap within 8-row groups).
	RowXOR3
	// RowTwist: within each 16-row group the low bits are bit-reversed.
	RowTwist
)

// RowMap is a bijective logical↔physical row mapping for one module.
type RowMap struct {
	Kind RowMapKind
	Rows int
}

// NewRowMap builds a mapping over rows rows. rows must be positive and, for
// the scrambled kinds, a multiple of the group size.
func NewRowMap(kind RowMapKind, rows int) (RowMap, error) {
	if rows <= 0 {
		return RowMap{}, fmt.Errorf("addrmap: rows must be positive, got %d", rows)
	}
	group := 1
	switch kind {
	case RowDirect:
	case RowXOR3:
		group = 8
	case RowTwist:
		group = 16
	default:
		return RowMap{}, fmt.Errorf("addrmap: unknown row map kind %d", kind)
	}
	if rows%group != 0 {
		return RowMap{}, fmt.Errorf("addrmap: rows %d not a multiple of group %d", rows, group)
	}
	return RowMap{Kind: kind, Rows: rows}, nil
}

// Physical translates a logical row to its physical location.
func (m RowMap) Physical(logical int) int {
	switch m.Kind {
	case RowXOR3:
		// XOR the low 3 bits with bit 3 replicated: rows 8..15 of each
		// 16-group have their low bits flipped.
		if logical&0x8 != 0 {
			return logical ^ 0x7
		}
		return logical
	case RowTwist:
		low := logical & 0xF
		rev := (low&1)<<3 | (low&2)<<1 | (low&4)>>1 | (low&8)>>3
		return logical&^0xF | rev
	default:
		return logical
	}
}

// Logical translates a physical row back to its logical address.
func (m RowMap) Logical(physical int) int {
	// All supported schemes are involutions; assert so a future non-
	// involutive scheme cannot silently break the inverse.
	return m.Physical(physical)
}

// PhysicalNeighbors returns the logical addresses of the rows physically
// adjacent to the given logical row at the given distance (±distance), in
// ascending physical order. ok is false when a neighbor falls off the array.
func (m RowMap) PhysicalNeighbors(logical, distance int) (below, above int, ok bool) {
	p := m.Physical(logical)
	pb, pa := p-distance, p+distance
	if pb < 0 || pa >= m.Rows {
		return 0, 0, false
	}
	return m.Logical(pb), m.Logical(pa), true
}
