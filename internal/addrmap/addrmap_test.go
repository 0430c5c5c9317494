package addrmap

import (
	"testing"
	"testing/quick"
)

func TestRowMapBijective(t *testing.T) {
	for _, kind := range []RowMapKind{RowDirect, RowXOR3, RowTwist} {
		m, err := NewRowMap(kind, 1024)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for l := 0; l < 1024; l++ {
			p := m.Physical(l)
			if p < 0 || p >= 1024 {
				t.Fatalf("kind %d: physical %d out of range", kind, p)
			}
			if prev, dup := seen[p]; dup {
				t.Fatalf("kind %d: rows %d and %d map to %d", kind, prev, l, p)
			}
			seen[p] = l
			if m.Logical(p) != l {
				t.Fatalf("kind %d: Logical(Physical(%d)) = %d", kind, l, m.Logical(p))
			}
		}
	}
}

func TestRowMapInvolutionProperty(t *testing.T) {
	m, _ := NewRowMap(RowXOR3, 1<<16)
	f := func(r uint16) bool {
		l := int(r)
		return m.Physical(m.Physical(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRowMapValidation(t *testing.T) {
	if _, err := NewRowMap(RowXOR3, 12); err == nil {
		t.Error("12 rows with 8-row groups should fail")
	}
	if _, err := NewRowMap(RowTwist, 24); err == nil {
		t.Error("24 rows with 16-row groups should fail")
	}
	if _, err := NewRowMap(RowDirect, 0); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewRowMap(RowMapKind(99), 16); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestPhysicalNeighbors(t *testing.T) {
	m, _ := NewRowMap(RowDirect, 64)
	below, above, ok := m.PhysicalNeighbors(10, 1)
	if !ok || below != 9 || above != 11 {
		t.Fatalf("neighbors(10,1) = %d,%d,%v", below, above, ok)
	}
	if _, _, ok := m.PhysicalNeighbors(0, 1); ok {
		t.Error("edge row should report no full neighbor pair")
	}
	mx, _ := NewRowMap(RowXOR3, 64)
	b, a, ok := mx.PhysicalNeighbors(8, 1) // logical 8 -> physical 15
	if !ok {
		t.Fatal("neighbors of logical 8 should exist")
	}
	if mx.Physical(b) != 14 || mx.Physical(a) != 16 {
		t.Fatalf("scrambled neighbors wrong: phys %d and %d", mx.Physical(b), mx.Physical(a))
	}
}
