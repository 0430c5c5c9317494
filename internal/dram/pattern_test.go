package dram

import "testing"

// TestFillMatchesByteLoop pins Fill's doubling copy to the plain byte
// loop for lengths around the word and row sizes and for every byte
// value, starting from a buffer holding other data.
func TestFillMatchesByteLoop(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 9, 4095, 8192} {
		for v := 0; v < 256; v++ {
			b := byte(v)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i*7 + 1)
			}
			if got := Fill(buf, b); len(got) != n {
				t.Fatalf("len %d: Fill returned %d bytes", n, len(got))
			}
			for i, got := range buf {
				if got != b {
					t.Fatalf("len %d fill %#02x: byte %d is %#02x", n, b, i, got)
				}
			}
		}
	}
}
