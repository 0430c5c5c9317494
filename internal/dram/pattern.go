package dram

import "fmt"

// DataPattern is one of the aggressor/victim fill patterns of Table 2.
// The suffix "I" denotes the inverse of a pattern.
type DataPattern int

// The six data patterns tested in §5.3.
const (
	CheckerBoard  DataPattern = iota // aggressor 0xAA, victim 0x55
	CheckerBoardI                    // aggressor 0x55, victim 0xAA
	RowStripe                        // aggressor 0xFF, victim 0x00
	RowStripeI                       // aggressor 0x00, victim 0xFF
	ColStripe                        // aggressor 0x55, victim 0x55
	ColStripeI                       // aggressor 0xAA, victim 0xAA
)

// AllDataPatterns lists the patterns in the order of Fig. 19's y-axis.
var AllDataPatterns = []DataPattern{
	CheckerBoard, CheckerBoardI, ColStripe, ColStripeI, RowStripe, RowStripeI,
}

// String returns the paper's abbreviation (CB, CBI, CS, CSI, RS, RSI).
func (p DataPattern) String() string {
	switch p {
	case CheckerBoard:
		return "CB"
	case CheckerBoardI:
		return "CBI"
	case RowStripe:
		return "RS"
	case RowStripeI:
		return "RSI"
	case ColStripe:
		return "CS"
	case ColStripeI:
		return "CSI"
	default:
		return fmt.Sprintf("DataPattern(%d)", int(p))
	}
}

// AggressorByte returns the byte written to every aggressor-row byte.
func (p DataPattern) AggressorByte() byte {
	switch p {
	case CheckerBoard:
		return 0xAA
	case CheckerBoardI:
		return 0x55
	case RowStripe:
		return 0xFF
	case RowStripeI:
		return 0x00
	case ColStripe:
		return 0x55
	case ColStripeI:
		return 0xAA
	default:
		panic("dram: unknown data pattern")
	}
}

// VictimByte returns the byte written to every victim-row byte.
func (p DataPattern) VictimByte() byte {
	switch p {
	case CheckerBoard:
		return 0x55
	case CheckerBoardI:
		return 0xAA
	case RowStripe:
		return 0x00
	case RowStripeI:
		return 0xFF
	case ColStripe:
		return 0x55
	case ColStripeI:
		return 0xAA
	default:
		panic("dram: unknown data pattern")
	}
}

// Fill writes b into every byte of buf and returns buf. It sets the first
// byte and doubles the filled prefix with copy, so an 8 KiB row takes 13
// memmoves instead of 8192 byte stores.
func Fill(buf []byte, b byte) []byte {
	if len(buf) == 0 {
		return buf
	}
	buf[0] = b
	for n := 1; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
	return buf
}
