package frame

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian selects the bulk bodies of PutFloats and GetFloats. It is
// set once, here, from how this machine lays out an integer; nothing but the
// tests, which run both bodies, writes it afterwards.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// PutFloats writes src to dst[:8·len(src)] as little-endian IEEE-754 bit
// patterns, the layout of a float64 in every payload. putFloatsGo defines
// the result; on a little-endian host the same bytes are already in memory
// and one copy moves them.
//
//distlint:hotpath
func PutFloats(dst []byte, src []float64) {
	if !hostLittleEndian || len(src) == 0 {
		putFloatsGo(dst, src)
		return
	}
	copy(dst[:len(src)*8], unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*8))
}

// GetFloats fills dst from src[:8·len(dst)], the inverse of PutFloats;
// getFloatsGo defines the result.
//
//distlint:hotpath
func GetFloats(dst []float64, src []byte) {
	if !hostLittleEndian || len(dst) == 0 {
		getFloatsGo(dst, src)
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*8), src[:len(dst)*8])
}

// putFloatsGo is the portable body and the specification of PutFloats.
func putFloatsGo(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// getFloatsGo is the portable body and the specification of GetFloats.
func getFloatsGo(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
