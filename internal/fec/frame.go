package fec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Interleaver is the 802.11-style two-permutation block interleaver.
// It operates on one OFDM symbol's worth of coded bits (ncbps bits
// spread over columns so adjacent coded bits map to non-adjacent
// subcarriers and alternate constellation bit significance).
type Interleaver struct {
	ncbps int // coded bits per OFDM symbol
	nbpsc int // coded bits per subcarrier (constellation bits)
	perm  []int
	inv   []int
}

// NewInterleaver builds an interleaver for ncbps coded bits per symbol
// carrying nbpsc bits per subcarrier. ncbps must be a multiple of both
// 16 and nbpsc.
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || nbpsc <= 0 || ncbps%nbpsc != 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("fec: invalid interleaver geometry ncbps=%d nbpsc=%d", ncbps, nbpsc)
	}
	it := &Interleaver{ncbps: ncbps, nbpsc: nbpsc}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	it.perm = make([]int, ncbps)
	it.inv = make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		// First permutation: write row-wise, read column-wise over 16
		// columns.
		i := (ncbps/16)*(k%16) + k/16
		// Second permutation: rotate bit positions within a
		// subcarrier's group so adjacent bits alternate significance.
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		it.perm[k] = j
		it.inv[j] = k
	}
	return it, nil
}

// BlockSize returns the number of bits the interleaver permutes.
func (it *Interleaver) BlockSize() int { return it.ncbps }

// Interleave permutes one block of exactly BlockSize bits.
func (it *Interleaver) Interleave(dst, src []byte) ([]byte, error) {
	if len(src) != it.ncbps {
		return nil, fmt.Errorf("fec: interleave block is %d bits, want %d", len(src), it.ncbps)
	}
	if dst == nil {
		dst = make([]byte, it.ncbps)
	}
	for k, j := range it.perm {
		dst[j] = src[k]
	}
	return dst, nil
}

// Deinterleave inverts Interleave.
func (it *Interleaver) Deinterleave(dst, src []byte) ([]byte, error) {
	if len(src) != it.ncbps {
		return nil, fmt.Errorf("fec: deinterleave block is %d bits, want %d", len(src), it.ncbps)
	}
	if dst == nil {
		dst = make([]byte, it.ncbps)
	}
	for j, k := range it.inv {
		dst[k] = src[j]
	}
	return dst, nil
}

// DeinterleaveSoft inverts Interleave over per-bit soft values.
func (it *Interleaver) DeinterleaveSoft(dst, src []float64) ([]float64, error) {
	if len(src) != it.ncbps {
		return nil, fmt.Errorf("fec: deinterleave block is %d values, want %d", len(src), it.ncbps)
	}
	if dst == nil {
		dst = make([]float64, it.ncbps)
	}
	for j, k := range it.inv {
		dst[k] = src[j]
	}
	return dst, nil
}

// Scramble applies the 802.11 length-127 frame-synchronous scrambler
// (x^7 + x^4 + 1) with the given 7-bit seed, in place over bits, and
// returns bits. Scrambling is an involution: applying it twice with
// the same seed restores the input.
func Scramble(bits []byte, seed byte) []byte {
	state := int(seed & 0x7f)
	if state == 0 {
		state = 0x7f // the all-zero state would stall the LFSR
	}
	for i := range bits {
		fb := byte((state>>6)^(state>>3)) & 1
		bits[i] ^= fb
		state = (state<<1 | int(fb)) & 0x7f
	}
	return bits
}

// CRC32 computes the IEEE CRC-32 over data bits (one bit per byte) by
// packing them MSB-first into bytes; ragged tails are zero-padded.
//
// The packing feeds a byte-at-a-time update over crc32.IEEETable
// directly, with no packed buffer: crc32.Update dispatches through a
// function value, so any buffer handed to it — even a fixed stack
// chunk — escapes to the heap.
//
//geolint:noalloc
func CRC32(bits []byte) uint32 {
	tab := crc32.IEEETable
	crc := ^uint32(0)
	for len(bits) >= 8 {
		// Branch-free pack: keep each byte's low bit, then one multiply
		// gathers bit i of the little-endian word into bit 7−i of the
		// top byte (the partial products never overlap, so no carries).
		x := binary.LittleEndian.Uint64(bits) & 0x0101010101010101
		crc = tab[byte(crc)^byte(x*0x8040201008040201>>56)] ^ crc>>8
		bits = bits[8:]
	}
	if len(bits) > 0 {
		var v byte
		for i, b := range bits {
			v |= (b & 1) << (7 - i)
		}
		crc = tab[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// AppendCRC appends the 32 CRC bits (MSB first) to bits.
func AppendCRC(bits []byte) []byte {
	return AppendCRCTo(make([]byte, 0, len(bits)+32), bits)
}

// AppendCRCTo appends bits followed by their 32 CRC bits (MSB first)
// onto caller-owned dst, so encode loops reuse one info buffer across
// blocks. It returns dst.
func AppendCRCTo(dst, bits []byte) []byte {
	c := CRC32(bits)
	dst = append(dst, bits...)
	for i := 31; i >= 0; i-- {
		dst = append(dst, byte(c>>uint(i))&1)
	}
	return dst
}

// CheckCRC verifies and strips a trailing 32-bit CRC, returning the
// payload bits and whether the check passed.
func CheckCRC(bits []byte) ([]byte, bool) {
	if len(bits) < 32 {
		return nil, false
	}
	payload := bits[:len(bits)-32]
	var got uint32
	for _, b := range bits[len(bits)-32:] {
		got = got<<1 | uint32(b&1)
	}
	return payload, got == CRC32(payload)
}

// InterleaveSoft applies the forward permutation to soft values, the
// float counterpart of Interleave used on decoder feedback.
func (it *Interleaver) InterleaveSoft(dst, src []float64) ([]float64, error) {
	if len(src) != it.ncbps {
		return nil, fmt.Errorf("fec: interleave block is %d values, want %d", len(src), it.ncbps)
	}
	if dst == nil {
		dst = make([]float64, it.ncbps)
	}
	for k, j := range it.perm {
		dst[j] = src[k]
	}
	return dst, nil
}
