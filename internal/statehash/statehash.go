// Package statehash provides the 128-bit incremental state fingerprint the
// simulator's steady-state detector uses to decide that the complete
// architectural state of the platform has recurred.
//
// The hash is not cryptographic; it is two independent 64-bit multiplicative
// mixes (an FNV-1a-style lane and a rotated Murmur-style lane) over a stream
// of words. What matters for the detector is that equal state streams
// always produce equal sums, so a recurring state is never missed. A sum
// only proposes a period: before any extrapolation the detector compares
// the exact word streams at both ends of it, and the counter deltas, so a
// collision costs one failed confirmation, never a wrong leap.
package statehash

import "math/bits"

const (
	offsetA = 0xcbf29ce484222325 // FNV-64 offset basis
	primeA  = 0x00000100000001b3 // FNV-64 prime
	offsetB = 0x9e3779b97f4a7c15 // golden-ratio odd constant
	primeB  = 0xc2b2ae3d27d4eb4f // xxhash64 prime 2
)

// Hash accumulates a stream of 64-bit words into a 128-bit fingerprint.
// The zero value is NOT ready to use; start from New.
type Hash struct {
	a, b uint64
}

// New returns a fresh fingerprint accumulator.
func New() Hash {
	return Hash{a: offsetA, b: offsetB}
}

// Add mixes one word into both lanes. Word order matters: Add(x); Add(y)
// and Add(y); Add(x) produce different sums, so streams must be emitted in
// a canonical order.
func (h *Hash) Add(v uint64) {
	h.a = (h.a ^ v) * primeA
	h.b = bits.RotateLeft64(h.b+v*primeB, 31) * primeA
}

// AddWords mixes a word stream, word by word in order.
func (h *Hash) AddWords(ws []uint64) {
	for _, w := range ws {
		h.Add(w)
	}
}

// Bool is a boolean as a stream word: 1 or 0.
func Bool(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Sum128 returns the two 64-bit lane sums.
func (h *Hash) Sum128() (uint64, uint64) { return h.a, h.b }

// Sum is the pair form of Sum128, convenient as a comparable map/ring key.
func (h *Hash) Sum() Sum { return Sum{h.a, h.b} }

// Sum is a comparable 128-bit fingerprint value.
type Sum struct {
	A, B uint64
}
