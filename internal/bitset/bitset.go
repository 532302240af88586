// Package bitset provides a fixed-size bitmap used as the coherence
// engine's dirty mask: 64 pixels per word instead of a byte per pixel,
// with word-at-a-time counting and run extraction. The mask is built
// between frames by a single owner and frozen at the frame barrier, so
// tile workers read it during the render phase without synchronisation.
package bitset

import "math/bits"

// Bitset is a fixed-length bitmap.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a bitset of n cleared bits.
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Get reports bit i.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i (single owner only).
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll sets every bit (a moving light dirties the whole region).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
}

// clearTail zeroes the unused bits of the last word so Count stays
// exact.
func (b *Bitset) clearTail() {
	if tail := uint(b.n) & 63; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << tail) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Runs calls yield(start, end) for every maximal run of set bits, in
// ascending order with half-open [start, end) intervals. It scans a
// word at a time, so sparse and dense masks alike cost O(words): this
// is how the dirty mask becomes the wire protocol's span list without
// visiting clean pixels.
func (b *Bitset) Runs(yield func(start, end int)) {
	runStart := -1
	for wi, w := range b.words {
		base := wi * 64
		switch w {
		case 0:
			if runStart >= 0 {
				yield(runStart, base)
				runStart = -1
			}
			continue
		case ^uint64(0):
			if runStart < 0 {
				runStart = base
			}
			continue
		}
		for bit := 0; bit < 64; {
			if runStart < 0 {
				// Skip zeros to the next set bit.
				z := bits.TrailingZeros64(w >> uint(bit))
				bit += z
				if bit >= 64 {
					break
				}
				runStart = base + bit
			} else {
				// Skip ones to the end of the run.
				o := bits.TrailingZeros64(^(w >> uint(bit)))
				bit += o
				if bit >= 64 {
					break
				}
				yield(runStart, base+bit)
				runStart = -1
			}
		}
	}
	if runStart >= 0 {
		// clearTail keeps the last word's spare bits zero, but a run that
		// reaches the final valid bit ends at n, not at the word boundary.
		end := len(b.words) * 64
		if end > b.n {
			end = b.n
		}
		yield(runStart, end)
	}
}

// Bools expands the bitset into a []bool (the public DirtyMask format).
func (b *Bitset) Bools() []bool {
	out := make([]bool, b.n)
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}
