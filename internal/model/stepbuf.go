package model

// StepBuffer accumulates the steps of a growing execution in fixed-size
// chunks. A plain []Step grows by realloc-and-copy: recording a 100k-step
// trace through append copies every step several times over and leaves a
// trail of abandoned backing arrays roughly 4× the final size. Past its
// first chunk the buffer never moves a step once written — each later
// chunk is allocated once, at full size, and filled in place. The first
// chunk starts at firstChunkCap steps and doubles up to chunkSize, so a
// short run (most runs the proof machinery makes are a few dozen to a few
// hundred steps) allocates in proportion to what it records rather than a
// whole chunk up front; the doubling copies fewer than chunkSize steps in
// total. Materializing a contiguous []Step (for the readers that index
// executions directly) is a single exactly-sized allocation plus one copy,
// paid only when a reader actually asks.
//
// The zero value is an empty buffer ready for use. Reset empties it and
// keeps its chunks, so a buffer refilled to its old length allocates
// nothing. A StepBuffer is not safe for concurrent use; callers that share
// one across goroutines (the concurrent runtime's recorder) serialize
// access themselves.
type StepBuffer struct {
	// Step i lives at chunks[i/chunkSize][i%chunkSize]: the chunks before
	// the one holding step n-1 are full, and the chunks after it are
	// empty ones that Reset kept for reuse. Only chunks[0] may have a
	// capacity below chunkSize.
	chunks [][]Step
	n      int
}

// chunkSize is the number of steps per chunk: 1024 steps ≈ 96 KiB per
// chunk, large enough to amortize allocation on long runs.
const chunkSize = 1024

// firstChunkCap is the initial capacity of the first chunk: 32 steps ≈
// 3 KiB.
const firstChunkCap = 32

// ChunkSteps exposes the chunk size so downstream encoders (the binary
// trace wire format blocks its steps identically) can align their block
// boundaries with the buffer's chunk boundaries.
const ChunkSteps = chunkSize

// Append adds one step at the end of the buffer and returns a pointer to
// the stored copy. The pointer is valid until the next Append or Reset,
// which may move the first chunk.
func (b *StepBuffer) Append(s Step) *Step {
	c := b.n / chunkSize
	switch {
	case c == len(b.chunks):
		size := chunkSize
		if c == 0 {
			size = firstChunkCap
		}
		b.chunks = append(b.chunks, make([]Step, 0, size))
	case len(b.chunks[c]) == cap(b.chunks[c]):
		// Only the first chunk can be full below chunkSize: double it.
		grown := make([]Step, len(b.chunks[c]), min(2*cap(b.chunks[c]), chunkSize))
		copy(grown, b.chunks[c])
		b.chunks[c] = grown
	}
	b.chunks[c] = append(b.chunks[c], s)
	b.n++
	return &b.chunks[c][len(b.chunks[c])-1]
}

// Reset empties the buffer and keeps its chunks for the steps appended
// next. Steps read out earlier through At, AppendTo or Steps are copies,
// so they stay valid.
func (b *StepBuffer) Reset() {
	for i := range b.chunks {
		b.chunks[i] = b.chunks[i][:0]
	}
	b.n = 0
}

// Len returns the number of buffered steps.
func (b *StepBuffer) Len() int { return b.n }

// At returns step i (0-based). It panics when i is out of range, matching
// slice indexing.
func (b *StepBuffer) At(i int) Step {
	if i < 0 || i >= b.n {
		panic("model: StepBuffer index out of range")
	}
	return b.chunks[i/chunkSize][i%chunkSize]
}

// AppendTo copies the steps dst does not yet hold — those at indices
// len(dst)..Len()-1 — onto dst and returns the result. When dst lacks
// capacity it is reallocated once, exactly sized, so repeated calls against
// a growing buffer (the runtime materializes its execution at phase
// boundaries) copy each step into the canonical slice at most once per
// materialization, never through append's geometric over-allocation.
func (b *StepBuffer) AppendTo(dst []Step) []Step {
	if len(dst) > b.n {
		panic("model: StepBuffer.AppendTo on a destination longer than the buffer")
	}
	if cap(dst) < b.n {
		grown := make([]Step, len(dst), b.n)
		copy(grown, dst)
		dst = grown
	}
	for len(dst) < b.n {
		i := len(dst)
		dst = append(dst, b.chunks[i/chunkSize][i%chunkSize:]...)
	}
	return dst
}

// Steps materializes the whole buffer as a fresh, exactly-sized slice.
func (b *StepBuffer) Steps() []Step {
	return b.AppendTo(make([]Step, 0, b.n))
}
