package model

import (
	"runtime"
	"testing"
)

func mkStep(i int) Step {
	return Step{Proc: ProcID(i%5 + 1), Kind: KindInternal, Msg: MsgID(i)}
}

func TestStepBufferAppendAtLen(t *testing.T) {
	var b StepBuffer
	const n = 3*chunkSize + 17 // cross several chunk boundaries
	for i := 0; i < n; i++ {
		b.Append(mkStep(i))
		if b.Len() != i+1 {
			t.Fatalf("Len = %d after %d appends", b.Len(), i+1)
		}
	}
	for _, i := range []int{0, 1, chunkSize - 1, chunkSize, 2*chunkSize + 5, n - 1} {
		if got := b.At(i); got != mkStep(i) {
			t.Errorf("At(%d) = %+v, want %+v", i, got, mkStep(i))
		}
	}
}

func TestStepBufferAtPanicsOutOfRange(t *testing.T) {
	var b StepBuffer
	b.Append(mkStep(0))
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on len-1 buffer did not panic", i)
				}
			}()
			b.At(i)
		}()
	}
}

func TestStepBufferAppendToIncremental(t *testing.T) {
	var b StepBuffer
	var dst []Step
	total := 0
	// Materialize at irregular boundaries, including mid-chunk and
	// zero-growth calls, and check the canonical slice matches throughout.
	for _, grow := range []int{0, 1, chunkSize - 1, 3, 2 * chunkSize, 0, 7} {
		for i := 0; i < grow; i++ {
			b.Append(mkStep(total + i))
		}
		total += grow
		dst = b.AppendTo(dst)
		if len(dst) != total {
			t.Fatalf("after growth to %d: len(dst) = %d", total, len(dst))
		}
		for i, s := range dst {
			if s != mkStep(i) {
				t.Fatalf("dst[%d] = %+v, want %+v", i, s, mkStep(i))
			}
		}
	}
	// Steps() is an independent exact-size materialization.
	all := b.Steps()
	if len(all) != total || cap(all) != total {
		t.Errorf("Steps(): len=%d cap=%d, want both %d", len(all), cap(all), total)
	}
}

func TestStepBufferAppendToRejectsLongerDst(t *testing.T) {
	var b StepBuffer
	b.Append(mkStep(0))
	defer func() {
		if recover() == nil {
			t.Error("AppendTo with over-long dst did not panic")
		}
	}()
	b.AppendTo(make([]Step, 2))
}

// TestStepBufferGrowthPoints crosses each place the first chunk regrows
// (32 → 64 → … → 1024 steps) and the first full-chunk boundary, checking
// At, whole and incremental AppendTo, and the chunk layout the binary
// trace format's blocks align with: chunk i holds steps
// [i·chunkSize, (i+1)·chunkSize), and only chunk 0 starts below full size.
func TestStepBufferGrowthPoints(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025, 2*chunkSize + 1} {
		var b StepBuffer
		var inc []Step
		for i := 0; i < n; i++ {
			b.Append(mkStep(i))
			if i%31 == 0 { // materialize at irregular points along the way
				inc = b.AppendTo(inc)
			}
		}
		inc = b.AppendTo(inc)
		whole := b.AppendTo(nil)
		if len(inc) != n || len(whole) != n {
			t.Fatalf("n=%d: incremental AppendTo len %d, whole AppendTo len %d", n, len(inc), len(whole))
		}
		for i := 0; i < n; i++ {
			want := mkStep(i)
			if got := b.At(i); got != want {
				t.Fatalf("n=%d: At(%d) = %+v, want %+v", n, i, got, want)
			}
			if inc[i] != want || whole[i] != want {
				t.Fatalf("n=%d: AppendTo step %d = %+v / %+v, want %+v", n, i, inc[i], whole[i], want)
			}
		}
		if want := (n + chunkSize - 1) / chunkSize; len(b.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(b.chunks), want)
		}
		for c, chunk := range b.chunks {
			full := min(n-c*chunkSize, chunkSize)
			if len(chunk) != full {
				t.Errorf("n=%d: chunk %d holds %d steps, want %d", n, c, len(chunk), full)
			}
			if c > 0 && cap(chunk) != chunkSize {
				t.Errorf("n=%d: chunk %d has capacity %d, want %d", n, c, cap(chunk), chunkSize)
			}
		}
		// The first chunk doubles from firstChunkCap: its capacity is the
		// smallest such power that holds what it records.
		want := firstChunkCap
		for want < len(b.chunks[0]) {
			want *= 2
		}
		if got := cap(b.chunks[0]); got != want {
			t.Errorf("n=%d: first chunk capacity %d, want %d", n, got, want)
		}
	}
}

// TestStepBufferAllocatesLessThanAppend: recording 100k steps and then
// materializing them once allocates fewer bytes than growing one []Step
// through append, whose abandoned backing arrays the buffer avoids (about
// 19 MB against 51 MB).
func TestStepBufferAllocatesLessThanAppend(t *testing.T) {
	const steps = 100_000
	var naiveSteps, chunkedSteps []Step
	naive := allocatedBytes(func() {
		for i := 0; i < steps; i++ {
			naiveSteps = append(naiveSteps, mkStep(i))
		}
	})
	chunked := allocatedBytes(func() {
		var b StepBuffer
		for i := 0; i < steps; i++ {
			b.Append(mkStep(i))
		}
		chunkedSteps = b.Steps()
	})
	if len(naiveSteps) != steps || len(chunkedSteps) != steps {
		t.Fatalf("recorded %d and %d steps, want %d", len(naiveSteps), len(chunkedSteps), steps)
	}
	if chunked >= naive {
		t.Errorf("StepBuffer allocated %d bytes for %d steps, append %d; want fewer", chunked, steps, naive)
	}
}

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStepBufferResetReusesChunks: a reset buffer reads as empty, refills
// with new steps that read back correctly across chunk boundaries, and
// allocates nothing while it refills to its old length.
func TestStepBufferResetReusesChunks(t *testing.T) {
	var b StepBuffer
	const n = 3*chunkSize + 17
	for i := 0; i < n; i++ {
		b.Append(mkStep(i))
	}
	old := b.Steps()
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Reset", b.Len())
	}
	for i := 0; i < n; i++ {
		b.Append(mkStep(n + i))
	}
	got := b.AppendTo(nil)
	for i, s := range got {
		if s != mkStep(n+i) {
			t.Fatalf("step %d after Reset = %+v, want %+v", i, s, mkStep(n+i))
		}
	}
	if len(got) != n || b.At(n-1) != mkStep(2*n-1) {
		t.Fatalf("refilled buffer holds %d steps, last %+v", len(got), b.At(n-1))
	}
	if old[chunkSize] != mkStep(chunkSize) {
		t.Error("Reset changed a slice Steps returned before it")
	}
	allocs := testing.AllocsPerRun(10, func() {
		b.Reset()
		for i := 0; i < n; i++ {
			b.Append(mkStep(i))
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a reset buffer allocated %v times, want 0", allocs)
	}
}
