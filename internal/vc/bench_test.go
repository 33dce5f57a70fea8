package vc

import (
	"fmt"
	"strings"
	"testing"
)

// oldEncode and oldDecode are the pre-overhaul implementations (fmt.Sprintf
// per component joined by strings.Join; strings.Split + fmt.Sscanf per
// component), kept verbatim as the benchmark baseline and as the behavioral
// reference the pinning tests compare against.

func oldEncode(v VC) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

func oldDecode(s string) (VC, error) {
	if s == "" {
		return VC{}, nil
	}
	parts := strings.Split(s, ",")
	v := make(VC, len(parts))
	for i, p := range parts {
		var x uint64
		if _, err := fmt.Sscanf(p, "%d", &x); err != nil {
			return nil, fmt.Errorf("vc: bad component %q: %w", p, err)
		}
		v[i] = x
	}
	return v, nil
}

// TestDecodePinnedAgainstOld pins the new Decode against the old
// implementation's verdict on every input class the causal automaton can
// produce or receive: well-formed encodings (accepted, identical value) and
// the malformed frames both scanners reject. The one intentional divergence
// — the old fmt.Sscanf scanner silently tolerated trailing garbage inside a
// component ("1x" parsed as 1) — is pinned as stricter-only below.
func TestDecodePinnedAgainstOld(t *testing.T) {
	accepted := []string{
		"",
		"0",
		"1,0,2",
		"7,7,7,7,7,7,7,7",
		"18446744073709551615",         // max uint64 round-trips
		"0,18446744073709551615,12345", // mixed magnitudes
	}
	for _, in := range accepted {
		oldV, oldErr := oldDecode(in)
		newV, newErr := Decode(in)
		if oldErr != nil || newErr != nil {
			t.Errorf("Decode(%q): old err=%v new err=%v, want both nil", in, oldErr, newErr)
			continue
		}
		if !oldV.Equal(newV) || len(oldV) != len(newV) {
			t.Errorf("Decode(%q): old=%v new=%v", in, oldV, newV)
		}
	}
	rejected := []string{
		"x", "1,x,3", "1,", ",1", "1,,2", ",", "-1", "one",
		"18446744073709551616", // uint64 overflow
	}
	for _, in := range rejected {
		if _, err := oldDecode(in); err == nil {
			t.Errorf("oldDecode(%q) unexpectedly accepted (pin set wrong)", in)
		}
		if _, err := Decode(in); err == nil {
			t.Errorf("Decode(%q) accepted input the old implementation rejected", in)
		}
	}
	// Stricter-only divergence: the old scanner stopped at the first
	// non-digit and accepted the prefix; the new scanner rejects the whole
	// component. Being stricter is safe — the causal automaton treats a
	// decode error exactly like a never-deliverable frame — but it is a
	// divergence, so it is pinned explicitly.
	for _, in := range []string{"1x", "2,1x", "1 2"} {
		if _, err := oldDecode(in); err != nil {
			t.Errorf("oldDecode(%q) unexpectedly rejected (pin set wrong)", in)
		}
		if _, err := Decode(in); err == nil {
			t.Errorf("Decode(%q) should reject trailing garbage", in)
		}
	}
}

// TestEncodeMatchesOld: the new encoder emits byte-identical strings, so
// wire frames are unchanged across the overhaul.
func TestEncodeMatchesOld(t *testing.T) {
	for _, v := range []VC{{}, {0}, {1, 0, 2}, {9, 18446744073709551615, 0, 3}} {
		if got, want := v.Encode(), oldEncode(v); got != want {
			t.Errorf("Encode(%v) = %q, old = %q", v, got, want)
		}
	}
}

// clocks8 is a realistic hot-path workload: 8-process clocks with mixed
// component magnitudes, the shape every causal broadcast message carries.
var clocks8 = []VC{
	{0, 0, 0, 0, 0, 0, 0, 0},
	{1, 0, 2, 0, 17, 3, 0, 1},
	{100, 250, 99, 1024, 7, 0, 31, 12},
	{1 << 40, 3, 1 << 20, 0, 5, 77, 123456, 9},
}

// TestEncodeDecodeAllocatesLessThanOld pins the allocation win the
// overhaul was for: an Encode+Decode round trip allocates less than the
// old fmt/strings pair (3 against 34 allocs per 8-process clock).
func TestEncodeDecodeAllocatesLessThanOld(t *testing.T) {
	roundTrips := func(encode func(VC) string, decode func(string) (VC, error)) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, v := range clocks8 {
				if _, err := decode(encode(v)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	newAllocs := roundTrips(VC.Encode, Decode)
	oldAllocs := roundTrips(oldEncode, oldDecode)
	if newAllocs >= oldAllocs {
		t.Errorf("Encode+Decode allocate %v per %d clocks, the old pair %v; want fewer", newAllocs, len(clocks8), oldAllocs)
	}
}

// BenchmarkVCEncodeDecode measures one encode+decode round trip per op —
// the per-message cost the causal automaton pays on the wire path. The
// "old" sub-benchmark runs the pre-overhaul fmt/strings implementation,
// "new" the strconv.AppendUint + index-scanning one. The recorded figures
// (history) came from `go test -run '^$' -bench 'BenchmarkVCEncodeDecode$'
// -benchmem ./internal/vc`; ksabench measures the repository end to end.
func BenchmarkVCEncodeDecode(b *testing.B) {
	b.Run("old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := oldEncode(clocks8[i%len(clocks8)])
			if _, err := oldDecode(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := clocks8[i%len(clocks8)].Encode()
			if _, err := Decode(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
