package deg

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"archexplorer/internal/uarch"
)

// refSort is the explicit (time, VertexID) comparison topoOrder must match.
func refSort(verts []VertexID, time func(VertexID) int64) []VertexID {
	out := append([]VertexID(nil), verts...)
	sort.Slice(out, func(i, j int) bool {
		ti, tj := time(out[i]), time(out[j])
		if ti != tj {
			return ti < tj
		}
		return out[i] < out[j]
	})
	return out
}

// topoSort runs topoOrder the way constructInto feeds it — vertices in
// ascending ID order with their stamps — on fresh buffers, which it
// returns so callers can tell which sort ran.
func topoSort(verts []VertexID, time func(VertexID) int64) ([]VertexID, *buffers) {
	in := slices.Clone(verts)
	slices.Sort(in)
	times := make([]int64, len(in))
	for i, v := range in {
		times[i] = time(v)
	}
	b := new(buffers)
	return topoOrder(in, times, b), b
}

// xorshift is a tiny deterministic PRNG for synthetic vertex sets.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func checkOrder(t *testing.T, got, want []VertexID, time func(VertexID) int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("order has %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got v=%d t=%d, want v=%d t=%d",
				i, got[i], time(got[i]), want[i], time(want[i]))
		}
	}
}

// TestTopoOrderMatchesReference is the property test of the topological
// order: on random vertex sets it must equal the reference (time,
// VertexID) sort in every regime — narrow time ranges and many equal
// stamps (counting sort), ranges wide enough to take the packed-key
// fallback, and stamps at or past 1<<32 on both a narrow range (counting
// sort, offset by the minimum) and a range too wide to pack (explicit
// comparison). The last regime is the one the old 24-bit packing got
// wrong.
func TestTopoOrderMatchesReference(t *testing.T) {
	const (
		counting = iota
		packed
		explicit
	)
	cases := []struct {
		name   string
		stamp  func(rng *xorshift, n int) int64
		regime int
	}{
		{"narrow", func(r *xorshift, n int) int64 { return 1000 + int64(r.next()%uint64(n/2+1)) }, counting},
		{"equal-stamps", func(r *xorshift, n int) int64 { return 7 + int64(r.next()%2) }, counting},
		{"wide", func(r *xorshift, n int) int64 { return int64(r.next() % uint64(1000*n)) }, packed},
		{"past-32-bits-narrow", func(r *xorshift, n int) int64 { return 1<<32 + int64(r.next()%5) }, counting},
		{"past-32-bits-wide", func(r *xorshift, n int) int64 { return int64(r.next() % (1 << 40)) }, explicit},
	}
	rng := xorshift(2024)
	for _, tc := range cases {
		for _, n := range []int{1, 2, 17, 500, 4096} {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				times := make(map[VertexID]int64, n)
				verts := make([]VertexID, 0, n)
				for len(verts) < n {
					v := VertexID(rng.next() % (1 << 30))
					if _, dup := times[v]; dup {
						continue
					}
					times[v] = tc.stamp(&rng, n)
					verts = append(verts, v)
				}
				timeOf := func(v VertexID) int64 { return times[v] }
				got, b := topoSort(verts, timeOf)
				checkOrder(t, got, refSort(verts, timeOf), timeOf)
				if n < 17 {
					return // tiny sets may land in any regime
				}
				switch {
				case tc.regime == counting && len(b.count) == 0,
					tc.regime == packed && len(b.keys) == 0,
					tc.regime == explicit && (len(b.count) != 0 || len(b.keys) != 0):
					t.Fatalf("regime %d not taken (count %d, keys %d)", tc.regime, len(b.count), len(b.keys))
				}
			})
		}
	}
}

// TestTopoSortBeyond24Bits is the regression test for the old packing
// (time<<24 | id, unpacked with &0xffffff): vertex IDs at and past 1<<24
// were truncated, silently corrupting the topological order for traces
// beyond ~2M records. The fixture straddles the 24-bit boundary with
// colliding times so the truncation would both misorder and alias vertices.
func TestTopoSortBeyond24Bits(t *testing.T) {
	const n = 4096
	rng := xorshift(12345)
	verts := make([]VertexID, 0, n)
	times := make(map[VertexID]int64, n)
	for i := 0; i < n; i++ {
		// Half below the 24-bit boundary, half above it.
		v := VertexID(rng.next() % (1 << 23))
		if i%2 == 1 {
			v += 1 << 24
		}
		if _, dup := times[v]; dup {
			continue
		}
		// Few distinct times, so ties force ordering by vertex ID — the
		// axis the truncation corrupted.
		times[v] = int64(rng.next() % 7)
		verts = append(verts, v)
	}
	timeOf := func(v VertexID) int64 { return times[v] }

	got, _ := topoSort(verts, timeOf)
	checkOrder(t, got, refSort(verts, timeOf), timeOf)
}

// TestTopoSortTimeOverflowFallback drives stamps past 1<<32 across a range
// too wide for the packed key; topoOrder must detect this and fall back to
// the explicit comparison.
func TestTopoSortTimeOverflowFallback(t *testing.T) {
	const n = 512
	rng := xorshift(99)
	verts := make([]VertexID, 0, n)
	times := make(map[VertexID]int64, n)
	for i := 0; i < n; i++ {
		v := VertexID(rng.next() % (1 << 30))
		if _, dup := times[v]; dup {
			continue
		}
		// Colliding stamps at both ends of a range past the packing limit.
		times[v] = int64(i%2)<<33 + int64(rng.next()%5)
		verts = append(verts, v)
	}
	timeOf := func(v VertexID) int64 { return times[v] }

	got, b := topoSort(verts, timeOf)
	checkOrder(t, got, refSort(verts, timeOf), timeOf)
	if len(b.count) != 0 || len(b.keys) != 0 {
		t.Fatal("a range past 1<<32 cycles must take the explicit comparison")
	}
}

// TestMergeAbsoluteFieldsWeighted pins the documented Merge invariants: a
// merge of identical reports reproduces the report (not a sum), and for
// equal-length inputs Contrib[r] == DelayByRes[r]/L up to rounding.
func TestMergeAbsoluteFieldsWeighted(t *testing.T) {
	mk := func(l int64, delays map[uarch.Resource]int64) *Report {
		r := &Report{L: l}
		var attributed int64
		for res, d := range delays {
			r.DelayByRes[res] = d
			r.Contrib[res] = float64(d) / float64(l)
			r.EdgeCount[res] = 1
			attributed += d
		}
		r.Base = 1 - float64(attributed)/float64(l)
		return r
	}

	a := mk(1000, map[uarch.Resource]int64{uarch.ResROB: 300, uarch.ResIQ: 100})
	same, err := Merge([]*Report{a, a, a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.L != a.L {
		t.Fatalf("identical merge L = %d, want %d (sum bug)", same.L, a.L)
	}
	for _, res := range uarch.Resources() {
		if same.DelayByRes[res] != a.DelayByRes[res] {
			t.Fatalf("%s: identical merge delay %d, want %d", res, same.DelayByRes[res], a.DelayByRes[res])
		}
	}

	// Equal-length inputs with unequal weights: the ratio view must agree
	// with the Equation-2 view.
	b := mk(1000, map[uarch.Resource]int64{uarch.ResROB: 500, uarch.ResDCache: 200})
	m, err := Merge([]*Report{a, b}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range uarch.Resources() {
		wantContrib := 0.25*a.Contrib[res] + 0.75*b.Contrib[res]
		if d := m.Contrib[res] - wantContrib; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%s: Contrib %v, want %v", res, m.Contrib[res], wantContrib)
		}
		ratio := float64(m.DelayByRes[res]) / float64(m.L)
		if d := ratio - wantContrib; d > 1e-3 || d < -1e-3 {
			t.Fatalf("%s: DelayByRes/L = %v inconsistent with Contrib %v", res, ratio, wantContrib)
		}
	}
	if m.L != 1000 {
		t.Fatalf("merged L = %d, want 1000", m.L)
	}
}
