package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"obm/internal/snap"
	"obm/internal/stats"
	"obm/internal/trace"
)

// refFindVictims is BMA's victim scan as it read before it became
// branch-free, kept as the reference: a "no minimum yet" sentinel and a
// float comparison with a pair-id tie-break per incident edge.
func refFindVictims(a *BMA, id trace.PairID, u, v int) (victims [2]trace.PairID, n int, ok bool) {
	for _, w := range [2]int{u, v} {
		if a.m.Free(w) > 0 {
			continue
		}
		weakest := trace.NoPair
		weakestDef := -1.0
		for _, qid := range a.m.IncidentIDs(w) {
			d := a.defense[qid]
			if weakestDef < 0 || d < weakestDef || (d == weakestDef && qid < weakest) {
				weakest, weakestDef = qid, d
			}
		}
		if a.rent[id] <= weakestDef {
			return victims, 0, false
		}
		victims[n] = weakest
		n++
	}
	return victims, n, true
}

// bmaBlob grows a BMA on random requests and returns its snapshot section,
// whose last two tables are the rents and the defenses by PairID.
func bmaBlob(t *testing.T, n, b int, model CostModel, rng *stats.Rand) []byte {
	t.Helper()
	a, err := NewBMA(n, b, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			a.Serve(u, v)
		}
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setF64 overwrites entry i of the float table that ends end bytes before
// the blob's end.
func setF64(blob []byte, np, end, i int, v float64) {
	off := len(blob) - end - 8*np + 8*i
	binary.LittleEndian.PutUint64(blob[off:], math.Float64bits(v))
}

// TestBMAVictimScanMatchesReference drives BMA from restored states with
// mixed defenses in [0, α], ties among them, and mixed rents, and checks
// the victims of every request to an unmatched pair against the reference
// scan.
func TestBMAVictimScanMatchesReference(t *testing.T) {
	const n, b, alpha = 12, 3, 30.0
	model := testModel(n, alpha)
	np := trace.NumPairs(n)
	rng := stats.NewRand(31)
	defenses := []float64{0, 0, 1, 1, 2.5, 7, math.SmallestNonzeroFloat64, math.Nextafter(alpha, 0), alpha, alpha}
	checked, refused := 0, 0
	for trial := 0; trial < 30; trial++ {
		blob := bmaBlob(t, n, b, model, rng)
		for id := 0; id < np; id++ {
			setF64(blob, np, 8*np, id, float64(rng.Intn(2*alpha)))
			setF64(blob, np, 0, id, defenses[rng.Intn(len(defenses))])
		}
		a, err := NewBMA(n, b, model)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Restore(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			u, v = min(u, v), max(u, v)
			if id := a.idx.ID(u, v); !a.m.HasID(id) {
				gv, gn, gok := a.findVictims(id, u, v)
				wv, wn, wok := refFindVictims(a, id, u, v)
				if gok != wok || !slices.Equal(gv[:gn], wv[:wn]) {
					t.Fatalf("trial %d, request %d {%d,%d}: victims %v ok=%v, reference %v ok=%v",
						trial, i, u, v, gv[:gn], gok, wv[:wn], wok)
				}
				checked++
				if !gok {
					refused++
				}
			}
			a.Serve(u, v)
		}
		if err := CheckDegreeInvariant(a); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 || refused == 0 || refused == checked {
		t.Fatalf("%d scans checked, %d refused: the states did not exercise both outcomes", checked, refused)
	}
}

// TestBMARestoreRefusesNegativeZeroDefense: −0 orders above every positive
// defense bitwise, so a restored −0 would change the victim scan's choice;
// no run produces one, and Restore refuses it.
func TestBMARestoreRefusesNegativeZeroDefense(t *testing.T) {
	const n, b = 10, 2
	model := testModel(n, 30)
	np := trace.NumPairs(n)
	blob := bmaBlob(t, n, b, model, stats.NewRand(5))
	for _, tc := range []struct {
		def  float64
		want bool
	}{{0, true}, {math.Copysign(0, -1), false}} {
		bad := bytes.Clone(blob)
		setF64(bad, np, 0, 3, tc.def)
		a, err := NewBMA(n, b, model)
		if err != nil {
			t.Fatal(err)
		}
		err = a.Restore(bytes.NewReader(bad))
		if tc.want && err != nil {
			t.Fatalf("defense %v refused: %v", tc.def, err)
		}
		if !tc.want && !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("defense −0 restored (err %v)", err)
		}
	}
}
