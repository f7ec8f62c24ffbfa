package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
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
			d := a.counter[qid]
			if weakestDef < 0 || d < weakestDef || (d == weakestDef && qid < weakest) {
				weakest, weakestDef = qid, d
			}
		}
		if a.counter[id] <= weakestDef {
			return victims, 0, false
		}
		victims[n] = weakest
		n++
	}
	return victims, n, true
}

// bmaBlob grows a BMA on random requests and returns its snapshot section,
// whose last two tables are the rents and the defenses by PairID, and the
// grown instance.
func bmaBlob(t *testing.T, n, b int, model CostModel, rng *stats.Rand) ([]byte, *BMA) {
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
	return buf.Bytes(), a
}

// setF64 overwrites entry i of the float table that ends end bytes before
// the blob's end.
func setF64(blob []byte, np, end, i int, v float64) {
	off := len(blob) - end - 8*np + 8*i
	binary.LittleEndian.PutUint64(blob[off:], math.Float64bits(v))
}

// TestBMAVictimScanMatchesReference drives BMA from restored states with
// mixed defenses in [0, α] on the matching edges, ties among them, and
// mixed rents on the other pairs, and checks the victims of every request
// to an unmatched pair against the reference scan.
func TestBMAVictimScanMatchesReference(t *testing.T) {
	const n, b, alpha = 12, 3, 30.0
	model := testModel(n, alpha)
	np := trace.NumPairs(n)
	rng := stats.NewRand(31)
	defenses := []float64{0, 0, 1, 1, 2.5, 7, math.SmallestNonzeroFloat64, math.Nextafter(alpha, 0), alpha, alpha}
	checked, refused := 0, 0
	for trial := 0; trial < 30; trial++ {
		blob, grown := bmaBlob(t, n, b, model, rng)
		for id := 0; id < np; id++ {
			rent, def := float64(rng.Intn(2*alpha)), defenses[rng.Intn(len(defenses))]
			if grown.m.HasID(trace.PairID(id)) {
				rent = 0
			} else {
				def = 0
			}
			setF64(blob, np, 8*np, id, rent)
			setF64(blob, np, 0, id, def)
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
	blob, grown := bmaBlob(t, n, b, model, stats.NewRand(5))
	edge := -1
	for id := range grown.counter {
		if grown.m.HasID(trace.PairID(id)) {
			edge = id
			break
		}
	}
	if edge < 0 {
		t.Fatal("the grown BMA has no matching edge")
	}
	for _, tc := range []struct {
		def  float64
		want bool
	}{{0, true}, {math.Copysign(0, -1), false}} {
		bad := bytes.Clone(blob)
		setF64(bad, np, 0, edge, tc.def)
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

// TestBMARestoreRefusesCounterOnWrongSide: BMA keeps one counter per
// pair, its rent while unmatched and its defense while matched, so a
// snapshot that gives a matching edge rent or an unmatched pair defense
// describes no state a run reaches, and Restore refuses it. The blob as
// written restores to the same state.
func TestBMARestoreRefusesCounterOnWrongSide(t *testing.T) {
	const n, b = 10, 2
	model := testModel(n, 30)
	np := trace.NumPairs(n)
	blob, grown := bmaBlob(t, n, b, model, stats.NewRand(9))
	edge, free := -1, -1
	for id := range grown.counter {
		if grown.m.HasID(trace.PairID(id)) {
			edge = max(edge, id)
		} else {
			free = max(free, id)
		}
	}
	if edge < 0 || free < 0 {
		t.Fatalf("the grown BMA has matched pair %d, unmatched pair %d", edge, free)
	}
	restore := func(blob []byte) (*BMA, error) {
		a, err := NewBMA(n, b, model)
		if err != nil {
			t.Fatal(err)
		}
		return a, a.Restore(bytes.NewReader(blob))
	}
	a, err := restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.counter, grown.counter) {
		t.Fatal("restored counters differ from the snapshotted ones")
	}
	for _, tc := range []struct {
		name     string
		end, id  int
		value    float64
		refusing string
	}{
		{"rent on a matching edge", 8 * np, edge, 1, "on a matching edge"},
		{"defense on an unmatched pair", 0, free, 1, "on an unmatched pair"},
	} {
		bad := bytes.Clone(blob)
		setF64(bad, np, tc.end, tc.id, tc.value)
		if _, err := restore(bad); !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.refusing) {
			t.Errorf("%s: Restore err = %v, want snap.ErrCorrupt naming %q", tc.name, err, tc.refusing)
		}
	}
}
