package main

import (
	"bytes"
	"fmt"
	"testing"

	"surfcomm"
)

// render prints generated inputs as bytes, so generators compare byte
// for byte.
func render(v any) []byte { return []byte(fmt.Sprintf("%v", v)) }

func TestZipfOrderIsSeededWithAFixedMix(t *testing.T) {
	a := zipfOrder(7, 16, zipfS, zipfBlockN, 4)
	b := zipfOrder(7, 16, zipfS, zipfBlockN, 4)
	c := zipfOrder(8, 16, zipfS, zipfBlockN, 4)
	if !bytes.Equal(render(a), render(b)) {
		t.Fatal("same seed gave different orders")
	}
	if bytes.Equal(render(a), render(c)) {
		t.Fatal("different seeds gave the same order")
	}
	want := zipfBlock(16, zipfS, zipfBlockN)
	for blk := 0; blk < 4; blk++ {
		counts := make([]int, 16)
		for _, k := range a[blk*zipfBlockN : (blk+1)*zipfBlockN] {
			counts[k]++
		}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Errorf("block %d mix %v, want %v", blk, counts, want)
		}
	}
	for k := 1; k < len(want); k++ {
		if want[k] > want[k-1] {
			t.Errorf("rank %d more frequent than rank %d: %v", k, k-1, want)
		}
	}
}

func TestEditRotationIsSeededAndNeverRepeats(t *testing.T) {
	base, err := surfcomm.PipelineProgram(editStages)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) [][]byte {
		r := newEditRotation(seed, stageNames(base))
		var out [][]byte
		for i := 0; i < 40; i++ {
			_, _, body, err := r.request(base, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
		return out
	}
	a, b, c := stream(3), stream(3), stream(4)
	seen := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("edit %d differs for one seed", i)
		}
		if seen[string(a[i])] {
			t.Fatalf("edit %d repeats an earlier request", i)
		}
		seen[string(a[i])] = true
	}
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
		t.Fatal("different seeds gave the same edit stream")
	}
}

func TestSyndromeStreamIsSeeded(t *testing.T) {
	l, err := surfcomm.NewDecoderLattice(9)
	if err != nil {
		t.Fatal(err)
	}
	a := newSyndromeStream(11, l, 400, decodeP)
	b := newSyndromeStream(11, l, 400, decodeP)
	c := newSyndromeStream(12, l, 400, decodeP)
	if !bytes.Equal(render(a), render(b)) {
		t.Fatal("same seed gave different syndromes")
	}
	if bytes.Equal(render(a), render(c)) {
		t.Fatal("different seeds gave the same syndromes")
	}
	// The final round is the syndrome of the accumulated errors.
	if fmt.Sprint(a.rounds[len(a.rounds)-1]) != fmt.Sprint(l.Syndrome(a.errs)) {
		t.Fatal("last round is not the syndrome of the final error pattern")
	}
}

func TestSessionInputsCycleTheSpecs(t *testing.T) {
	s, err := sessionInputs(5, 2*len(sessionSpecs))
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range s {
		if x.spec != sessionSpecs[k%len(sessionSpecs)] || len(x.in.rounds) != sessionRounds {
			t.Errorf("session %d: %v with %d rounds", k, x.spec, len(x.in.rounds))
		}
	}
}
