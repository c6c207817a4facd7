package main

import (
	"reflect"
	"testing"
)

func TestSeedGivesSameInputs(t *testing.T) {
	for _, name := range []string{wlStallHeavy, wlCommitDense} {
		w := batchWorkloads[name]
		if a, b := batchCells(w, 7), batchCells(w, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two cell orders", name)
		}
		if reflect.DeepEqual(batchCells(w, 7), batchCells(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same cell order", name)
		}
		if got := len(batchCells(w, 7)); got != traceSeedsPerRun*len(w.Apps)*len(matrixModels()) {
			t.Errorf("%s: %d cells, want every trace seed × app × model", name, got)
		}
	}
	if !reflect.DeepEqual(catalogue(), catalogue()) {
		t.Error("the grid catalogue is not fixed")
	}
	for c := 0; c < svcClients; c++ {
		if !reflect.DeepEqual(walk(3, c), walk(3, c)) {
			t.Errorf("client %d: seed 3 gave two grid sequences", c)
		}
		if reflect.DeepEqual(walk(3, c), walk(4, c)) {
			t.Errorf("client %d: seeds 3 and 4 gave the same grid sequence", c)
		}
	}
	if !reflect.DeepEqual(batchTraceSeeds(5), batchTraceSeeds(5)) || svcGridSeed(5) != svcGridSeed(5) {
		t.Error("seed maps are not functions")
	}
}

func TestSeedPoolsAreCovered(t *testing.T) {
	for _, s := range []int64{-3, 0, 1, 15, 16, 1 << 40} {
		seen := map[int64]bool{}
		for _, ts := range batchTraceSeeds(s) {
			if ts < 1 || ts > traceSeedPool || seen[ts] {
				t.Errorf("batchTraceSeeds(%d) = %v: want distinct seeds in [1, %d]", s, batchTraceSeeds(s), traceSeedPool)
			}
			seen[ts] = true
		}
		if gs := svcGridSeed(s); gs < 1 || gs > svcSeedPool {
			t.Errorf("svcGridSeed(%d) = %d, outside [1, %d]", s, gs, svcSeedPool)
		}
	}
}

func TestWalkShape(t *testing.T) {
	seen := map[int]int{}
	repeats, total := 0, 0
	for c := 0; c < svcClients; c++ {
		ran := map[[2]int]bool{}
		for _, st := range walk(11, c) {
			total++
			if st.Family%svcClients != c {
				t.Fatalf("client %d walks family %d of another client", c, st.Family)
			}
			key := [2]int{st.Family, st.Variant}
			if st.Repeat {
				repeats++
				if !ran[key] {
					t.Fatalf("client %d repeats grid %s before running it", c, st.gridID())
				}
			} else {
				seen[st.Family]++
			}
			ran[key] = true
		}
	}
	if len(seen) != svcFamilies {
		t.Errorf("walks cover %d families, want %d", len(seen), svcFamilies)
	}
	if share := float64(repeats) / float64(total); share < 0.25 || share > 0.42 {
		t.Errorf("repeat share %.2f, want about one third", share)
	}
}

func TestCatalogueGridsAreValid(t *testing.T) {
	for f, fam := range catalogue() {
		prev := 0
		for v, g := range fam {
			g.Seed = 1
			cells, err := g.Expand()
			if err != nil {
				t.Fatalf("%s: %v", step{Family: f, Variant: v}.gridID(), err)
			}
			if len(g.Models) < 2 || len(g.Models) > 3 || len(g.Workloads) < 2 || len(g.Workloads) > 3 {
				t.Errorf("%s: %d models × %d workloads, want 2–3 of each",
					step{Family: f, Variant: v}.gridID(), len(g.Models), len(g.Workloads))
			}
			if len(cells) < prev {
				t.Errorf("%s: a refinement shrank the grid", step{Family: f, Variant: v}.gridID())
			}
			prev = len(cells)
		}
	}
}
