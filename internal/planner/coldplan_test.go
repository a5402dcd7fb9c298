package planner_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/genmat"
	"repro/internal/planner"
	"repro/internal/spmat"
)

// Every candidate's step breakdown is its own: full to its capacity, so an
// append by a caller copies it rather than writing into the next
// candidate's steps.
func TestCandidateStepsAreTheirOwn(t *testing.T) {
	a, b := pairFor(kmersTiny())
	pl, err := planner.New(a, b, planner.Input{P: 64, Machine: testMachine(), Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pl.Candidates {
		c := &pl.Candidates[i]
		if len(c.Steps) != cap(c.Steps) {
			t.Fatalf("candidate %d (%v): %d steps with room for %d", i, c.Config, len(c.Steps), cap(c.Steps))
		}
	}
	next := pl.Candidates[1].Steps[0]
	_ = append(pl.Candidates[0].Steps, planner.StepCost{Step: "extra"})
	if pl.Candidates[1].Steps[0] != next {
		t.Fatal("appending to one candidate's steps changed another's")
	}
}

// Cold plans run concurrently (the daemon plans every new operand pair on
// its request's goroutine), so each takes its own scratch: plans of
// different pairs made at once equal the same plans made one at a time.
// Under -race this also holds that no two plans touch the same scratch.
func TestConcurrentColdPlansShareNothing(t *testing.T) {
	ops, daemon := mclOperands(t)
	kmer := genmat.Kmer(genmat.KmerConfig{Reads: 512, Kmers: 32768, KmersPerRead: 24, Overlap: 0.08, Seed: 7})
	type job struct {
		a, b *spmat.CSC
		in   planner.Input
	}
	jobs := []job{{kmer, spmat.Transpose(kmer), planner.Input{P: 64}}}
	for _, m := range ops[:4] {
		jobs = append(jobs, job{m, m, daemon})
	}
	want := make([]*planner.Plan, len(jobs))
	for i, j := range jobs {
		pl, err := planner.New(j.a, j.b, j.in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pl
	}
	for round := 0; round < 2; round++ {
		got := make([]*planner.Plan, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl, err := planner.New(j.a, j.b, j.in)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = pl
			}()
		}
		wg.Wait()
		for i := range jobs {
			if got[i] == nil || !reflect.DeepEqual(got[i].Candidates, want[i].Candidates) {
				t.Fatalf("round %d: plan %d made beside others differs from the one made alone", round, i)
			}
		}
	}
}
