package main

import (
	"context"
	"testing"
)

// runSmall runs one short untraced invocation of a workload, with every
// trial's model altered by corrupt after its set-up.
func runSmall(t *testing.T, name string, corrupt func(*model)) *result {
	t.Helper()
	w := mustWorkload(t, name)
	res, err := run(context.Background(), config{
		workload: w, seed: 7, seconds: 1, workDir: t.TempDir(), corrupt: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func TestCleanRunsPass(t *testing.T) {
	for _, w := range workloads {
		res := runSmall(t, w.name, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted != w.opCount(1) {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errs=%v", w.name, res.Correct, res.Failed, res.Attempted, res.errs)
		}
	}
}

func TestCheckerCatchesWrongByte(t *testing.T) {
	res := runSmall(t, "replicated-pingpong", func(m *model) { m.wrongByte = &pageKey{region: 3, page: 5} })
	if res.Correct || res.Failed == 0 {
		t.Errorf("pingpong with a wrong model byte: correct=%v failed=%d", res.Correct, res.Failed)
	}
	// cold-scan reads each page once per pass; a round is one read-lock
	// pass and one snapshot pass, so both checks must fire in every round.
	w := mustWorkload(t, "cold-scan")
	res = runSmall(t, w.name, func(m *model) { m.wrongByte = &pageKey{region: 0, page: 777} })
	if want := 2 * w.opCount(1) / csRound; res.Correct || res.Failed != want {
		t.Errorf("cold-scan with a wrong model byte: correct=%v failed=%d, want %d failed ops (errs %v)", res.Correct, res.Failed, want, res.errs)
	}
}

func TestCheckerCatchesSkippedWrite(t *testing.T) {
	// Each trial's model misses its fourth timed write: that op's
	// read-back must fail, and only it, since the next write to the
	// region is recorded again.
	w := mustWorkload(t, "replicated-pingpong")
	res := runSmall(t, w.name, func(m *model) { m.skipCommit = m.commits.Load() + 3 })
	if res.Correct || res.Failed != w.trials {
		t.Errorf("pingpong with a skipped model write: correct=%v failed=%d, want %d (errs %v)", res.Correct, res.Failed, w.trials, res.errs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
