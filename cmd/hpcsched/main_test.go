package main

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"hpcsched/internal/batch"
	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/sim"
)

func TestTableWorkloadMapping(t *testing.T) {
	for cmd, want := range map[string]string{
		"table3": "metbench",
		"fig3":   "metbench",
		"table4": "metbenchvar",
		"table5": "btmz",
		"fig5":   "btmz",
		"table6": "siesta",
		"fig6":   "siesta",
	} {
		if got := tableWorkload(cmd); got != want {
			t.Errorf("tableWorkload(%q) = %q, want %q", cmd, got, want)
		}
	}
}

// TestPrintTableFailedBaseline: a single-seed hardened table whose
// baseline and static replicas failed must leave their rows out, print
// "—" instead of an improvement over the missing baseline, list every
// failure and report the run as failed.
func TestPrintTableFailedBaseline(t *testing.T) {
	row := func(m experiments.Mode, exec sim.Time) experiments.Result {
		return experiments.Result{
			Config:    experiments.Config{Workload: "metbench", Mode: m, Seed: 42},
			ExecTime:  exec,
			Summaries: []metrics.TaskSummary{{Name: "P1", CompPct: 95, HWPrio: 4}},
		}
	}
	sr := experiments.ScenarioResult{
		Spec: experiments.ScenarioSpec{Workload: "metbench", Seed: 42,
			Modes: experiments.TableModes("metbench")},
		Results: []experiments.Result{
			{}, {},
			row(experiments.ModeUniform, 71*sim.Second),
			row(experiments.ModeAdaptive, 72*sim.Second),
		},
		OK: []bool{false, false, true, true},
		Failed: []*batch.JobError{
			{Index: 0, Attempts: 1, Kind: batch.KindTimeout, Err: errors.New("deadline exceeded")},
			{Index: 1, Attempts: 2, Kind: batch.KindPanic, Err: errors.New("boom")},
		},
	}
	var b strings.Builder
	if printTable(&b, sr) {
		t.Error("printTable reported success with failed replicas")
	}
	out := b.String()
	for _, want := range []string{
		"Uniform", "Adaptive", "71.00s", "—",
		"replica 0: timeout after 1 attempt(s): deadline exceeded\n",
		"replica 1: panic after 2 attempt(s): boom\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"Baseline", "Static"} {
		if strings.Contains(out, absent) {
			t.Errorf("output mentions %q:\n%s", absent, out)
		}
	}
	if imp := regexp.MustCompile(`[+-]\d+\.\d%`).FindString(out); imp != "" {
		t.Errorf("output prints improvement %q over a failed baseline:\n%s", imp, out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("output does not end with a newline")
	}

	// With faults injected, the timeline printed is the first finished
	// row's, labelled with that row's mode and its (retried) seed.
	sr.Spec.Faults = faults.Spec{Slowdowns: []faults.SlowdownSpec{{}}}
	sr.Results[2].Config.Seed = 777
	sr.Results[2].FaultTimeline = "t=1.000s slow"
	b.Reset()
	printTable(&b, sr)
	if want := "fault timeline (Uniform, seed 777):\nt=1.000s slow\n"; !strings.Contains(b.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, b.String())
	}
	sr.Spec.Faults = faults.Spec{}

	// With every replica finished the table is the plain paper layout.
	sr.Results[0] = row(experiments.ModeBaseline, 80*sim.Second)
	sr.Results[1] = row(experiments.ModeStatic, 75*sim.Second)
	sr.OK = []bool{true, true, true, true}
	sr.Failed = nil
	b.Reset()
	if !printTable(&b, sr) {
		t.Error("printTable reported failure with every replica finished")
	}
	want := experiments.TableResult{Workload: "metbench", Rows: sr.Results}.Format()
	if b.String() != want {
		t.Errorf("clean table differs from TableResult.Format:\n%s\n--- vs ---\n%s", b.String(), want)
	}
}
