package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// TestStudyRegistry pins the registry contract: names are unique, an
// unknown -study name fails listing every valid one, and selection
// follows registry order whatever order the names are given in.
func TestStudyRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range studies {
		if seen[s.name] {
			t.Errorf("study %q registered twice", s.name)
		}
		seen[s.name] = true
	}
	for _, name := range strings.Split(defaultStudies, ",") {
		if !seen[name] {
			t.Errorf("default study %q is not registered", name)
		}
	}

	_, err := selectStudies("fig7,no-such-study")
	if err == nil {
		t.Fatal("unknown study accepted")
	}
	for _, s := range studies {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not list valid study %q", err, s.name)
		}
	}

	selected, err := selectStudies("table2, table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 2 || selected[0].name != "table1" || selected[1].name != "table2" {
		t.Errorf("selection out of registry order: %v", selected)
	}
}

// runSelected runs a -study list on e, returning the report and the
// records.
func runSelected(t *testing.T, e *env, list string) (string, []sweep.CellResult, error) {
	t.Helper()
	var out bytes.Buffer
	e.out = &out
	if err := e.newToolchain(); err != nil {
		t.Fatal(err)
	}
	selected, err := selectStudies(list)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := runStudies(context.Background(), e, selected)
	return out.String(), recs, err
}

// studyRun is one study's report and records.
type studyRun struct {
	report string
	recs   []sweep.CellResult
}

// encodeRecords serializes recs the way -json writes them.
func encodeRecords(t *testing.T, recs []sweep.CellResult) []byte {
	t.Helper()
	var js bytes.Buffer
	if err := sweep.WriteRecords(&js, recs); err != nil {
		t.Fatal(err)
	}
	return js.Bytes()
}

// TestStudiesWorkerInvariant runs every study but modular (its wall_*
// timings are machine-local) serially and on two workers, one subtest
// per study: its report and serialized records must be byte-identical.
// The perfect_device subtest asserts every record outside the
// defective-device studies (yield, calib) names the perfect device.
func TestStudiesWorkerInvariant(t *testing.T) {
	var selected []study
	for _, s := range studies {
		if s.name != "modular" {
			selected = append(selected, s)
		}
	}
	// run executes the studies one at a time on one env, so the
	// toolchain's caches are shared as in a multi-study run.
	run := func(workers int) map[string]studyRun {
		e := &env{seed: 1, workers: workers, pp: 1e-8, app: "GSE", distance: 5}
		if err := e.newToolchain(); err != nil {
			t.Fatal(err)
		}
		runs := map[string]studyRun{}
		for _, s := range selected {
			var out bytes.Buffer
			e.out = &out
			recs, err := runStudies(context.Background(), e, []study{s})
			if err != nil {
				t.Fatal(err)
			}
			runs[s.name] = studyRun{out.String(), recs}
		}
		return runs
	}
	serial, pooled := run(1), run(2)

	var report strings.Builder
	var recs []sweep.CellResult
	for _, s := range selected {
		a, b := serial[s.name], pooled[s.name]
		report.WriteString(a.report)
		recs = append(recs, a.recs...)
		t.Run(s.name, func(t *testing.T) {
			if len(a.recs) == 0 {
				t.Error("no records")
			}
			if ja, jb := encodeRecords(t, a.recs), encodeRecords(t, b.recs); !bytes.Equal(ja, jb) {
				t.Errorf("records differ between 1 and 2 workers:\n%s\nvs\n%s", ja, jb)
			}
			if a.report != b.report {
				t.Errorf("reports differ between 1 and 2 workers:\n%s\nvs\n%s", a.report, b.report)
			}
		})
	}
	for _, want := range []string{"Table 1:", "Table 2:", "Figure 6:", "Figure 9:", "§8.1", "Communication yield", "Calibration study"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report lacks %q", want)
		}
	}
	studied := map[string]bool{}
	for _, r := range recs {
		studied[r.Study] = true
	}
	for _, study := range []string{"table1", "table2", "characterization", "figure6", "figure7", "figure8", "figure9", "epr", "decoder", "decode", "yield", "calib"} {
		if !studied[study] {
			t.Errorf("records lack %s cells", study)
		}
	}
	t.Run("perfect_device", func(t *testing.T) {
		for _, r := range recs {
			if r.Study != "yield" && r.Study != "calib" && r.Device != "perfect" {
				t.Errorf("%s record %s: device %q, want perfect", r.Study, r.Cell, r.Device)
			}
		}
	})
}

// TestYieldRecordIdentity pins the yield study's per-cell identity:
// seeds derive from the base seed plus the cell index, each device
// string names its realization, and the zero-fraction cells — the
// perfect grid at any seed — agree.
func TestYieldRecordIdentity(t *testing.T) {
	e := &env{seed: 10, workers: 2, pp: 1e-8, distance: 9, fracs: []float64{0, 0.02}}
	_, recs, err := runSelected(t, e, "yield")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Study != "yield" || r.Seed != 10+int64(i) {
			t.Errorf("record %d: study %q seed %d, want yield seed %d", i, r.Study, r.Seed, 10+i)
		}
		frac := e.fracs[i/2]
		if want := fmt.Sprintf("(p=%g,seed=%d)", frac, r.Seed); !strings.Contains(r.Device, want) {
			t.Errorf("record %d device %q does not name realization %s", i, r.Device, want)
		}
	}
	if !reflect.DeepEqual(recs[0].Metrics, recs[1].Metrics) {
		t.Errorf("zero-fraction trials differ: %v vs %v", recs[0].Metrics, recs[1].Metrics)
	}
}

// TestFig6VerifyReplays drives `-study fig6 -app GSE -d 5 -verify`:
// every policy's static schedule must pass replay validation.
func TestFig6VerifyReplays(t *testing.T) {
	e := &env{seed: 1, workers: 2, pp: 1e-8, app: "GSE", distance: 5, verify: true}
	report, _, err := runSelected(t, e, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(report, "replay-ok"); n != 7 {
		t.Errorf("%d replay-ok lines, want one per policy (7):\n%s", n, report)
	}
}

// TestBadKnobsRejected pins the up-front validation: an unknown -app, a
// -d below 1 and a defect fraction outside [0,1) or NaN fail with
// ErrBadConfig instead of running a silently different study.
func TestBadKnobsRejected(t *testing.T) {
	cases := []struct {
		name  string
		study string
		set   func(*env)
	}{
		{"fig6 unknown app", "fig6", func(e *env) { e.app = "nope" }},
		{"yield unknown app", "yield", func(e *env) { e.app = "nope" }},
		{"calib unknown app", "calib", func(e *env) { e.app = "nope" }},
		{"d=0", "table1", func(e *env) { e.distance = 0 }},
		{"d=-3", "table1", func(e *env) { e.distance = -3 }},
		{"frac 1.5", "table1", func(e *env) { e.fracs = []float64{0, 1.5} }},
		{"frac -0.1", "table1", func(e *env) { e.fracs = []float64{-0.1} }},
		{"frac NaN", "table1", func(e *env) { e.fracs = []float64{math.NaN()} }},
	}
	for _, tc := range cases {
		e := &env{seed: 1, workers: 1, pp: 1e-8, distance: 9}
		tc.set(e)
		_, _, err := runSelected(t, e, tc.study)
		if !errors.Is(err, surfcomm.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
	_, _, err := runSelected(t, &env{seed: 1, workers: 1, pp: 1e-8, distance: 9, app: "nope"}, "fig6")
	for _, w := range surfcomm.Fig6Suite() {
		if err == nil || !strings.Contains(err.Error(), w.Name) {
			t.Errorf("unknown-app error %v does not list %q", err, w.Name)
		}
	}
}
