package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

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

// TestStudiesWorkerInvariant runs table1,table2 serially and on two
// workers: reports and serialized records must be byte-identical.
func TestStudiesWorkerInvariant(t *testing.T) {
	run := func(workers int) (report, records []byte) {
		var out, js bytes.Buffer
		e := &env{seed: 1, workers: workers, pp: 1e-8, distance: 9, out: &out}
		if err := e.newToolchain(); err != nil {
			t.Fatal(err)
		}
		selected, err := selectStudies("table1,table2")
		if err != nil {
			t.Fatal(err)
		}
		recs, err := runStudies(context.Background(), e, selected)
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteRecords(&js, recs); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), js.Bytes()
	}
	serialOut, serialRecs := run(1)
	pooledOut, pooledRecs := run(2)
	if !bytes.Equal(serialRecs, pooledRecs) {
		t.Errorf("records differ between 1 and 2 workers:\n%s\nvs\n%s", serialRecs, pooledRecs)
	}
	if !bytes.Equal(serialOut, pooledOut) {
		t.Errorf("reports differ between 1 and 2 workers")
	}
	for _, want := range []string{"Table 1:", "Table 2:"} {
		if !bytes.Contains(serialOut, []byte(want)) {
			t.Errorf("report lacks %q", want)
		}
	}
	if !strings.Contains(string(serialRecs), `"study": "table2"`) {
		t.Errorf("records lack table2 cells")
	}
}
