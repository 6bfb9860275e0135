package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestSummarize(t *testing.T) {
	// Two rows whose slow-down columns all differ, so a summary field that
	// read another column would show.
	rows := []*Table1Row{{Coverage: 0.5}, {Coverage: 1.0}}
	rowType := reflect.TypeOf(Table1Row{})
	var cols []int // the row's slow-down fields
	for i := 0; i < rowType.NumField(); i++ {
		if f := rowType.Field(i); f.Type.Kind() == reflect.Float64 && f.Name != "Coverage" {
			cols = append(cols, i)
		}
	}
	for k, i := range cols {
		reflect.ValueOf(rows[0]).Elem().Field(i).SetFloat(float64(k + 2))
		reflect.ValueOf(rows[1]).Elem().Field(i).SetFloat(float64(4 * (k + 2)))
	}
	s := Summarize(rows)
	if math.Abs(s.MeanCoverage-0.75) > 1e-9 {
		t.Errorf("mean coverage = %v, want 0.75", s.MeanCoverage)
	}
	if math.Abs(s.Merge-10) > 1e-9 { // geomean(5, 20) = 10
		t.Errorf("merge geomean = %v, want 10", s.Merge)
	}
	// Every row column has a same-named summary field: its geomean.
	sum := reflect.ValueOf(s)
	for _, i := range cols {
		name := rowType.Field(i).Name
		f := sum.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Table1Summary has no %s column", name)
			continue
		}
		xs := []float64{reflect.ValueOf(*rows[0]).Field(i).Float(), reflect.ValueOf(*rows[1]).Field(i).Float()}
		if got, want := f.Float(), GeoMean(xs); got != want {
			t.Errorf("summary %s = %v, want GeoMean %v", name, got, want)
		}
	}
}

func TestResultsWriteJSON(t *testing.T) {
	summary := Summarize(nil)
	r := &Results{
		Scale: 0.5,
		Table1: []*Table1Row{{
			Name: "mcf", Coverage: 0.9, BaselineCycles: 1000,
			Unopt: 9.5, Merge: 2.5, ChecksumOK: true,
		}},
		Table1Summary: &summary,
		Table2:        []Table2Row{{ID: "CVE-2012-4295 (wireshark)", Total: 1, RedFat: 1}},
		Figure8:       &Figure8Result{Rows: []Fig8Row{{Name: "astar", Slowdown: 1.3}}, GeoMean: 1.3},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(back.Table1) != 1 || back.Table1[0].Name != "mcf" || back.Table1[0].Merge != 2.5 {
		t.Errorf("table1 round-trip: %+v", back.Table1)
	}
	if back.Table2[0].RedFat != 1 || back.Figure8.GeoMean != 1.3 {
		t.Errorf("round-trip lost values: %+v", back)
	}
	if back.FalsePositives != nil || back.Ablation != nil {
		t.Error("sections that did not run must be omitted")
	}
	// The snake_case key contract for downstream consumers.
	for _, key := range []string{`"baseline_cycles"`, `"checksum_ok"`, `"table1_summary"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("JSON missing key %s:\n%s", key, buf.String())
		}
	}
}
