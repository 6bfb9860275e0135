package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"redfat/internal/telemetry"
)

// Table1Summary aggregates Table 1 across benchmarks: mean coverage and
// the geometric-mean slow-down of every column.
type Table1Summary struct {
	MeanCoverage float64 `json:"mean_coverage"`
	Unopt        float64 `json:"unopt"`
	Elim         float64 `json:"elim"`
	Batch        float64 `json:"batch"`
	Merge        float64 `json:"merge"`
	Dom          float64 `json:"dom"`
	Ind          float64 `json:"ind"`
	NoSize       float64 `json:"nosize"`
	NoReads      float64 `json:"noreads"`
	Memcheck     float64 `json:"memcheck"`
}

// columns lists the summary's geomean fields in Table1Row.columns order.
func (s *Table1Summary) columns() []*float64 {
	return []*float64{&s.Unopt, &s.Elim, &s.Batch, &s.Merge, &s.Dom, &s.Ind, &s.NoSize, &s.NoReads, &s.Memcheck}
}

// Summarize computes the geometric-mean summary row of Table 1.
func Summarize(rows []*Table1Row) Table1Summary {
	var s Table1Summary
	for _, r := range rows {
		s.MeanCoverage += r.Coverage
	}
	if len(rows) > 0 {
		s.MeanCoverage /= float64(len(rows))
	}
	for c, col := range s.columns() {
		xs := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = *r.columns()[c]
		}
		*col = GeoMean(xs)
	}
	return s
}

// Figure8Result bundles the per-benchmark Kraken rows with their
// geometric mean.
type Figure8Result struct {
	Rows    []Fig8Row `json:"rows"`
	GeoMean float64   `json:"geomean"`
}

// Ablations bundles the ablation-study result sets.
type Ablations struct {
	Tactics  []TacticRow   `json:"tactics,omitempty"`
	Batch    []BatchRow    `json:"batch,omitempty"`
	Clobber  []ClobberRow  `json:"clobber,omitempty"`
	Dataflow []DataflowRow `json:"dataflow,omitempty"`
	Indirect []IndirectRow `json:"indirect,omitempty"`
	Fuzz     []FuzzRow     `json:"fuzz,omitempty"`
}

// SchemaVersion versions the Results JSON shape. Baseline comparison and
// runpack consumers check it and reject incompatible files with a clear
// error instead of misparsing them.
const SchemaVersion = 1

// Results is the machine-readable aggregate of an rfbench invocation:
// every experiment that ran contributes its section; the rest are omitted.
type Results struct {
	SchemaVersion  int            `json:"schema_version"`
	Scale          float64        `json:"scale,omitempty"`
	Table1         []*Table1Row   `json:"table1,omitempty"`
	Table1Summary  *Table1Summary `json:"table1_summary,omitempty"`
	FalsePositives []FPRow        `json:"false_positives,omitempty"`
	Table2         []Table2Row    `json:"table2,omitempty"`
	Table2Extended []Table2Row    `json:"table2_extended,omitempty"`
	Figure8        *Figure8Result `json:"figure8,omitempty"`
	Ablation       *Ablations     `json:"ablation,omitempty"`
	GuestProfiles  []GuestProfRow `json:"guest_profiles,omitempty"`
	// Telemetry is the aggregate metrics snapshot across every run,
	// merged from the per-unit registries of the worker pool.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// WriteJSON serializes the results, indented, to w, stamping the schema
// version.
func (r *Results) WriteJSON(w io.Writer) error {
	if r.SchemaVersion == 0 {
		r.SchemaVersion = SchemaVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MarshalJSONBytes serializes the results exactly as WriteJSON would —
// the single byte representation used by files, runpacks and baselines.
func (r *Results) MarshalJSONBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseResults decodes a Results document, rejecting files written under
// a different (or missing) schema version, including the embedded
// telemetry snapshot when present.
func ParseResults(data []byte) (*Results, error) {
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: malformed results JSON: %v", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: results schema_version %d, tool supports %d (regenerate with this rfbench)",
			r.SchemaVersion, SchemaVersion)
	}
	if r.Telemetry != nil {
		if err := r.Telemetry.Validate(); err != nil {
			return nil, err
		}
	}
	return &r, nil
}
