package main

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a synthetic module and returns a vetter rooted
// at it. The module carries its own minimal telemetry package so the
// Registry type check is exercised for real.
func writeTree(t *testing.T, files map[string]string) *vetter {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	files["internal/telemetry/telemetry.go"] = `package telemetry
type Registry struct{}
type Counter struct{}
type Gauge struct{}
type Histogram struct{}
func (r *Registry) Counter(name string) *Counter { return nil }
func (r *Registry) Gauge(name string) *Gauge { return nil }
func (r *Registry) Histogram(name string) *Histogram { return nil }
`
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	return &vetter{
		fset:    fset,
		root:    root,
		modPath: "tmpmod",
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
	}
}

func runVet(t *testing.T, v *vetter) []string {
	t.Helper()
	dirs, err := packageDirs(v.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if err := v.vetDir(dir); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
	}
	var msgs []string
	for _, is := range v.issues {
		msgs = append(msgs, is.msg)
	}
	return msgs
}

func wantIssue(t *testing.T, msgs []string, substr string) {
	t.Helper()
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Errorf("no issue containing %q in %v", substr, msgs)
}

func TestTelemetryNameRules(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/sub/sub.go": `package sub
import "tmpmod/internal/telemetry"
func setup(reg *telemetry.Registry) {
	reg.Counter("sub.ops.count")        // ok
	reg.Histogram("sub.jit.deopt.side.count") // ok: 5 segments (reason-split series)
	reg.Gauge("singlesegment")          // bad: 1 segment
	reg.Histogram("sub.a.b.c.d.e")      // bad: 6 segments
	reg.Counter("sub.BadCase.count")    // bad: uppercase segment
	reg.Counter("other.ops.count")      // bad: second root in this package
	reg.Counter("sub.dyn." + "suffix")  // skipped: not a literal
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, `"singlesegment" has 1 segments`)
	wantIssue(t, msgs, `"sub.a.b.c.d.e" has 6 segments`)
	wantIssue(t, msgs, `segment "BadCase" is not lowercase`)
	wantIssue(t, msgs, "multiple roots [other sub]")
	if len(msgs) != 4 {
		t.Errorf("want exactly 4 issues, got %d: %v", len(msgs), msgs)
	}
}

// TestTelemetryNameCoversLibcSpanCounters pins the rule to the libc
// span-check series: the shipped vm.libc.span.{check,fail}.count names
// must pass as-is (5 segments, one "vm" root), and near-miss variants a
// refactor could plausibly introduce must still be flagged.
func TestTelemetryNameCoversLibcSpanCounters(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/vmx/vmx.go": `package vmx
import "tmpmod/internal/telemetry"
func setup(reg *telemetry.Registry) {
	reg.Counter("vm.libc.span.check.count")    // ok: shipped name
	reg.Counter("vm.libc.span.fail.count")     // ok: shipped name
	reg.Counter("vm.libc.span.fail.oob.count") // bad: 6 segments
	reg.Counter("libc.span.check.count")       // bad: second root in this package
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, `"vm.libc.span.fail.oob.count" has 6 segments`)
	wantIssue(t, msgs, "multiple roots [libc vm]")
	if len(msgs) != 2 {
		t.Errorf("want exactly 2 issues, got %d: %v", len(msgs), msgs)
	}
}

func TestTelemetryNameIgnoresOtherTypes(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/sub/sub.go": `package sub
type fake struct{}
func (fake) Counter(name string) int { return 0 }
func setup() {
	var f fake
	_ = f.Counter("not a metric name at all")
}
`,
	})
	if msgs := runVet(t, v); len(msgs) != 0 {
		t.Errorf("non-Registry Counter flagged: %v", msgs)
	}
}

func TestMapEmitRule(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/rep/rep.go": `package rep
import (
	"fmt"
	"io"
	"sort"
)
func RenderBad(w io.Writer, m map[string]int) {
	for k, n := range m {
		fmt.Fprintf(w, "%s %d\n", k, n) // nondeterministic
	}
}
func RenderGood(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-only: allowed
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}
func sliceLoop(w io.Writer, xs []int) {
	for _, x := range xs {
		fmt.Fprintln(w, x) // slices are ordered: allowed
	}
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, "map-emit: Fprintf inside a range over a map")
	if len(msgs) != 1 {
		t.Errorf("want exactly 1 issue, got %d: %v", len(msgs), msgs)
	}
}

func TestMapEmitRuleCoversObsEmitters(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/obs/obs.go": `package obs
type Flight struct{}
func (f *Flight) Record(kind, reason uint8, pc, arg uint64) {}
func (f *Flight) RecordExec(kind, reason uint8, pc, arg, size uint64) {}
type Server struct{}
type State struct{}
func (s *Server) Publish(st *State) {}
`,
		"internal/emit/emit.go": `package emit
import (
	"sort"
	"tmpmod/internal/obs"
)
func RecordBad(f *obs.Flight, m map[uint64]uint64) {
	for pc, arg := range m {
		f.Record(0, 0, pc, arg) // ring content would be nondeterministic
	}
}
func RecordExecBad(f *obs.Flight, m map[uint64]uint64) {
	for p, n := range m {
		f.RecordExec(0, 0, 0, p, n) // allocation events in map order
	}
}
func PublishBad(s *obs.Server, m map[string]*obs.State) {
	for _, st := range m {
		s.Publish(st) // last-published state would be nondeterministic
	}
}
func RecordGood(f *obs.Flight, m map[uint64]uint64) {
	pcs := make([]uint64, 0, len(m))
	for pc := range m { // collect-only: allowed
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		f.Record(0, 0, pc, m[pc])
	}
}
type other struct{}
func (other) Record(kind, reason uint8, pc, arg uint64) {}
func otherType(m map[uint64]uint64) {
	var o other
	for pc := range m {
		o.Record(0, 0, pc, 0) // not an obs emitter: allowed
	}
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, "map-emit: obs Record inside a range over a map")
	wantIssue(t, msgs, "map-emit: obs RecordExec inside a range over a map")
	wantIssue(t, msgs, "map-emit: obs Publish inside a range over a map")
	if len(msgs) != 3 {
		t.Errorf("want exactly 3 issues, got %d: %v", len(msgs), msgs)
	}
}

func TestMapEmitRuleCoversRunpackBuilder(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/runpack/runpack.go": `package runpack
type Builder struct{}
func (b *Builder) AddBytes(name string, data []byte) {}
func (b *Builder) AddJSON(name string, v any) {}
`,
		"internal/emit/emit.go": `package emit
import (
	"sort"
	"tmpmod/internal/runpack"
)
func PackBad(b *runpack.Builder, m map[string][]byte) {
	for name, data := range m {
		b.AddBytes(name, data) // member order would be nondeterministic
	}
}
func PackGood(b *runpack.Builder, m map[string][]byte) {
	names := make([]string, 0, len(m))
	for name := range m { // collect-only: allowed
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.AddBytes(name, m[name])
	}
}
type other struct{}
func (other) AddBytes(name string, data []byte) {}
func otherType(m map[string]int) {
	var o other
	for k := range m {
		o.AddBytes(k, nil) // not the runpack Builder: allowed
	}
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, "map-emit: runpack AddBytes inside a range over a map")
	if len(msgs) != 1 {
		t.Errorf("want exactly 1 issue, got %d: %v", len(msgs), msgs)
	}
}

// TestCFGUnknownRule pins the cfg-unknown rule: walking Block.Succs
// without acknowledging Unknown blocks is flagged, while each accepted
// acknowledgment form (.Unknown check, Entries seeding, an explanatory
// comment) and non-cfg Block types pass untouched.
func TestCFGUnknownRule(t *testing.T) {
	v := writeTree(t, map[string]string{
		"internal/cfg/cfg.go": `package cfg
type Block struct {
	Succs   []int
	Preds   []int
	Unknown bool
	Entry   bool
}
type Graph struct {
	Blocks  []Block
	Entries []int
}
`,
		"internal/use/use.go": `package use
import "tmpmod/internal/cfg"
func badWalk(g *cfg.Graph) int { // flagged: treats the empty Succs of a top block as proven
	n := 0
	for b := range g.Blocks {
		n += len(g.Blocks[b].Succs)
	}
	return n
}
func goodCheck(g *cfg.Graph) int {
	n := 0
	for b := range g.Blocks {
		if g.Blocks[b].Unknown {
			continue
		}
		n += len(g.Blocks[b].Succs)
	}
	return n
}
func goodEntries(g *cfg.Graph) []int {
	work := append([]int(nil), g.Entries...)
	for _, b := range work {
		work = append(work, g.Blocks[b].Succs...)
	}
	return work
}
// goodDoc only counts proven edges; Unknown blocks contribute none,
// which is fine for a lower bound.
func goodDoc(g *cfg.Graph) int {
	n := 0
	for b := range g.Blocks {
		n += len(g.Blocks[b].Succs)
	}
	return n
}
func goodBodyComment(g *cfg.Graph) int {
	n := 0
	for b := range g.Blocks {
		// Unknown blocks record no successors; a lower bound is fine here.
		n += len(g.Blocks[b].Succs)
	}
	return n
}
type other struct{ Succs []int }
func otherType(xs []other) int { // not the cfg Block: allowed
	n := 0
	for i := range xs {
		n += len(xs[i].Succs)
	}
	return n
}
`,
	})
	msgs := runVet(t, v)
	wantIssue(t, msgs, "cfg-unknown: badWalk walks Block.Succs")
	if len(msgs) != 1 {
		t.Errorf("want exactly 1 issue, got %d: %v", len(msgs), msgs)
	}
}
