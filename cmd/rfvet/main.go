// rfvet is the project-specific static checker, wired into `make check`
// alongside `go vet`. It is built on the standard library's go/parser
// and go/types only (no external analysis framework) and enforces two
// repo conventions that ordinary vet cannot see:
//
//   - telemetry-name: every metric name passed as a string literal to
//     telemetry Registry Counter/Gauge/Histogram must be a lowercase
//     dotted path of two to five segments following the
//     <pkg>.<noun>.<verb> convention (five allows reason-split series
//     like vm.jit.deopt.<reason>.count), and all metrics registered by
//     one package must share a single root segment (e.g. all of
//     internal/vm registers under "vm.").
//
//   - map-emit: table and report emitters must not write output from
//     inside a `range` over a map — map iteration order is randomized,
//     so any fmt/io emission inside such a loop makes the artifact
//     nondeterministic. The accepted idiom is collect-keys → sort →
//     iterate the slice; collect-only map loops are therefore fine.
//     The same rule covers the runpack Builder's member-adding methods
//     (AddBytes/AddJSON): member insertion order is part of a runpack's
//     signed digest chain, so adding members from inside a map range
//     would make the sealed manifest nondeterministic. It also covers
//     the obs layer's emitters (Flight.Record, Flight.RecordExec,
//     Server.Publish): flight rings — the system's one event recorder —
//     are byte-compared across runs and sealed into runpacks, and
//     published server states feed golden-tested endpoints, so feeding
//     either from a map range would break their determinism contracts.
//
//   - cfg-unknown: any function that walks Block.Succs on the cfg
//     Block type must acknowledge Unknown blocks. An Unknown block's
//     successor set is ⊤ (an unmodeled indirect transfer) but its
//     recorded Succs slice is empty, so a plain successor walk silently
//     treats ⊤ as ∅ — exactly the unsoundness the indirect-flow
//     recovery exists to shrink, not hide. Accepted acknowledgments:
//     the same function references .Unknown, or .Entry/.Entries (the
//     virtual-root construction that makes every block — including
//     Unknown targets — reachable, which is how the dominator and
//     availability solvers stay conservative), or a comment in or on
//     the function contains the word "Unknown" explaining why ⊤ is
//     safe there.
//
// Test files are exempt from all rules. Exit status is 1 when any
// issue is found, 2 when the module cannot be loaded.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type issue struct {
	pos token.Position
	msg string
}

type vetter struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string // module path from go.mod
	std     types.Importer
	cache   map[string]*types.Package
	issues  []issue
}

func main() {
	root, modPath, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfvet:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	v := &vetter{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
	}
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfvet:", err)
		os.Exit(2)
	}
	for _, dir := range dirs {
		if err := v.vetDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "rfvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
	}
	sort.Slice(v.issues, func(i, j int) bool {
		a, b := v.issues[i].pos, v.issues[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, is := range v.issues {
		fmt.Printf("%s: %s\n", is.pos, is.msg)
	}
	if len(v.issues) > 0 {
		os.Exit(1)
	}
}

// findModule locates go.mod upward from the working directory and
// returns the module root and module path.
func findModule() (string, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found")
		}
		dir = parent
	}
}

// packageDirs lists every directory under root that contains Go files,
// skipping hidden directories, testdata, and build outputs.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// Import resolves module-local packages by type-checking their sources
// and delegates everything else to the standard-library source importer.
func (v *vetter) Import(path string) (*types.Package, error) {
	if pkg, ok := v.cache[path]; ok {
		return pkg, nil
	}
	if path == v.modPath || strings.HasPrefix(path, v.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, v.modPath), "/")
		pkg, _, err := v.check(filepath.Join(v.root, rel), path)
		if err != nil {
			return nil, err
		}
		v.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := v.std.Import(path)
	if err != nil {
		return nil, err
	}
	v.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test files of one directory.
func (v *vetter) check(dir, pkgPath string) (*types.Package, *pkgFiles, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	pf := &pkgFiles{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(v.fset, filepath.Join(dir, name), nil,
			parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		pf.files = append(pf.files, f)
	}
	if len(pf.files) == 0 {
		return nil, nil, fmt.Errorf("no buildable Go files")
	}
	conf := types.Config{Importer: v}
	pkg, err := conf.Check(pkgPath, v.fset, pf.files, pf.info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, pf, nil
}

type pkgFiles struct {
	files []*ast.File
	info  *types.Info
}

// vetDir type-checks one package directory and applies both rules.
func (v *vetter) vetDir(dir string) error {
	rel, err := filepath.Rel(v.root, dir)
	if err != nil {
		return err
	}
	pkgPath := v.modPath
	if rel != "." {
		pkgPath = v.modPath + "/" + filepath.ToSlash(rel)
	}
	var pf *pkgFiles
	if _, ok := v.cache[pkgPath]; ok {
		// Already type-checked as a dependency, but the rule pass needs
		// the syntax and info maps, so check again (cached imports make
		// this cheap).
		_, pf, err = v.check(dir, pkgPath)
	} else {
		var pkg *types.Package
		pkg, pf, err = v.check(dir, pkgPath)
		if err == nil {
			v.cache[pkgPath] = pkg
		}
	}
	if err != nil {
		return err
	}
	v.checkTelemetryNames(pf)
	v.checkMapEmit(pf)
	v.checkCFGUnknown(pf)
	return nil
}

func (v *vetter) report(pos token.Pos, format string, args ...any) {
	v.issues = append(v.issues, issue{v.fset.Position(pos), fmt.Sprintf(format, args...)})
}

var (
	metricMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}
	segmentRE     = regexp.MustCompile(`^[a-z][a-z0-9]*$`)
)

// checkTelemetryNames enforces the metric naming convention on every
// literal name registered with the telemetry Registry. Dynamically
// composed names (string concatenation) are out of scope.
func (v *vetter) checkTelemetryNames(pf *pkgFiles) {
	roots := map[string]token.Pos{}
	for _, f := range pf.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !metricMethods[sel.Sel.Name] || !v.isRegistry(pf, sel.X) {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			segs := strings.Split(name, ".")
			if len(segs) < 2 || len(segs) > 5 {
				v.report(lit.Pos(), "telemetry-name: %q has %d segments, want 2-5 (<pkg>.<noun>.<verb>)",
					name, len(segs))
				return true
			}
			for _, s := range segs {
				if !segmentRE.MatchString(s) {
					v.report(lit.Pos(), "telemetry-name: %q segment %q is not lowercase [a-z][a-z0-9]*",
						name, s)
					return true
				}
			}
			roots[segs[0]] = lit.Pos()
			return true
		})
	}
	if len(roots) > 1 {
		var all []string
		for r := range roots {
			all = append(all, r)
		}
		sort.Strings(all)
		v.report(roots[all[1]], "telemetry-name: package registers metrics under multiple roots %v; pick one",
			all)
	}
}

// isRegistry reports whether expr has the telemetry Registry type (or a
// pointer to it). With missing type information it falls back to the
// conservative syntactic answer true, so a broken importer surfaces as
// extra findings rather than silence.
func (v *vetter) isRegistry(pf *pkgFiles, expr ast.Expr) bool {
	tv, ok := pf.info.Types[expr]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Registry" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/telemetry")
}

// isPackBuilder reports whether fun is a selector on the runpack Builder
// type (or a pointer to it). Like isRegistry, missing type information
// falls back to the conservative answer true.
func (v *vetter) isPackBuilder(pf *pkgFiles, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pf.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Builder" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/runpack")
}

// emitCalls are methods/functions whose invocation inside a map-range
// body means iteration order reaches an output stream.
var emitCalls = map[string]bool{
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// packCalls are runpack Builder methods that append pack members. Member
// order is part of the signed digest chain, so these are held to the same
// no-map-iteration rule as output emitters.
var packCalls = map[string]bool{
	"AddBytes": true, "AddJSON": true,
}

// obsCalls are obs-layer emitters. Flight rings are byte-compared across
// runs and sealed into runpacks; published server states back the
// golden-tested endpoints. Both must never be fed from a map range.
var obsCalls = map[string]bool{
	"Record": true, "RecordExec": true, "Publish": true,
}

// isObsEmitter reports whether fun is a selector on the obs Flight or
// Server type (or a pointer to either). Like isRegistry, missing type
// information falls back to the conservative answer true.
func (v *vetter) isObsEmitter(pf *pkgFiles, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pf.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	name := n.Obj().Name()
	return (name == "Flight" || name == "Server") &&
		strings.HasSuffix(n.Obj().Pkg().Path(), "internal/obs")
}

// checkMapEmit flags emission from inside a range over a map, anywhere
// in the package: collect-then-sort loops have no emit call in the body
// and pass untouched.
func (v *vetter) checkMapEmit(pf *pkgFiles) {
	for _, f := range pf.files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pf.info.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				case *ast.Ident:
					name = fun.Name
				}
				if emitCalls[name] {
					v.report(call.Pos(),
						"map-emit: %s inside a range over a map emits in nondeterministic order; collect keys, sort, then emit",
						name)
				} else if packCalls[name] && v.isPackBuilder(pf, call.Fun) {
					v.report(call.Pos(),
						"map-emit: runpack %s inside a range over a map packs members in nondeterministic order; collect keys, sort, then add",
						name)
				} else if obsCalls[name] && v.isObsEmitter(pf, call.Fun) {
					v.report(call.Pos(),
						"map-emit: obs %s inside a range over a map emits in nondeterministic order; collect keys, sort, then emit",
						name)
				}
				return true
			})
			return true
		})
	}
}

// isCFGBlock reports whether expr has the cfg Block type (or a pointer
// to it). Like isRegistry, missing type information falls back to the
// conservative answer true.
func (v *vetter) isCFGBlock(pf *pkgFiles, expr ast.Expr) bool {
	tv, ok := pf.info.Types[expr]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Block" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/cfg")
}

// checkCFGUnknown flags functions that read Block.Succs without
// acknowledging Unknown blocks anywhere in the same function: an
// Unknown block records no successors, so an unacknowledged walk treats
// ⊤ as ∅. Referencing .Unknown, .Entry, or .Entries counts (the latter
// two because the virtual-root entry set is how whole-graph solvers
// stay conservative under Unknown flow), as does a comment containing
// "Unknown" in or on the function.
func (v *vetter) checkCFGUnknown(pf *pkgFiles) {
	for _, f := range pf.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			succsPos := token.NoPos
			acknowledged := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Succs":
					if succsPos == token.NoPos && v.isCFGBlock(pf, sel.X) {
						succsPos = sel.Pos()
					}
				case "Unknown", "Entry", "Entries":
					acknowledged = true
				}
				return true
			})
			if succsPos == token.NoPos || acknowledged || mentionsUnknown(f, fd) {
				continue
			}
			v.report(succsPos,
				"cfg-unknown: %s walks Block.Succs without acknowledging Unknown blocks (⊤ has no recorded successors); check .Unknown, seed from Entries, or document why ⊤ is safe here",
				fd.Name.Name)
		}
	}
}

// mentionsUnknown reports whether the function's doc comment or any
// comment inside its body contains the word "Unknown".
func mentionsUnknown(f *ast.File, fd *ast.FuncDecl) bool {
	if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "Unknown") {
		return true
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= fd.Pos() && cg.End() <= fd.End() && strings.Contains(cg.Text(), "Unknown") {
			return true
		}
	}
	return false
}
