package runpack

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"redfat"
	"redfat/internal/juliet"
	"redfat/internal/rtlib"
)

// knobField is one field of rtlib.Knobs, found by reflection.
type knobField struct {
	index int
	name  string // Go field name
	key   string // runpack key
	flag  string // the one flag RegisterFlags gives it
}

// knobFields walks rtlib.Knobs and pairs each field with the flag that
// sets it and its runpack key, failing unless RegisterFlags gives every
// field exactly one flag and every flag exactly one field, and unless
// every field has a runpack key: a knob replay does not restore has to
// be argued for here, not slipped in with a "-" tag.
func knobFields(t *testing.T) []knobField {
	t.Helper()
	typ := reflect.TypeOf(rtlib.Knobs{})
	flagsOf := make([][]string, typ.NumField())
	var all rtlib.Knobs
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	all.RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		var k rtlib.Knobs
		probe := flag.NewFlagSet("probe", flag.ContinueOnError)
		k.RegisterFlags(probe)
		val := "7"
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			val = "true"
		}
		if err := probe.Set(f.Name, val); err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, val, err)
		}
		var moved []int
		kv := reflect.ValueOf(k)
		for i := 0; i < typ.NumField(); i++ {
			if !kv.Field(i).IsZero() {
				moved = append(moved, i)
			}
		}
		if len(moved) != 1 {
			t.Fatalf("flag -%s sets %d knob fields, want exactly 1", f.Name, len(moved))
		}
		flagsOf[moved[0]] = append(flagsOf[moved[0]], f.Name)
	})
	fields := make([]knobField, typ.NumField())
	for i := range fields {
		sf := typ.Field(i)
		if len(flagsOf[i]) != 1 {
			t.Fatalf("knob %s is set by flags %v, want exactly one", sf.Name, flagsOf[i])
		}
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("knob %s has no runpack key (json tag %q); every execution knob is replayed",
				sf.Name, sf.Tag.Get("json"))
		}
		fields[i] = knobField{index: i, name: sf.Name, key: key, flag: flagsOf[i][0]}
	}
	return fields
}

// runKeys walks rtlib.RunConfig and returns the runpack keys of its
// replayed fields, the embedded Knobs contributing theirs (see
// knobFields). It fails on a field without an explicit JSON tag, and
// unless the fields tagged "-" are exactly the host-side observers,
// which never change what the guest sees: a run field that changes
// guest behaviour needs a key, and leaving one out has to be argued for
// here.
func runKeys(t *testing.T) []string {
	t.Helper()
	var keys, hostOnly []string
	typ := reflect.TypeOf(rtlib.RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.Anonymous && sf.Type == reflect.TypeOf(rtlib.Knobs{}) {
			for _, f := range knobFields(t) {
				keys = append(keys, f.key)
			}
			continue
		}
		tag, ok := sf.Tag.Lookup("json")
		key, _, _ := strings.Cut(tag, ",")
		switch {
		case !ok || key == "":
			t.Fatalf("RunConfig.%s has no explicit json tag: give it a runpack key, or \"-\" if it is host-only", sf.Name)
		case key == "-":
			hostOnly = append(hostOnly, sf.Name)
		default:
			keys = append(keys, key)
		}
	}
	observers := []string{"TraceWriter", "TraceLimit", "Metrics", "Profiler", "Flight"}
	if !reflect.DeepEqual(hostOnly, observers) {
		t.Fatalf("RunConfig fields tagged \"-\" are %v, want exactly %v", hostOnly, observers)
	}
	return keys
}

// setAllKnobs sets every knob to a non-zero value: bools true, numbers
// 4096.
func setAllKnobs(t *testing.T, k *rtlib.Knobs) {
	t.Helper()
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(4096)
		case reflect.Uint, reflect.Uint64:
			f.SetUint(4096)
		default:
			t.Fatalf("knob %s: no test value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// tamperKnob edits the value of one knob key in a sealed pack's manifest
// and requires the edit alone to fail verification with ExitBadManifest.
func tamperKnob(t *testing.T, dir, key string) {
	t.Helper()
	bad := tamper(t, dir, func(t *testing.T, dir string) {
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(`"` + regexp.QuoteMeta(key) + `": (true|-?[0-9]+)`)
		m := re.FindSubmatchIndex(data)
		if m == nil {
			t.Fatalf("%s not in the manifest", key)
		}
		next := "false"
		if val := string(data[m[2]:m[3]]); val != "true" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			next = strconv.FormatInt(n+1, 10)
		}
		edited := append(append(append([]byte{}, data[:m[2]]...), next...), data[m[3]:]...)
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := VerifyPath(bad); ExitCode(err) != ExitBadManifest {
		t.Fatalf("tampered %s: exit %d (%v), want %d", key, ExitCode(err), err, ExitBadManifest)
	}
}

// tamperRecordedKnobs runs tamperKnob, as one subtest named by its flag,
// for every knob the sealed pack in dir records.
func tamperRecordedKnobs(t *testing.T, dir string) {
	t.Helper()
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	kv := reflect.ValueOf(man.Run.Knobs)
	for _, f := range knobFields(t) {
		if kv.Field(f.index).IsZero() {
			continue
		}
		t.Run(f.flag, func(t *testing.T) { tamperKnob(t, dir, f.key) })
	}
}

// TestRunSpecCoversEveryKnob holds the runpack contract to rtlib.RunConfig
// field by field, so a new run field or knob is covered without editing
// this test: every field is either replayed (it has a runpack key) or
// one of the named host-only observers; every knob is set by exactly one
// rfvm flag, round-trips through a sealed manifest, and editing its key
// alone breaks the seal; and the replay spec with every replayed field
// set matches the golden file.
func TestRunSpecCoversEveryKnob(t *testing.T) {
	fields := knobFields(t)
	wantKeys := runKeys(t)
	spec := rtlib.RunConfig{Input: []uint64{40, 2}, Hardened: true, Memcheck: true, Abort: true,
		MaxCycles: 1_000_000, Forensics: true, RandomizeHeap: true}
	setAllKnobs(t, &spec.Knobs)

	golden, err := os.ReadFile(filepath.Join("testdata", "runspec.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := stableJSON(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("replay spec JSON drifted from testdata/runspec.golden.json:\n%s", got)
	}

	bin, err := juliet.CVECases()[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	binData, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"prog.relf"}, binData, bin, spec, &redfat.Result{}, nil); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	if !reflect.DeepEqual(*man.Run, spec) {
		t.Errorf("run spec did not round-trip: sealed %+v, read back %+v", spec, *man.Run)
	}
	manData, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Run map[string]json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(manData, &raw); err != nil {
		t.Fatal(err)
	}
	sent, back := reflect.ValueOf(spec.Knobs), reflect.ValueOf(man.Run.Knobs)
	for _, f := range fields {
		t.Run(f.flag, func(t *testing.T) {
			if !reflect.DeepEqual(back.Field(f.index).Interface(), sent.Field(f.index).Interface()) {
				t.Errorf("knob %s: sealed %v, read back %v", f.name,
					sent.Field(f.index), back.Field(f.index))
			}
			tamperKnob(t, dir, f.key)
		})
	}
	// Every replayed key is omitempty, so a replayed field the spec
	// above leaves zero shows up here as a missing key.
	var gotKeys []string
	for k := range raw.Run {
		gotKeys = append(gotKeys, k)
	}
	sort.Strings(gotKeys)
	sort.Strings(wantKeys)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Errorf("manifest run keys %v, want %v", gotKeys, wantKeys)
	}
}
