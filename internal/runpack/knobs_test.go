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
	key   string // RunSpec key
	flag  string // the one flag RegisterFlags gives it
}

// knobFields walks rtlib.Knobs and pairs each field with the flag that
// sets it and its RunSpec key, failing unless RegisterFlags gives every
// field exactly one flag and every flag exactly one field, and unless
// every field has a RunSpec key: a knob replay does not restore has to
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
			t.Fatalf("knob %s has no RunSpec key (json tag %q); every execution knob is replayed",
				sf.Name, sf.Tag.Get("json"))
		}
		fields[i] = knobField{index: i, name: sf.Name, key: key, flag: flagsOf[i][0]}
	}
	return fields
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

// TestRunSpecCoversEveryKnob holds the runpack contract to rtlib.Knobs
// field by field, so a new knob is covered without editing this test:
// exactly one rfvm flag sets it; it has a RunSpec key, round-trips
// through a sealed RunSpec, and editing its key alone breaks the seal;
// and the RunSpec bytes with every knob set match the golden file.
func TestRunSpecCoversEveryKnob(t *testing.T) {
	fields := knobFields(t)
	spec := RunSpec{Input: []uint64{40, 2}, Hardened: true, Memcheck: true, Abort: true,
		MaxCycles: 1_000_000, Forensics: true}
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
		t.Errorf("RunSpec JSON drifted from testdata/runspec.golden.json:\n%s", got)
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
	if err := PackRun(dir, []string{"prog.relf"}, binData, bin, spec,
		&redfat.Result{}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
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
	wantKeys := []string{"input", "hardened", "memcheck", "abort", "max_cycles", "forensics"}
	sent, back := reflect.ValueOf(spec.Knobs), reflect.ValueOf(man.Run.Knobs)
	for _, f := range fields {
		t.Run(f.flag, func(t *testing.T) {
			if !reflect.DeepEqual(back.Field(f.index).Interface(), sent.Field(f.index).Interface()) {
				t.Errorf("knob %s: sealed %v, read back %v", f.name,
					sent.Field(f.index), back.Field(f.index))
			}
			tamperKnob(t, dir, f.key)
		})
		wantKeys = append(wantKeys, f.key)
	}
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
