package rtlib_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/juliet"
	"redfat/internal/obs"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// goldenDetectSrc overflows a 40-byte object after three in-bounds
// stores; the store at top is patched with a TRAP (the next instruction
// is a jump target), so the run covers every execution-grain kind.
const goldenDetectSrc = `
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    call @rf_input
    mov $0, %rcx
top:
    mov %rcx, (%rbx)
body:
    add $1, %rcx
    cmp $3, %rcx
    jl top
    cmp $0, %rcx
    je body
    mov %rcx, (%rbx,%rax,8)
    mov $0, %rax
    ret
`

// goldenAllocSrc drives the baseline allocator through malloc, calloc
// and three frees (the last of NULL).
const goldenAllocSrc = `
.func main
    mov $24, %rdi
    call @malloc
    mov %rax, %rbx
    mov $4, %rdi
    mov $8, %rsi
    call @calloc
    mov %rax, %r12
    mov $7, %rcx
    mov %rcx, 8(%rbx)
    mov %rcx, 16(%r12)
    mov %rbx, %rdi
    call @free
    mov %r12, %rdi
    call @free
    mov $0, %rdi
    call @free
    mov $0, %rax
    ret
`

// goldenEvent is one event of testdata/exec_events.golden.json: the
// stream the separate execution-event tracer recorded for the two
// programs above before the flight recorder absorbed it. Addr and Aux
// were that tracer's two payload words.
type goldenEvent struct {
	Kind   string `json:"kind"`
	PC     uint64 `json:"pc"`
	Addr   uint64 `json:"addr,omitempty"`
	Aux    uint64 `json:"aux,omitempty"`
	Cycles uint64 `json:"cycles"`
}

// asGolden maps a flight event onto the golden's payload words; ok is
// false for the kinds only the flight recorder has.
func asGolden(e obs.Event) (g goldenEvent, ok bool) {
	g = goldenEvent{Kind: e.Kind.String(), PC: e.PC, Cycles: e.Cycles}
	switch e.Kind {
	case obs.EvInst:
		g.Aux = uint64(e.Reason)
	case obs.EvTrampEnter, obs.EvCheckPass, obs.EvCheckFail, obs.EvFree:
		g.Addr = e.Arg
	case obs.EvRTCall:
		g.Aux = e.Arg
	case obs.EvAlloc:
		g.Addr, g.Aux = e.Arg, e.Size
	default:
		return g, false
	}
	return g, true
}

// execFlight returns an execution-grain recorder large enough to keep a
// whole short run.
func execFlight() *obs.Flight {
	f := obs.NewFlight(1 << 12)
	f.Execution = true
	return f
}

// TestExecutionGrainMatchesTracerGolden holds the execution grain to the
// events the retired tracer recorded: same order, kinds, PCs, guest-cycle
// stamps and payloads. The only difference allowed is that check events
// no longer carry the site index (the tracer's Aux); their PC names the
// site.
func TestExecutionGrainMatchesTracerGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "exec_events.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenEvent
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	detect, err := asm.Assemble(goldenDetectSrc)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(detect, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := asm.Assemble(goldenAllocSrc)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(f *obs.Flight) error
	}{
		{"hardened-detect", func(f *obs.Flight) error {
			_, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: []uint64{40}, Abort: true, Flight: f})
			var me *vm.MemError
			if !errors.As(err, &me) {
				return errors.New("overflow not detected")
			}
			return nil
		}},
		{"baseline-alloc", func(f *obs.Flight) error {
			_, err := rtlib.RunBaseline(alloc, rtlib.RunConfig{Flight: f})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			want := golden[r.name]
			if len(want) == 0 {
				t.Fatalf("golden has no %q stream", r.name)
			}
			for i := range want {
				if want[i].Kind == "check-pass" || want[i].Kind == "check-fail" {
					want[i].Aux = 0
				}
			}
			f := execFlight()
			if err := r.run(f); err != nil {
				t.Fatal(err)
			}
			var got []goldenEvent
			for _, e := range f.Events() {
				if g, ok := asGolden(e); ok {
					got = append(got, g)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("execution-grain stream diverged from the golden:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// heapEvent is the allocator view of one flight event.
type heapEvent struct {
	Kind string
	PC   uint64
	Arg  uint64
	Size uint64
}

// heapEvents keeps the allocator and check-failure events of a ring.
func heapEvents(f *obs.Flight) []heapEvent {
	var out []heapEvent
	for _, e := range f.Events() {
		switch e.Kind {
		case obs.EvAlloc, obs.EvFree, obs.EvCheckFail:
			out = append(out, heapEvent{e.Kind.String(), e.PC, e.Arg, e.Size})
		}
	}
	return out
}

// TestReallocRecordsAllocAndFree runs the Juliet "dangling alias left by
// realloc" flow: the realloc that moves the object must leave the new
// block's alloc and the old block's free, in the allocator's order,
// between the original malloc and the use-after-free it sets up.
func TestReallocRecordsAllocAndFree(t *testing.T) {
	var uaf *juliet.Case
	for _, c := range juliet.UAFCases() {
		if c.ID == "CWE416_f3_W_v0" {
			uaf = c
		}
	}
	if uaf == nil {
		t.Fatal("CWE416_f3_W_v0 not generated")
	}
	bin, err := uaf.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	f := execFlight()
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: juliet.Trigger(uaf), Abort: true, Flight: f})
	var me *vm.MemError
	if !errors.As(err, &me) || me.Kind != vm.ErrUseAfterFree {
		t.Fatalf("want a use-after-free, got %v", err)
	}
	const old = 0x1800000010
	moved := v.Regs[isa.R13]
	if moved == 0 || moved == old {
		t.Fatalf("realloc did not move the object: %#x", moved)
	}
	want := []heapEvent{
		{"alloc", 0x40000a, old, 24},
		{"alloc", 0x40001e, moved, 96},
		{"free", 0x40001e, old, 0},
		{"check-fail", 0x400022, me.Addr, 0},
	}
	if got := heapEvents(f); !reflect.DeepEqual(got, want) {
		t.Errorf("allocator events:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestReallocEdgeEvents covers the non-moving shapes on both heaps:
// realloc(NULL, n) only allocates, realloc(p, 0) only frees, and a
// shrink the baseline heap serves in place records nothing.
func TestReallocEdgeEvents(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 0)
	b.MovRI(isa.RSI, 32)
	b.CallImport("realloc") // alloc only
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRR(isa.RDI, isa.RBX)
	b.MovRI(isa.RSI, 16)
	b.CallImport("realloc") // in place on the baseline heap
	b.MovRR(isa.R12, isa.RAX)
	b.MovRR(isa.RDI, isa.R12)
	b.MovRI(isa.RSI, 0)
	b.CallImport("realloc") // free only
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(bin *relf.Binary, cfg rtlib.RunConfig) (*vm.VM, error)
	}{
		{"baseline", rtlib.RunBaseline},
		{"redfat", func(bin *relf.Binary, cfg rtlib.RunConfig) (*vm.VM, error) {
			v, _, err := rtlib.RunLinked(bin, nil, cfg)
			return v, err
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			f := execFlight()
			v, err := r.run(bin, rtlib.RunConfig{Flight: f})
			if err != nil {
				t.Fatal(err)
			}
			p, q := v.Regs[isa.RBX], v.Regs[isa.R12]
			want := []heapEvent{{"alloc", 0x40000e, p, 32}}
			if q != p {
				want = append(want, heapEvent{"alloc", 0x40001e, q, 16}, heapEvent{"free", 0x40001e, p, 0})
			}
			want = append(want, heapEvent{"free", 0x400030, q, 0})
			if got := heapEvents(f); !reflect.DeepEqual(got, want) {
				t.Errorf("allocator events:\n got: %+v\nwant: %+v", got, want)
			}
			if r.name == "baseline" && q != p {
				t.Error("the baseline heap moved a shrinking realloc; the in-place shape is unexercised")
			}
		})
	}
}
