package rtlib

import "flag"

// Knobs declares every execution knob once. RunConfig embeds it, so a
// knob travels from the rfvm flag line through a run and into a
// replayed runpack as one value. The JSON tags are the runpack keys, in
// manifest order, and every knob has one: a pack replays all of them.
// Only the shared run set-up (NewProcess and the heap and libc builders
// in exec.go) applies them. Host timing is not a knob: perfbench
// measures the pipelines with the fast paths as they ship.
//
// Adding a knob means a field here with its tag and flag, the set-up
// line that applies it, and the package that implements it.
type Knobs struct {
	// NoJIT disables the superblock tier (compiled traces over hot
	// chained blocks), pinning execution to the block interpreter. Guest
	// results are identical either way, but the tier replaces the
	// execution engine wholesale, so replay restores it as provenance.
	NoJIT bool `json:"no_jit,omitempty"`

	// JITThreshold overrides the block-hotness threshold at which traces
	// are compiled (0 keeps vm.DefaultJITThreshold).
	JITThreshold uint64 `json:"jit_threshold,omitempty"`

	// NoLibcCheck disables the run's libc checking — the hardened span
	// intrinsics, or Memcheck's mem* interposition — reverting the
	// modelled libc to its unchecked baseline bindings. Guest-visible:
	// span checks charge cycles and produce detections.
	NoLibcCheck bool `json:"no_libc_check,omitempty"`

	// QuarantineBytes overrides the RedFat heap's free quarantine budget
	// (-1 disables the quarantine entirely, 0 keeps the default).
	QuarantineBytes int64 `json:"quarantine_bytes,omitempty"`

	// Canary arms canary-poisoned redzones: allocation slack is filled
	// with redzone.CanaryByte, verified on free and on span-check
	// crossings (libredfat's REDFAT_CANARY mode).
	Canary bool `json:"canary,omitempty"`

	// UnderAllocEvery, when >0, under-allocates roughly one in every N
	// heap objects by a single byte (libredfat's REDFAT_TEST self-test
	// mode, deterministic via vm.NextRand). Induced detections carry a
	// "self-test under-allocation" note tag.
	UnderAllocEvery uint64 `json:"under_alloc_every,omitempty"`
}

// RegisterFlags registers one command-line flag per knob on fs, each
// writing straight into k.
func (k *Knobs) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&k.NoJIT, "nojit", false, "disable the superblock trace tier (host A/B validation)")
	fs.Uint64Var(&k.JITThreshold, "jit-threshold", 0, "block hotness before trace compilation (0 = default)")
	fs.BoolVar(&k.NoLibcCheck, "nolibccheck", false, "disable the hardened libc span intrinsics (ablation; guest-visible)")
	fs.Int64Var(&k.QuarantineBytes, "quarantine", 0, "free-quarantine byte budget (-1 disables, 0 default; hardened runs)")
	fs.BoolVar(&k.Canary, "canary", false, "arm canary-poisoned redzones (verified on free and span checks; hardened runs)")
	fs.Uint64Var(&k.UnderAllocEvery, "underalloc", 0, "self-test: under-allocate ~1 in N heap objects by one byte (0 = off; hardened runs)")
}

// HeapModes reports whether any allocator mode is set. The modes
// configure the RedFat heap and mean nothing on any other, so a run
// without that heap refuses them.
func (k *Knobs) HeapModes() bool {
	return k.QuarantineBytes != 0 || k.Canary || k.UnderAllocEvery != 0
}
