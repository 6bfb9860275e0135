package runpack

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"redfat"
	"redfat/internal/forensics"
	"redfat/internal/profile"
	core "redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// Well-known member names. Which members a pack carries depends on its
// kind and the flags of the recording run; the manifest is authoritative.
const (
	MemberBinary    = "binary.relf"   // run packs: the executed image
	MemberInput     = "input.relf"    // rewrite packs: the original image
	MemberHardened  = "hardened.relf" // rewrite packs: the produced image
	MemberResult    = "result.json"   // run packs: RunResult
	MemberReports   = "reports.json"  // run packs: forensic error reports
	MemberTelemetry = "telemetry.json"
	MemberFlight    = "flight.json"   // run packs: flight-recorder dump
	MemberAllowList = "allowlist.txt" // rewrite packs: profiling allow-list
	MemberRewrite   = "rewrite.json"  // rewrite packs: instrumentation report
)

// RunError is one detection in a packed RunResult (the replay-comparable
// projection of vm.MemError).
type RunError struct {
	Kind      string `json:"kind"`
	Addr      uint64 `json:"addr"`
	PC        uint64 `json:"pc"`
	Site      uint32 `json:"site,omitempty"`
	Component string `json:"component,omitempty"`
	Note      string `json:"note,omitempty"`
}

// RunResult is the packed outcome of an execution: everything replay
// must reproduce byte-for-byte (cycle counts, detections, output, and
// the stable exit status), plus a schema version so future readers can
// reject incompatible packs instead of misparsing them.
type RunResult struct {
	SchemaVersion int        `json:"schema_version"`
	ExitStatus    int        `json:"exit_status"` // stable rfvm exit code
	GuestExit     uint64     `json:"guest_exit"`
	Cycles        uint64     `json:"cycles"`
	Insts         uint64     `json:"insts"`
	Coverage      float64    `json:"coverage,omitempty"`
	Output        []byte     `json:"output,omitempty"`
	Errors        []RunError `json:"errors,omitempty"`
	DistinctSites int        `json:"distinct_sites,omitempty"`
	// Failure records a non-detection run failure (e.g. the cycle-budget
	// message); detections live in Errors instead.
	Failure string `json:"failure,omitempty"`
}

// BuildRunResult projects a finished execution into the packed form.
func BuildRunResult(res *redfat.Result, runErr error) *RunResult {
	rr := &RunResult{
		SchemaVersion: SchemaVersion,
		ExitStatus:    RunExit(res.ExitCode, res.Errors, runErr),
		GuestExit:     res.ExitCode,
		Cycles:        res.Cycles,
		Insts:         res.Insts,
		Coverage:      res.Coverage,
		Output:        res.Output,
		DistinctSites: redfat.DistinctErrorSites(res.Errors),
	}
	for i := range res.Errors {
		e := &res.Errors[i]
		rr.Errors = append(rr.Errors, RunError{
			Kind:      e.Kind.String(),
			Addr:      e.Addr,
			PC:        e.PC,
			Site:      e.Site,
			Component: e.Component,
			Note:      e.Note,
		})
	}
	var me *vm.MemError
	if runErr != nil && !errors.As(runErr, &me) {
		rr.Failure = runErr.Error()
	}
	return rr
}

// stableJSON is the single serialization used both when packing and when
// replaying, so byte comparison compares semantics, not formatting.
func stableJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// reportsJSON serializes forensic reports; an error-free run packs "[]"
// rather than omitting the member, so replay can always compare.
func reportsJSON(reps []*forensics.ErrorReport) ([]byte, error) {
	if reps == nil {
		reps = []*forensics.ErrorReport{}
	}
	return stableJSON(reps)
}

// KnobsFromOptions records a hardening configuration as a manifest
// KnobSpec, including the raw .rf.config bytes for exact replay.
func KnobsFromOptions(opt redfat.Options) *KnobSpec {
	return &KnobSpec{Options: opt, AllowList: opt.AllowList != nil,
		ConfigHex: hex.EncodeToString(core.EncodeConfig(opt))}
}

// KnobsFromBinary extracts the KnobSpec recorded in a hardened binary's
// .rf.config section (provenance for run packs). Reports false for
// unhardened binaries.
func KnobsFromBinary(bin *relf.Binary) (*KnobSpec, bool) {
	s := bin.Section(core.ConfigSection)
	if s == nil {
		return nil, false
	}
	opt, hasAllow, err := core.DecodeConfig(s.Data)
	if err != nil {
		return nil, false
	}
	return &KnobSpec{Options: opt, AllowList: hasAllow, ConfigHex: hex.EncodeToString(s.Data)}, true
}

// Config decodes the hardening configuration from the recorded config
// bytes, the form a rewrite pack replays (the allow-list itself, if any,
// is a separate member).
func (k *KnobSpec) Config() (redfat.Options, error) {
	if k.ConfigHex == "" {
		return redfat.Options{}, fmt.Errorf("runpack: knob spec has no config bytes")
	}
	raw, err := hex.DecodeString(k.ConfigHex)
	if err != nil {
		return redfat.Options{}, fmt.Errorf("runpack: bad config_hex: %v", err)
	}
	opt, _, err := core.DecodeConfig(raw)
	return opt, err
}

// RewriteReport is the packed projection of an instrumentation report —
// the counts replay re-derives and compares.
type RewriteReport struct {
	SchemaVersion int `json:"schema_version"`
	Operands      int `json:"operands"`
	Eliminated    int `json:"eliminated"`
	ElimDominated int `json:"elim_dominated"`
	Instrumented  int `json:"instrumented"`
	Checks        int `json:"checks"`
	Batches       int `json:"batches"`
	FullChecks    int `json:"full_checks"`
}

func buildRewriteReport(rep *redfat.Report) *RewriteReport {
	return &RewriteReport{
		SchemaVersion: SchemaVersion,
		Operands:      rep.Operands,
		Eliminated:    rep.Eliminated,
		ElimDominated: rep.ElimDominated,
		Instrumented:  rep.Instrumented,
		Checks:        rep.Checks,
		Batches:       rep.Batches,
		FullChecks:    rep.FullChecks,
	}
}

// PackRun writes a sealed run pack: the executed binary image (as loaded
// from disk), the run description cfg as the replay spec, the packed
// result, forensic reports when the run collected them, and the
// telemetry snapshot and flight-recorder dump of the observers cfg
// attached. flight.json participates in the digest chain like every
// member (tampering is detected), but replay does not re-derive it: the
// flight ring is a host-side observability artifact, and the replay spec
// records no observer.
func PackRun(dir string, args []string, binData []byte, bin *relf.Binary,
	cfg rtlib.RunConfig, res *redfat.Result, runErr error) error {
	b, err := NewBuilder(dir, KindRun, "rfvm", args)
	if err != nil {
		return err
	}
	b.SetRun(&cfg)
	if k, ok := KnobsFromBinary(bin); ok {
		b.SetKnobs(k)
	}
	b.AddBytes(MemberBinary, binData)
	resultData, err := stableJSON(BuildRunResult(res, runErr))
	if err != nil {
		return err
	}
	b.AddBytes(MemberResult, resultData)
	if cfg.Forensics {
		repData, err := reportsJSON(res.Reports)
		if err != nil {
			return err
		}
		b.AddBytes(MemberReports, repData)
	}
	if cfg.Metrics != nil {
		b.AddJSON(MemberTelemetry, cfg.Metrics.Snapshot())
	}
	if cfg.Flight != nil {
		flightData, err := stableJSON(cfg.Flight.Dump())
		if err != nil {
			return err
		}
		b.AddBytes(MemberFlight, flightData)
	}
	return b.Seal()
}

// PackRewrite writes a sealed rewrite pack: original and hardened image,
// the knob configuration (raw .rf.config bytes for exact replay), the
// allow-list when one was used, and the instrumentation report.
func PackRewrite(dir string, args []string, origData []byte, hard *relf.Binary,
	opt redfat.Options, allowData []byte, rep *redfat.Report) error {
	b, err := NewBuilder(dir, KindRewrite, "redfat", args)
	if err != nil {
		return err
	}
	b.SetKnobs(KnobsFromOptions(opt))
	hardData, err := hard.Marshal()
	if err != nil {
		return err
	}
	b.AddBytes(MemberInput, origData)
	b.AddBytes(MemberHardened, hardData)
	if allowData != nil {
		b.AddBytes(MemberAllowList, allowData)
	}
	b.AddJSON(MemberRewrite, buildRewriteReport(rep))
	return b.Seal()
}

// ReplayReport is the outcome of re-executing a pack's recorded work and
// diffing it against the packed artifacts.
type ReplayReport struct {
	Kind       string
	Compared   []string // members re-derived and compared
	Mismatched []string // subset whose replayed bytes differ
	// Run packs: packed vs replayed cycle counts and exit status.
	PackedCycles uint64
	ReplayCycles uint64
	PackedExit   int
	ReplayExit   int
}

// Identical reports whether every compared member reproduced exactly.
func (r *ReplayReport) Identical() bool { return len(r.Mismatched) == 0 }

// Err returns the replay verdict as an error (nil when identical), with
// the stable ExitReplayDiff code on divergence.
func (r *ReplayReport) Err() error {
	if r.Identical() {
		return nil
	}
	return &VerifyError{Code: ExitReplayDiff,
		Reason: fmt.Sprintf("replay diverged in %v", r.Mismatched)}
}

// Replay re-executes the work a verified pack recorded and byte-compares
// the regenerated artifacts against the packed ones. Callers should
// Verify first; Replay trusts the manifest.
func Replay(p *Pack, man *Manifest) (*ReplayReport, error) {
	switch man.Kind {
	case KindRun:
		return replayRun(p, man)
	case KindRewrite:
		return replayRewrite(p, man)
	}
	return nil, &VerifyError{Code: ExitUsage,
		Reason: fmt.Sprintf("replay is not supported for %q packs", man.Kind)}
}

// replayRun re-executes the packed binary under the recorded run
// description and compares result.json (cycles, detections, output,
// exit status) and reports.json byte-for-byte.
func replayRun(p *Pack, man *Manifest) (*ReplayReport, error) {
	if man.Run == nil {
		return nil, &VerifyError{Code: ExitBadSchema,
			Reason: "run pack has no run spec"}
	}
	binData, err := p.ReadMember(MemberBinary)
	if err != nil {
		return nil, err
	}
	bin, err := relf.Unmarshal(binData)
	if err != nil {
		return nil, err
	}
	res, runErr := redfat.Run(bin, *man.Run)
	if res == nil {
		return nil, runErr
	}
	rep := &ReplayReport{Kind: KindRun}
	fresh, err := stableJSON(BuildRunResult(res, runErr))
	if err != nil {
		return nil, err
	}
	if err := rep.compare(p, MemberResult, fresh); err != nil {
		return nil, err
	}
	if man.Run.Forensics {
		freshReports, err := reportsJSON(res.Reports)
		if err != nil {
			return nil, err
		}
		if err := rep.compare(p, MemberReports, freshReports); err != nil {
			return nil, err
		}
	}
	var packed RunResult
	if data, err := p.ReadMember(MemberResult); err == nil {
		if err := json.Unmarshal(data, &packed); err != nil {
			return nil, &VerifyError{Code: ExitBadSchema, Member: MemberResult,
				Reason: fmt.Sprintf("malformed packed result: %v", err)}
		}
	}
	rep.PackedCycles, rep.ReplayCycles = packed.Cycles, res.Cycles
	rep.PackedExit = packed.ExitStatus
	rep.ReplayExit = RunExit(res.ExitCode, res.Errors, runErr)
	return rep, nil
}

// replayRewrite re-hardens the packed original under the recorded knobs
// and compares the produced image (and report) byte-for-byte.
func replayRewrite(p *Pack, man *Manifest) (*ReplayReport, error) {
	if man.Knobs == nil {
		return nil, &VerifyError{Code: ExitBadSchema,
			Reason: "rewrite pack has no knob spec"}
	}
	origData, err := p.ReadMember(MemberInput)
	if err != nil {
		return nil, err
	}
	bin, err := relf.Unmarshal(origData)
	if err != nil {
		return nil, err
	}
	opt, err := man.Knobs.Config()
	if err != nil {
		return nil, err
	}
	if allowData, err := p.ReadMember(MemberAllowList); err == nil {
		allow, err := profile.Load(bytes.NewReader(allowData))
		if err != nil {
			return nil, err
		}
		opt.AllowList = allow
	}
	hard, hrep, err := redfat.Harden(bin, opt)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{Kind: KindRewrite}
	hardData, err := hard.Marshal()
	if err != nil {
		return nil, err
	}
	if err := rep.compare(p, MemberHardened, hardData); err != nil {
		return nil, err
	}
	freshReport, err := stableJSON(buildRewriteReport(hrep))
	if err != nil {
		return nil, err
	}
	if err := rep.compare(p, MemberRewrite, freshReport); err != nil {
		return nil, err
	}
	return rep, nil
}

// compare diffs freshly regenerated member bytes against the packed ones.
func (r *ReplayReport) compare(p *Pack, name string, fresh []byte) error {
	packed, err := p.ReadMember(name)
	if err != nil {
		return &VerifyError{Code: ExitMissing, Member: name,
			Reason: "member missing from pack"}
	}
	r.Compared = append(r.Compared, name)
	if !bytes.Equal(packed, fresh) {
		r.Mismatched = append(r.Mismatched, name)
	}
	return nil
}
