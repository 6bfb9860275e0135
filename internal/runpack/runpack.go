// Package runpack implements digest-signed run artifacts: an rfvm
// execution or a redfat rewrite can be captured as a self-describing
// directory — the inputs, knobs, detection reports and measurements that
// produced a result — integrity-checked so that any later reader can
// prove the artifact is exactly what the tool wrote, and replayable so
// that any detection or cycle count can be reproduced byte-for-byte on
// demand.
//
// A runpack is a flat directory (or a deterministic .tar.gz of one, see
// Tar) holding:
//
//   - manifest.json — the signed manifest: schema version, pack kind,
//     tool identity, CLI argv, the run/knob specification, and one entry
//     per member file (name, size, SHA-256), plus the chained content
//     digest over all members in order.
//   - runpack.digest — "rfpack1 <hex sha256 of manifest.json>". Editing
//     the manifest (or its digest) breaks this outer seal.
//   - member files — the recorded binary, result.json, reports.json,
//     telemetry.json, ... as listed in the manifest.
//
// The digest chain is
//
//	chain_0 = SHA-256("redfat-runpack-chain-v1")
//	chain_i = SHA-256(chain_{i-1} ‖ name_i ‖ 0x00 ‖ SHA-256(content_i))
//
// so tampering with any member, reordering, renaming, or dropping one
// changes the final chain digest even if the per-member hashes are also
// edited to match — and editing the manifest to cover the tracks breaks
// the outer runpack.digest seal instead.
//
// Manifests are deliberately timestamp-free: a pack's bytes are a pure
// function of the inputs, knobs and tool version, which keeps packs
// content-addressable and lets replay demand byte equality.
package runpack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"redfat"
	"redfat/internal/rtlib"
)

// SchemaVersion versions the manifest encoding. Verify rejects packs
// written by a different major schema.
const SchemaVersion = 1

// ToolVersion identifies the writing tool generation inside manifests.
const ToolVersion = "redfat-go/6"

// Reserved file names inside a pack (not members of the digest chain;
// the manifest is sealed by runpack.digest instead).
const (
	ManifestName = "manifest.json"
	DigestName   = "runpack.digest"
)

// digestPrefix tags the outer seal file format.
const digestPrefix = "rfpack1"

// chainSeed starts the member digest chain.
const chainSeed = "redfat-runpack-chain-v1"

// Pack kinds.
const (
	KindRun     = "run"     // an rfvm execution (binary + result + reports)
	KindRewrite = "rewrite" // a redfat hardening (input + hardened binary)
)

// Member is one recorded file of a pack.
type Member struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// KnobSpec is the hardening record: the .rf.config configuration the
// binary carries (which checks, which optimizations shaped them),
// whether an allow-list gated it, and the raw config bytes replay
// decodes. For rewrite packs it is the configuration to replay; for run
// packs it is provenance extracted from the executed binary.
type KnobSpec struct {
	redfat.Options
	AllowList bool   `json:"allow_list,omitempty"`
	ConfigHex string `json:"config_hex,omitempty"` // raw .rf.config bytes
}

// Manifest is the signed description of a pack.
type Manifest struct {
	SchemaVersion int              `json:"schema_version"`
	Kind          string           `json:"kind"`
	Tool          string           `json:"tool"`
	ToolVersion   string           `json:"tool_version"`
	GitRev        string           `json:"git_rev,omitempty"`
	Args          []string         `json:"args,omitempty"`
	Run           *rtlib.RunConfig `json:"run,omitempty"` // run packs: the replay spec
	Knobs         *KnobSpec        `json:"knobs,omitempty"`
	Members       []Member         `json:"members"`
	ChainDigest   string           `json:"chain_digest"`
}

// GitRev best-effort reads the VCS revision stamped into the running
// binary ("" when the build carries none, e.g. test binaries).
func GitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
}

// Builder accumulates members and seals them into a pack directory.
// Member order is insertion order and becomes part of the digest chain,
// so callers must add members in a deterministic sequence (never from a
// map iteration — rfvet enforces this).
type Builder struct {
	dir string
	man Manifest
	err error
}

// NewBuilder creates (or reuses) the pack directory and starts a
// manifest of the given kind for the given tool invocation.
func NewBuilder(dir, kind, tool string, args []string) (*Builder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Builder{
		dir: dir,
		man: Manifest{
			SchemaVersion: SchemaVersion,
			Kind:          kind,
			Tool:          tool,
			ToolVersion:   ToolVersion,
			GitRev:        GitRev(),
			Args:          args,
		},
	}, nil
}

// SetRun attaches the replay specification (run packs).
func (b *Builder) SetRun(cfg *rtlib.RunConfig) { b.man.Run = cfg }

// SetKnobs attaches the hardening configuration.
func (b *Builder) SetKnobs(k *KnobSpec) { b.man.Knobs = k }

// AddBytes records one member file. Names must be flat (no separators)
// and must not collide with the reserved manifest/digest names. Errors
// are sticky and reported by Seal.
func (b *Builder) AddBytes(name string, data []byte) {
	if b.err != nil {
		return
	}
	if strings.ContainsAny(name, "/\\") || name == ManifestName || name == DigestName || name == "" {
		b.err = fmt.Errorf("runpack: invalid member name %q", name)
		return
	}
	for _, m := range b.man.Members {
		if m.Name == name {
			b.err = fmt.Errorf("runpack: duplicate member %q", name)
			return
		}
	}
	if err := os.WriteFile(filepath.Join(b.dir, name), data, 0o644); err != nil {
		b.err = err
		return
	}
	sum := sha256.Sum256(data)
	b.man.Members = append(b.man.Members, Member{
		Name:   name,
		Size:   int64(len(data)),
		SHA256: hex.EncodeToString(sum[:]),
	})
}

// AddJSON records a member serialized as indented JSON (struct key order,
// so byte-stable for tagged types; map keys are sorted by encoding/json).
func (b *Builder) AddJSON(name string, v any) {
	if b.err != nil {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b.err = err
		return
	}
	b.AddBytes(name, append(data, '\n'))
}

// Seal computes the digest chain, writes manifest.json, and signs it
// with runpack.digest. After Seal the pack verifies.
func (b *Builder) Seal() error {
	if b.err != nil {
		return b.err
	}
	b.man.ChainDigest = chainDigest(b.man.Members)
	data, err := json.MarshalIndent(&b.man, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(b.dir, ManifestName), data, 0o644); err != nil {
		return err
	}
	seal := sha256.Sum256(data)
	line := fmt.Sprintf("%s %s\n", digestPrefix, hex.EncodeToString(seal[:]))
	return os.WriteFile(filepath.Join(b.dir, DigestName), []byte(line), 0o644)
}

// chainDigest folds the members, in order, into the chained digest: each
// link binds the previous link, the member name, and the member content
// hash, so renames and reorders change the result as surely as edits.
func chainDigest(members []Member) string {
	h := sha256.Sum256([]byte(chainSeed))
	chain := h[:]
	for _, m := range members {
		raw, err := hex.DecodeString(m.SHA256)
		if err != nil {
			raw = []byte(m.SHA256) // malformed hex still chains deterministically
		}
		e := sha256.New()
		e.Write(chain)
		e.Write([]byte(m.Name))
		e.Write([]byte{0})
		e.Write(raw)
		chain = e.Sum(nil)
	}
	return hex.EncodeToString(chain)
}
