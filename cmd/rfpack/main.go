// rfpack inspects, verifies, packages and replays runpacks — the
// digest-signed run artifacts emitted by rfvm -runpack and
// redfat -runpack (see internal/runpack and DESIGN.md §13).
//
// Usage:
//
//	rfpack verify <pack>          re-check every digest and the manifest seal
//	rfpack replay <pack>          verify, re-execute, and diff byte-for-byte
//	rfpack show   <pack>          print the manifest JSON
//	rfpack tar    <dir> <out.tgz> write a deterministic tarball of a pack
//
// <pack> is a pack directory or a .tar.gz/.tgz produced by `rfpack tar`
// (replay of a tarball works too: members are read from the archive).
//
// Exit codes are stable for CI scripting:
//
//	0  pack verified / replay byte-identical
//	1  I/O or internal failure
//	2  bad command line
//	3  a member's content digest or size does not match the manifest
//	4  the manifest seal or the chained content digest is broken
//	5  a member is missing, renamed, or not listed in the manifest
//	6  unsupported manifest schema version / malformed manifest
//	7  replay diverged from the packed artifacts
package main

import (
	"fmt"
	"os"

	"redfat/internal/runpack"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return runpack.ExitUsage
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "verify":
		if len(rest) != 1 {
			usage()
			return runpack.ExitUsage
		}
		return verify(rest[0])
	case "replay":
		if len(rest) != 1 {
			usage()
			return runpack.ExitUsage
		}
		return replay(rest[0])
	case "show":
		if len(rest) != 1 {
			usage()
			return runpack.ExitUsage
		}
		return show(rest[0])
	case "tar":
		if len(rest) != 2 {
			usage()
			return runpack.ExitUsage
		}
		return tarball(rest[0], rest[1])
	}
	usage()
	return runpack.ExitUsage
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: rfpack <command> ...
  rfpack verify <pack>           verify all digests and the manifest seal
  rfpack replay <pack>           verify, re-execute, and diff byte-for-byte
  rfpack show   <pack>           print the manifest JSON
  rfpack tar    <dir> <out.tgz>  write a deterministic tarball of a pack
`)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "rfpack:", err)
	return runpack.ExitCode(err)
}

func verify(path string) int {
	man, err := runpack.VerifyPath(path)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("rfpack: %s: %s pack (%s, schema %d), %d member(s) verified OK\n",
		path, man.Kind, man.Tool, man.SchemaVersion, len(man.Members))
	return runpack.ExitOK
}

func replay(path string) int {
	p, err := runpack.Open(path)
	if err != nil {
		return fail(err)
	}
	man, err := runpack.Verify(p)
	if err != nil {
		return fail(err)
	}
	rep, err := runpack.Replay(p, man)
	if err != nil {
		return fail(err)
	}
	if man.Kind == runpack.KindRun {
		fmt.Printf("rfpack: replayed %s pack: cycles %d (packed %d), exit %d (packed %d)\n",
			rep.Kind, rep.ReplayCycles, rep.PackedCycles, rep.ReplayExit, rep.PackedExit)
	}
	if err := rep.Err(); err != nil {
		return fail(err)
	}
	fmt.Printf("rfpack: %s: replay byte-identical across %v\n", path, rep.Compared)
	return runpack.ExitOK
}

func show(path string) int {
	p, err := runpack.Open(path)
	if err != nil {
		return fail(err)
	}
	data, err := p.ReadMember(runpack.ManifestName)
	if err != nil {
		return fail(err)
	}
	os.Stdout.Write(data)
	return runpack.ExitOK
}

func tarball(dir, out string) int {
	if _, err := runpack.VerifyPath(dir); err != nil {
		return fail(err)
	}
	f, err := os.Create(out)
	if err != nil {
		return fail(err)
	}
	if err := runpack.Tar(dir, f); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Printf("rfpack: wrote %s\n", out)
	return runpack.ExitOK
}
