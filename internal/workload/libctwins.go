package workload

// Libc-intrinsic twins: pairs of single-kernel benchmarks doing the same
// work, one through a guest-side byte loop (per-access checks when
// hardened) and one through the modelled libc intrinsic (one O(1) span
// check per call). The guest checksum is identical within a pair, so the
// pair isolates exactly the check-cost difference the paper's libredfat
// §2.1 interposition buys on string/stencil workloads.

import (
	"redfat/internal/asm"
	"redfat/internal/isa"
)

// Twin is one loop/intrinsic benchmark pair. Both members produce the
// same exit checksum; only their guest cycle counts differ. Build each
// member with its usual Benchmark.Build.
type Twin struct {
	Name string
	Loop *Benchmark // guest byte-loop variant (per-access checks)
	Intr *Benchmark // libc-intrinsic variant (span checks)
}

// twinKernel wraps emit as the single kernel of a one-kernel benchmark:
// reps = scale>>6 + 1 (libc calls make iterations comparatively heavy).
func twinKernel(name string, emit func(*emitter)) *Benchmark {
	const refScale = 4000
	return &Benchmark{
		Name: name, Lang: C,
		Kerns:      []Kern{{Kind: KCustom, ScaleShift: 6, Emit: emit}},
		RefOnly:    []bool{false},
		TrainScale: refScale / 8, RefScale: refScale,
	}
}

// LibcTwins returns the intrinsic/loop twin pairs. They are deliberately
// NOT part of All(): Table 1's benchmark set, planted counts and rows
// stay exactly as seeded; the twins feed the perf-smoke guard
// (TestPerfSmokeLibcSpan), which logs each pair's guest cycles and their
// ratio.
func LibcTwins() []Twin {
	return []Twin{
		{
			Name: "memcpy",
			Loop: twinKernel("copyloop", (*emitter).copyLoop),
			Intr: twinKernel("copyintr", (*emitter).copyIntr),
		},
		{
			Name: "strlen",
			Loop: twinKernel("scanloop", (*emitter).scanLoop),
			Intr: twinKernel("scanintr", (*emitter).scanIntr),
		},
	}
}

const (
	twinBuf  = 8192 // copy-twin buffer bytes
	twinStr  = 4096 // string-twin buffer bytes (last byte NUL)
	twinByte = 0x21 // fill base (never zero: strlen must run to the NUL)
)

// twinFillCopy fills the src buffer in RBX with i&0xFF.
func (e *emitter) twinFillCopy() {
	b := e.b
	b.MovRI(isa.RCX, 0)
	fill := e.lbl("fill")
	b.Label(fill)
	b.MovRR(isa.RDX, isa.RCX)
	b.AluRI(isa.AND, isa.RDX, 0xFF)
	b.StoreM(asm.MemBID(isa.RBX, isa.RCX, 1, 0), isa.RDX, 1)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, twinBuf)
	b.Jcc(isa.JL, fill)
}

// twinSumDst leaves the byte-sum of the R13 buffer in RAX.
func (e *emitter) twinSumDst() {
	b := e.b
	b.MovRI(isa.RAX, 0)
	b.MovRI(isa.RCX, 0)
	sum := e.lbl("sum")
	b.Label(sum)
	b.Emit(isa.Inst{Op: isa.MOVZX, Form: isa.FRM, Reg: isa.RDX, Size: 1,
		Mem: asm.MemBID(isa.R13, isa.RCX, 1, 0)})
	b.AluRR(isa.ADD, isa.RAX, isa.RDX)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, twinBuf)
	b.Jcc(isa.JL, sum)
}

// copyLoop: reps × (copy twinBuf bytes src→dst with a guest byte loop).
// Hardened runs pay one load check + one store check per byte.
func (e *emitter) copyLoop() {
	b := e.b
	e.prologue()
	e.malloc(isa.RBX, twinBuf) // src
	e.malloc(isa.R13, twinBuf) // dst
	e.twinFillCopy()
	b.MovRR(isa.R14, isa.R12) // reps
	outer := e.lbl("outer")
	inner := e.lbl("inner")
	b.Label(outer)
	b.MovRI(isa.RCX, 0)
	b.Label(inner)
	b.Emit(isa.Inst{Op: isa.MOVZX, Form: isa.FRM, Reg: isa.RDX, Size: 1,
		Mem: asm.MemBID(isa.RBX, isa.RCX, 1, 0)})
	b.StoreM(asm.MemBID(isa.R13, isa.RCX, 1, 0), isa.RDX, 1)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, twinBuf)
	b.Jcc(isa.JL, inner)
	b.AluRI(isa.SUB, isa.R14, 1)
	b.AluRI(isa.CMP, isa.R14, 0)
	b.Jcc(isa.JG, outer)
	e.twinSumDst()
	e.callFree(isa.RBX)
	e.callFree(isa.R13)
	e.epilogue()
}

// copyIntr: the same reps × twinBuf-byte copies through memcpy — one
// span-checked intrinsic call per rep instead of 2×twinBuf checks.
func (e *emitter) copyIntr() {
	b := e.b
	e.prologue()
	e.malloc(isa.RBX, twinBuf) // src
	e.malloc(isa.R13, twinBuf) // dst
	e.twinFillCopy()
	b.MovRR(isa.R14, isa.R12) // reps
	outer := e.lbl("outer")
	b.Label(outer)
	b.MovRR(isa.RDI, isa.R13)
	b.MovRR(isa.RSI, isa.RBX)
	b.MovRI(isa.RDX, twinBuf)
	b.CallImport("memcpy")
	b.AluRI(isa.SUB, isa.R14, 1)
	b.AluRI(isa.CMP, isa.R14, 0)
	b.Jcc(isa.JG, outer)
	e.twinSumDst()
	e.callFree(isa.RBX)
	e.callFree(isa.R13)
	e.epilogue()
}

// twinFillStr fills the RBX buffer with nonzero bytes and a final NUL.
func (e *emitter) twinFillStr() {
	b := e.b
	b.MovRI(isa.RCX, 0)
	fill := e.lbl("fill")
	b.Label(fill)
	b.MovRR(isa.RDX, isa.RCX)
	b.AluRI(isa.AND, isa.RDX, 0x3F)
	b.AluRI(isa.ADD, isa.RDX, twinByte)
	b.StoreM(asm.MemBID(isa.RBX, isa.RCX, 1, 0), isa.RDX, 1)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, twinStr-1)
	b.Jcc(isa.JL, fill)
	b.StoreI(isa.RBX, twinStr-1, 0, 1)
}

// scanLoop: reps × (measure the string with a guest byte loop).
func (e *emitter) scanLoop() {
	b := e.b
	e.prologue()
	e.malloc(isa.RBX, twinStr)
	e.twinFillStr()
	b.MovRR(isa.R14, isa.R12) // reps
	b.MovRI(isa.RAX, 0)       // checksum: sum of lengths
	outer := e.lbl("outer")
	scan := e.lbl("scan")
	done := e.lbl("done")
	b.Label(outer)
	b.MovRI(isa.RCX, 0)
	b.Label(scan)
	b.Emit(isa.Inst{Op: isa.MOVZX, Form: isa.FRM, Reg: isa.RDX, Size: 1,
		Mem: asm.MemBID(isa.RBX, isa.RCX, 1, 0)})
	b.AluRI(isa.CMP, isa.RDX, 0)
	b.Jcc(isa.JE, done)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.Jmp(scan)
	b.Label(done)
	b.AluRR(isa.ADD, isa.RAX, isa.RCX)
	b.AluRI(isa.SUB, isa.R14, 1)
	b.AluRI(isa.CMP, isa.R14, 0)
	b.Jcc(isa.JG, outer)
	e.callFree(isa.RBX)
	e.epilogue()
}

// scanIntr: the same length sums through the strlen intrinsic.
func (e *emitter) scanIntr() {
	b := e.b
	e.prologue()
	e.malloc(isa.RBX, twinStr)
	e.twinFillStr()
	b.MovRR(isa.R14, isa.R12) // reps
	b.MovRI(isa.R13, 0)       // checksum accumulator
	outer := e.lbl("outer")
	b.Label(outer)
	b.MovRR(isa.RDI, isa.RBX)
	b.CallImport("strlen")
	b.AluRR(isa.ADD, isa.R13, isa.RAX)
	b.AluRI(isa.SUB, isa.R14, 1)
	b.AluRI(isa.CMP, isa.R14, 0)
	b.Jcc(isa.JG, outer)
	b.MovRR(isa.RAX, isa.R13)
	e.callFree(isa.RBX)
	e.epilogue()
}
