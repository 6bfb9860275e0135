package asm_test

import (
	"errors"
	"strings"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/mem"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

func runText(t *testing.T, src string, input ...uint64) *vm.VM {
	t.Helper()
	bin, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	v := vm.New(m)
	v.Input = input
	v.MaxCycles = 50_000_000
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestAssembleQuickstart(t *testing.T) {
	v := runText(t, `
# sum the numbers 1..10
.func main
    mov $0, %rax
    mov $1, %rcx
loop:
    add %rcx, %rax
    add $1, %rcx
    cmp $10, %rcx
    jle loop
    ret
`)
	if v.ExitCode != 55 {
		t.Errorf("exit = %d, want 55", v.ExitCode)
	}
}

func TestAssembleMemoryAndData(t *testing.T) {
	v := runText(t, `
.data
table: .quad 5, 10, 15
msg:   .asciz "hi"
buf:   .zero 64

.text
.func main
    mov $table, %rbx
    mov (%rbx), %rax
    add 8(%rbx), %rax
    add 16(%rbx), %rax      ; 30
    mov $buf, %rcx
    mov %rax, (%rcx)
    movb $7, 9(%rcx)
    movzxb 9(%rcx), %rdx     ; not real x86 syntax; see below
    ret
`)
	// movzxb parses as movzx with b suffix.
	if v.ExitCode != 30 {
		t.Errorf("exit = %d, want 30", v.ExitCode)
	}
}

func TestAssembleCallsAndImports(t *testing.T) {
	v := runText(t, `
.func main
    mov $24, %rdi
    call @malloc
    mov %rax, %rbx
    mov $42, %rcx
    mov %rcx, (%rbx)
    call helper
    mov %rbx, %rdi
    push %rax
    call @free
    pop %rax
    ret

.func helper
    mov (%rbx), %rax
    ret
`)
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", v.ExitCode)
	}
}

func TestAssembleIndirect(t *testing.T) {
	v := runText(t, `
.func main
    mov $target, %rbx
    call *%rbx
    ret
.func target
    mov $9, %rax
    ret
`)
	if v.ExitCode != 9 {
		t.Errorf("exit = %d, want 9", v.ExitCode)
	}
}

func TestAssembleScaledOperand(t *testing.T) {
	v := runText(t, `
.data
arr: .quad 1, 2, 4, 8

.text
.func main
    mov $arr, %rbx
    mov $2, %rcx
    mov (%rbx,%rcx,8), %rax    ; arr[2] = 4
    add -8(%rbx,%rcx,8), %rax  ; + arr[1] = 6
    ret
`)
	if v.ExitCode != 6 {
		t.Errorf("exit = %d, want 6", v.ExitCode)
	}
}

func TestAssemblePIC(t *testing.T) {
	bin, err := asm.Assemble(`
.pic
.data
g: .quad 41

.text
.func main
    mov g, %rax
    add $1, %rax
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if !bin.PIC {
		t.Fatal("not PIC")
	}
	bin.Rebase(0x3000_0000_0000)
	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", v.ExitCode)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus %rax",                                             // unknown mnemonic
		".func main\n mov $1, $2",                                // bad operands
		".func main\n jmp @malloc",                               // jump to import
		".unknowndirective",                                      // bad directive
		".func main\n mov %nope, %rax",                           // bad register
		".func main\n mov 4(%rbx, %rax",                          // unclosed operand
		".data\nx: .quad 1\nx: .quad 2\n.text\n.func main\n ret", // dup label
	}
	for _, src := range cases {
		if _, err := asm.Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
	// Errors carry line information.
	_, err := asm.Assemble(".func main\n ret\n bogus %rax\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error lacks line info: %v", err)
	}
}

// TestAssembleRejectsTruncatedOperands: an operand the encoding cannot
// hold is an error, never silently truncated into a different one.
func TestAssembleRejectsTruncatedOperands(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"rip as a register", ".func main\n push %rip\n ret", "bad register %rip"},
		{"disp beyond int32", ".func main\n mov 99999999999(%rax), %rbx\n ret", "out of disp32 range"},
		{"scale beyond uint8", ".func main\n mov 8(%rax,%rbx,257), %rcx\n ret", "bad scale 257"},
		{"bss wraps the address space", ".data\nbuf:\n.zero 18446744073709551615\n.text\n.func main\n ret", ".zero size"},
		{"symbol load drops its base", ".data\nt: .quad 1\n.text\n.func main\n mov t(%rbx), %rax\n ret", "symbolic displacement"},
		{"symbol store drops its index", ".data\nt: .quad 1\n.text\n.func main\n mov %rax, t(,%rcx,8)\n ret", "symbolic displacement"},
		{"table jump drops its symbol", ".func main\n jmp *jt(,%rcx,8)\n ret", "symbolic displacement"},
		{"indirect jump drops its symbol", ".func main\n jmp *main()\n ret", "symbolic indirect target"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin, err := asm.Assemble(c.src)
			if err == nil {
				t.Fatalf("assembled to %d bytes of text, want an error", len(bin.Text().Data))
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestLongNameDoesNotMarshal: a RELF name holds at most 65,535 bytes,
// so an image with a longer label is refused, never saved with the
// name cut short (a cut import name would bind a different routine).
func TestLongNameDoesNotMarshal(t *testing.T) {
	bin, err := asm.Assemble(".func main\n ret\n.func " + strings.Repeat("f", 70000) + "\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Marshal()
	var fe *relf.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Marshal = %d bytes, %v; want a *relf.FormatError", len(img), err)
	}
}
