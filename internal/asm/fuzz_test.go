package asm_test

import (
	"bytes"
	"errors"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/cfg"
	"redfat/internal/relf"
)

// FuzzAssemble feeds rfasm source text to Assemble. The result must be an
// error, or an image that marshals (or is refused with a *FormatError for
// a name the format cannot hold), unmarshals with its text and symbol
// names intact, and disassembles (an empty text section is the one image
// Disassemble refuses, with an error).
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{
		".func main\n",
		".func main\n push %rip\n ret",
		".func main\n mov 99999999999(%rax), %rbx\n ret",
		".func main\n mov 8(%rax,%rbx,257), %rcx\n ret",
		".data\nbuf:\n.zero 18446744073709551615\n.text\n.func main\n ret",
		`
.data
table: .quad 5, 10, 15
msg:   .asciz "hi"
buf:   .zero 64
.jumptable jt, l0, l1
.text
.func main
    mov $table, %rbx
    mov 8(%rbx), %rax
    mov %fs:16(%rbx,%rcx,4), %rdx
    cmp $1, %rcx
    ja l1
    mov $jt, %rdx
    jmp *(%rdx,%rcx,8)
l0: lpad
    call @malloc
    ret
l1: lpad
    movb $7, (%rax)
    ret
`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		bin, err := asm.Assemble(src)
		if err != nil {
			return
		}
		img, err := bin.Marshal()
		var fe *relf.FormatError
		if errors.As(err, &fe) {
			return // a name too long for the format
		} else if err != nil {
			t.Fatalf("assembled image does not marshal: %v", err)
		}
		back, err := relf.Unmarshal(img)
		if err != nil {
			t.Fatalf("assembled image does not unmarshal: %v", err)
		}
		text := back.Text()
		if text == nil || !bytes.Equal(text.Data, bin.Text().Data) {
			t.Fatalf("text changed in the round trip")
		}
		if len(back.Symbols) != len(bin.Symbols) {
			t.Fatalf("%d symbols became %d in the round trip", len(bin.Symbols), len(back.Symbols))
		}
		for i, s := range back.Symbols {
			if s.Name != bin.Symbols[i].Name {
				t.Fatalf("symbol %q came back as %q", bin.Symbols[i].Name, s.Name)
			}
		}
		_, err = cfg.Disassemble(back)
		if empty := len(text.Data) == 0; (err != nil) != empty {
			t.Fatalf("Disassemble of %d text bytes: %v", len(text.Data), err)
		}
	})
}
