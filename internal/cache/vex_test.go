package cache

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAssemblyIsVEXOnly fails on any instruction of the package's amd64
// assembly that names an X, Y or Z register with a mnemonic that does not
// start with V. Go's assembler writes exactly the V mnemonics in VEX (or
// EVEX) form, and a legacy-SSE instruction between a kernel's first 256-bit
// instruction and its VZEROUPPER runs with the upper YMM halves dirty, which
// costs a state transition or a merge each time: one MOVQ AX, X0 in the
// burst kernel's loop made it about 30 times slower. The test reads the
// source, so it runs on every platform.
func TestAssemblyIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no amd64 assembly in the package")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, ins := range nonVEX(string(src)) {
			t.Errorf("%s: %q names a vector register but is not VEX-encoded", f, ins)
		}
	}
}

// TestNonVEXFindsLegacySSE checks the checker: it must report a legacy-SSE
// MOVQ into an X register in a loop and in a macro body, and nothing else.
func TestNonVEXFindsLegacySSE(t *testing.T) {
	const src = "#define LOAD(r) \\\n" +
		"\tVMOVQ r, X0; \\\n" +
		"\tMOVQ  AX, X1\n" +
		"\n" +
		"TEXT ·f(SB), NOSPLIT, $0-0\n" +
		"loop:\tMOVQ AX, X0 // the slip\n" +
		"\tVPBROADCASTQ X0, Y0\n" +
		"\tLOAD(AX)\n" +
		"\tMOVQ (DI), AX; VMOVDQU Y1, 8(DI)\n" +
		"\tVZEROUPPER\n" +
		"\tRET\n"
	want := []string{"MOVQ  AX, X1", "MOVQ AX, X0"}
	if got := nonVEX(src); !slices.Equal(got, want) {
		t.Fatalf("nonVEX = %q, want %q", got, want)
	}
}

var (
	asmIdent  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*`)
	asmLabel  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*:`)
	vectorReg = regexp.MustCompile(`\b[XYZ][0-9]+\b`)
)

// nonVEX returns every instruction of the Go assembly source src that names
// an X, Y or Z register with a mnemonic that does not start with V. Macro
// bodies are checked where they are defined, statement by statement, and a
// macro's uses are skipped.
func nonVEX(src string) []string {
	var bad []string
	macros := map[string]bool{}
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
		if def, ok := strings.CutPrefix(line, "#define"); ok {
			def = strings.TrimSpace(def)
			name := asmIdent.FindString(def)
			macros[name] = true
			line = strings.TrimPrefix(def, name)
			if strings.HasPrefix(line, "(") {
				line = line[strings.Index(line, ")")+1:]
			}
		}
		for _, ins := range strings.Split(line, ";") {
			ins = strings.TrimSpace(asmLabel.ReplaceAllString(strings.TrimSpace(ins), ""))
			op := asmIdent.FindString(ins)
			if op == "" || macros[op] || strings.HasPrefix(op, "V") {
				continue
			}
			if vectorReg.MatchString(ins[len(op):]) {
				bad = append(bad, ins)
			}
		}
	}
	return bad
}
