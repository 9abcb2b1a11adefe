package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProgramQASM serializes a hierarchical program in the module-
// extended QASM dialect:
//
//	# comment
//	entry main
//	module main 4
//	h q0
//	call sub q0,q1
//	module sub 2
//	cnot q0,q1
//
// An `entry` directive names the entry module; each `module` directive
// opens a module body that runs until the next directive or EOF. Gate
// lines use the flat dialect; `call <module> q…` lines bind the
// caller's qubits positionally to the callee's formals.
//
// Emission is canonical: the entry module first, the remaining modules
// sorted by name. Two programs with equal structure serialize to equal
// bytes, which is what the per-module digest cache and the service's
// cache keys rely on.
func WriteProgramQASM(w io.Writer, p *Program) error {
	if p == nil {
		return fmt.Errorf("qasm: nil program")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "entry %s\n", p.Entry)
	for _, name := range p.moduleOrder() {
		m := p.Modules[name]
		if err := writeModule(bw, m); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// moduleOrder returns the canonical emission order: entry first, then
// the remaining modules sorted by name.
func (p *Program) moduleOrder() []string {
	names := make([]string, 0, len(p.Modules))
	for name := range p.Modules {
		if name != p.Entry {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, ok := p.Modules[p.Entry]; ok {
		names = append([]string{p.Entry}, names...)
	}
	return names
}

// writeModule emits one module body in canonical form.
func writeModule(bw *bufio.Writer, m *Module) error {
	fmt.Fprintf(bw, "module %s %d\n", m.Name, m.NumQubits)
	for _, in := range m.Insts {
		if in.IsCall() {
			fmt.Fprintf(bw, "call %s %s\n", in.Callee, operandList(in.Args))
			continue
		}
		fmt.Fprintln(bw, Gate{Op: in.Op, Qubits: in.Args}.String())
	}
	return nil
}

func operandList(args []int) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = "q" + strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

// ProgramQASMString renders the program as a canonical QASM string.
func ProgramQASMString(p *Program) string {
	var sb strings.Builder
	if err := WriteProgramQASM(&sb, p); err != nil {
		// strings.Builder writes cannot fail; a nil program is a caller
		// bug surfaced loudly.
		panic(err)
	}
	return sb.String()
}

// LooksHierarchicalQASM reports whether the text is in the module-
// extended dialect (it contains an `entry` or `module` directive before
// any gate line), so services can route flat and hierarchical requests
// to the right parser without trying both.
func LooksHierarchicalQASM(text string) bool {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		return strings.HasPrefix(t, "entry ") || strings.HasPrefix(t, "module ")
	}
	return false
}

// ReadProgramQASM parses the module-extended QASM dialect produced by
// WriteProgramQASM. The program is structurally validated (entry
// exists, calls resolve, arities match, no recursion) before being
// returned.
func ReadProgramQASM(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	p := &Program{Modules: map[string]*Module{}}
	var cur *Module
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "entry":
			if len(fields) != 2 {
				return nil, fmt.Errorf("qasm line %d: malformed entry directive", line)
			}
			if p.Entry != "" {
				return nil, fmt.Errorf("qasm line %d: duplicate entry directive", line)
			}
			p.Entry = fields[1]
			continue
		case "module":
			if len(fields) != 3 {
				return nil, fmt.Errorf("qasm line %d: malformed module directive", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("qasm line %d: bad module qubit count %q", line, fields[2])
			}
			cur = &Module{Name: fields[1], NumQubits: n}
			if err := p.AddModule(cur); err != nil {
				return nil, fmt.Errorf("qasm line %d: %v", line, err)
			}
			continue
		case "call":
			if cur == nil {
				return nil, fmt.Errorf("qasm line %d: call before module directive", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("qasm line %d: malformed call (want: call <module> q…)", line)
			}
			args, err := parseOperands(fields[2], line)
			if err != nil {
				return nil, err
			}
			cur.Call(fields[1], args...)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("qasm line %d: gate before module directive", line)
		}
		op, err := ParseOpcode(fields[0])
		if err != nil {
			return nil, fmt.Errorf("qasm line %d: %w", line, err)
		}
		var qubits []int
		if len(fields) > 1 {
			if qubits, err = parseOperands(fields[1], line); err != nil {
				return nil, err
			}
		}
		cur.Gate(op, qubits...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Entry == "" {
		return nil, fmt.Errorf("qasm: missing entry directive")
	}
	if len(p.Modules) == 0 {
		return nil, fmt.Errorf("qasm: no modules")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseOperands parses a comma-separated q-prefixed operand list.
func parseOperands(s string, line int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if !strings.HasPrefix(tok, "q") {
			return nil, fmt.Errorf("qasm line %d: operand %q missing q prefix", line, tok)
		}
		q, err := strconv.Atoi(tok[1:])
		if err != nil {
			return nil, fmt.Errorf("qasm line %d: bad operand %q", line, tok)
		}
		out = append(out, q)
	}
	return out, nil
}

// Clone returns a deep copy of the program: mutating the copy's modules
// or instructions never aliases the original. It is how callers derive
// edited variants (the incremental-compilation workflows mutate one
// module of a cloned program and recompile).
func (p *Program) Clone() *Program {
	cp := &Program{Modules: make(map[string]*Module, len(p.Modules)), Entry: p.Entry}
	for name, m := range p.Modules {
		cp.Modules[name] = m.Clone()
	}
	return cp
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	cp := &Module{Name: m.Name, NumQubits: m.NumQubits, Insts: make([]Inst, len(m.Insts))}
	for i, in := range m.Insts {
		cp.Insts[i] = Inst{Op: in.Op, Args: append([]int(nil), in.Args...), Callee: in.Callee}
	}
	return cp
}
