package service

import (
	"errors"
	"testing"

	"surfcomm/internal/scerr"
)

// FuzzRoutingKey feeds untrusted QASM to the router's front door. The
// key must never panic, must reject bad input only with errors
// matching scerr.ErrBadConfig, and must be a function of the canonical
// text: re-keying the re-emitted canonical form gives the same key
// (parse, emit, parse is a fixed point). The seed corpus covers flat,
// hierarchical, empty and malformed QASM.
func FuzzRoutingKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, qasm string) {
		key, err := RoutingKey(Request{QASM: qasm})
		if err != nil {
			if !errors.Is(err, scerr.ErrBadConfig) {
				t.Fatalf("error %v does not match ErrBadConfig", err)
			}
			return
		}
		_, _, canon, err := canonicalQASM(qasm)
		if err != nil {
			t.Fatalf("RoutingKey accepted what canonicalQASM rejects: %v", err)
		}
		again, err := RoutingKey(Request{QASM: string(canon)})
		if err != nil {
			t.Fatalf("canonical text rejected: %v\n%s", err, canon)
		}
		if again != key {
			t.Fatalf("canonical text keys differently:\n%q\n%q", qasm, canon)
		}
	})
}
