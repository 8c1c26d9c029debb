package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// roundTripEveryField is the field-parity check of one wire codec: base with
// each field of T (enumerated by reflect) changed in turn must encode to
// size(v) bytes and decode back to v. A field the encoder skips or the decoder
// ignores comes back as base's value; one changeField cannot change fails.
func roundTripEveryField[T any](t *testing.T, base T, encode func(T) []byte, decode func([]byte) (T, error), size func(T) int) {
	t.Helper()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		v, name := reflect.New(typ).Elem(), typ.Name()+"."+typ.Field(i).Name
		v.Set(reflect.ValueOf(base))
		if !changeField(v.Field(i)) {
			t.Fatalf("%s: the round trip cannot change a %s field", name, v.Field(i).Type())
		}
		want := v.Interface().(T)
		wire := encode(want)
		if got, err := decode(wire); len(wire) != size(want) || err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed: %d bytes on the wire (size formula: %d) decoded to %+v (err %v), want %+v",
				name, len(wire), size(want), got, err, want)
		}
	}
}

// changeField gives f another value a well-formed sender can produce.
func changeField(f reflect.Value) bool {
	switch {
	case f.Kind() == reflect.Bool:
		f.SetBool(!f.Bool())
	case f.CanInt():
		f.SetInt(f.Int() + 1)
	case f.CanUint():
		f.SetUint(f.Uint() + 1)
	case f.Type() == reflect.TypeOf([]int(nil)):
		s, next := f.Interface().([]int), 1
		for _, x := range s {
			next = max(next, x+1) // one past the largest: rank lists stay duplicate-free
		}
		f.Set(reflect.ValueOf(append(slices.Clip(s), next)))
	default:
		return false
	}
	return true
}

// TestEveryDecoderIsFuzzed: every func Decode* is named in some Fuzz* target,
// so whatever parses bytes off the simulated wire meets arbitrary input.
func TestEveryDecoderIsFuzzed(t *testing.T) {
	fset, fuzzed, decoders := token.NewFileSet(), map[string]bool{}, map[string]token.Pos{}
	paths, _ := filepath.Glob("*.go")
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			switch test := strings.HasSuffix(path, "_test.go"); {
			case !ok || fd.Recv != nil:
			case test && strings.HasPrefix(fd.Name.Name, "Fuzz"):
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						fuzzed[id.Name] = true
					}
					return true
				})
			case !test && strings.HasPrefix(fd.Name.Name, "Decode"):
				decoders[fd.Name.Name] = fd.Pos()
			}
		}
	}
	if len(decoders) == 0 {
		t.Fatal("no Decode* function found")
	}
	for name, pos := range decoders {
		if !fuzzed[name] {
			t.Errorf("%s: no Fuzz* target names %s; every wire decoder needs one", fset.Position(pos), name)
		}
	}
}

// TestHeaderFallbackRoundTrip pins the degradation-negotiation bit on the
// wire: Fallback survives Encode/DecodeHeader in every combination with
// Compressed, and the flag byte stays within the two defined bits.
func TestHeaderFallbackRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, fallback := range []bool{false, true} {
			h := Header{
				Algo: AlgoMPC, Compressed: compressed, Fallback: fallback,
				OrigBytes: 1 << 20, CompBytes: 1 << 18, Dim: 3,
				PartBytes: []int{1 << 17, 1 << 17}, Checksum: 0xdeadbeef,
			}
			enc := h.Encode()
			if enc[1]&^(hdrFlagCompressed|hdrFlagFallback) != 0 {
				t.Errorf("flag byte %#x sets undefined bits", enc[1])
			}
			got, err := DecodeHeader(enc)
			if err != nil {
				t.Fatalf("compressed=%v fallback=%v: %v", compressed, fallback, err)
			}
			if got.Compressed != compressed || got.Fallback != fallback {
				t.Errorf("round trip gave compressed=%v fallback=%v, want %v/%v",
					got.Compressed, got.Fallback, compressed, fallback)
			}
			if got.OrigBytes != h.OrigBytes || got.CompBytes != h.CompBytes ||
				got.Checksum != h.Checksum || len(got.PartBytes) != len(h.PartBytes) {
				t.Errorf("round trip mangled non-flag fields: %+v", got)
			}
		}
	}
	// Pre-breaker encodings (flag byte 0 or 1) must still parse with
	// Fallback false — the feature is wire-compatible.
	legacy := Header{Algo: AlgoNone, OrigBytes: 64, CompBytes: 64}
	got, err := DecodeHeader(legacy.Encode())
	if err != nil || got.Fallback {
		t.Errorf("legacy header decoded to fallback=%v err=%v", got.Fallback, err)
	}
}
