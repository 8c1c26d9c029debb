package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is an observation one analyzer pass records about a
// package-level object (or a whole package) for later passes of the same
// analyzer over importing packages — the mechanism that makes the suite
// interprocedural across package boundaries. Implementations must be
// pointers to structs and must be declared in the analyzer's FactTypes.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// ObjectKey names a package-level object stably across compilations: a
// plain function or variable by name, a method as "Type.Method". Objects
// that cannot be named this way (locals, interface methods, struct
// fields) yield "" and cannot carry facts.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := ReceiverNamed(f); recv != nil {
			if recv.Obj().Pkg() != obj.Pkg() {
				return ""
			}
			return recv.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

// factKey identifies one fact slot: the owning analyzer's name, the
// package, the object within it ("" for package facts), and the fact's
// pointer type.
type factKey struct {
	analyzer string
	pkg      string
	object   string
	typ      reflect.Type
}

// FactStore holds the facts of one analysis run as plain Go values. It is
// shared across every package the driver processes, so facts exported
// while analyzing a dependency are visible while analyzing its importers
// (packages must therefore be processed in dependency order).
type FactStore struct {
	types map[reflect.Type]bool // registered fact pointer types
	facts map[factKey]Fact
}

// NewFactStore returns an empty store with the fact types of the given
// analyzers (Requires closure included) registered.
func NewFactStore(analyzers []*Analyzer) *FactStore {
	s := &FactStore{types: make(map[reflect.Type]bool), facts: make(map[factKey]Fact)}
	seen := make(map[*Analyzer]bool)
	var walk func(a *Analyzer)
	walk = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if t == nil || t.Kind() != reflect.Pointer {
				panic(fmt.Sprintf("analysis: fact type %T of %s is not a pointer", f, a.Name))
			}
			s.types[t] = true
		}
		for _, dep := range a.Requires {
			walk(dep)
		}
	}
	for _, a := range analyzers {
		walk(a)
	}
	return s
}

func (s *FactStore) export(a *Analyzer, pkg, object string, fact Fact) {
	if object == "" && pkg == "" {
		return
	}
	t := reflect.TypeOf(fact)
	if !s.types[t] {
		panic(fmt.Sprintf("analysis: analyzer %s exports unregistered fact type %T (add it to FactTypes)", a.Name, fact))
	}
	s.facts[factKey{a.Name, pkg, object, t}] = fact
}

// lookup copies the stored fact of fact's type into fact, reporting
// whether one existed.
func (s *FactStore) lookup(a *Analyzer, pkg, object string, fact Fact) bool {
	stored, ok := s.facts[factKey{a.Name, pkg, object, reflect.TypeOf(fact)}]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}
