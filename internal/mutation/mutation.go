// Package mutation implements MC Mutants (Section 3 of the paper): the
// systematic generation of MCS conformance litmus tests and their
// mutants from abstract happens-before cycles.
//
// Three mutators are provided, matching Fig. 3:
//
//   - Reversing po-loc (3 events): thread 0 has two same-location
//     accesses in program order, thread 1 has one; the disruptor swaps
//     thread 0's accesses. 8 conformance tests, 8 mutants.
//   - Weakening po-loc (4 events): two threads with two same-location
//     accesses each; the disruptor moves the inner pair to a second
//     location, turning coherence tests into the classic weak-memory
//     shapes (MP, LB, SB, S, R, 2+2W). 6 conformance tests, 6 mutants.
//   - Weakening sw (4 events + fences): message-passing-style shapes
//     synchronized by release/acquire fences; the disruptor removes one
//     or both fences. 6 conformance tests, 18 mutants.
//
// Every generated test carries a target behavior derived from the
// instantiated candidate execution. Generation is self-checking: each
// conformance target is verified disallowed under the test's model and
// each mutant target verified allowed, using package mm's axiomatic
// checker. The totals reproduce Table 2 of the paper: 20 conformance
// tests and 32 mutants.
package mutation

import (
	"fmt"
	"sort"

	"repro/internal/litmus"
	"repro/internal/mm"
)

// Mutator identifies one of the three mutator families.
type Mutator int

const (
	// ReversingPoLoc is Mutator 1 (Sec. 3.1).
	ReversingPoLoc Mutator = iota
	// WeakeningPoLoc is Mutator 2 (Sec. 3.2).
	WeakeningPoLoc
	// WeakeningSW is Mutator 3 (Sec. 3.3).
	WeakeningSW
)

// String names the mutator as in the paper.
func (m Mutator) String() string {
	switch m {
	case ReversingPoLoc:
		return "reversing po-loc"
	case WeakeningPoLoc:
		return "weakening po-loc"
	case WeakeningSW:
		return "weakening sw"
	default:
		return fmt.Sprintf("Mutator(%d)", int(m))
	}
}

// Mutators lists all mutator families in paper order.
func Mutators() []Mutator { return []Mutator{ReversingPoLoc, WeakeningPoLoc, WeakeningSW} }

// MutatorByName resolves a mutator family from its paper name.
func MutatorByName(name string) (Mutator, bool) {
	for _, m := range Mutators() {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Suite is the full generated test suite.
type Suite struct {
	// Conformance holds the 20 conformance tests in generation order.
	Conformance []*litmus.Test
	// Mutants holds the 32 mutants in generation order.
	Mutants []*litmus.Test

	byName map[string]*litmus.Test
}

// Generate builds the suite and verifies every target classification.
// An error indicates a bug in the generator itself.
func Generate() (*Suite, error) {
	s := &Suite{byName: map[string]*litmus.Test{}}
	var specs []tspec
	specs = append(specs, reversingPoLocSpecs()...)
	specs = append(specs, weakeningPoLocSpecs()...)
	specs = append(specs, weakeningSWSpecs()...)
	for _, sp := range specs {
		t, err := sp.build()
		if err != nil {
			return nil, err
		}
		if err := verifyTarget(t); err != nil {
			return nil, err
		}
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("mutation: duplicate test name %q", t.Name)
		}
		s.byName[t.Name] = t
		if t.IsMutant {
			s.Mutants = append(s.Mutants, t)
		} else {
			s.Conformance = append(s.Conformance, t)
		}
	}
	for _, mt := range s.Mutants {
		if _, ok := s.byName[mt.Base]; !ok {
			return nil, fmt.Errorf("mutation: mutant %q has unknown base %q", mt.Name, mt.Base)
		}
	}
	return s, nil
}

// MustGenerate is Generate panicking on error; generation failures are
// programming bugs, not runtime conditions.
func MustGenerate() *Suite {
	s, err := Generate()
	if err != nil {
		panic(err)
	}
	return s
}

// verifyTarget checks the generated test's target against its model:
// conformance targets must be disallowed, mutant targets allowed.
func verifyTarget(t *litmus.Test) error {
	x, err := t.TargetExecution()
	if err != nil {
		return fmt.Errorf("mutation %s: %w", t.Name, err)
	}
	if err := x.Validate(); err != nil {
		return fmt.Errorf("mutation %s: %w", t.Name, err)
	}
	v := x.Check(t.Model)
	if t.IsMutant && !v.Allowed {
		return fmt.Errorf("mutation %s: mutant target %s is disallowed under %v",
			t.Name, t.Target, t.Model)
	}
	if !t.IsMutant && v.Allowed {
		return fmt.Errorf("mutation %s: conformance target %s is allowed under %v",
			t.Name, t.Target, t.Model)
	}
	return nil
}

// ByName returns the test with the given name.
func (s *Suite) ByName(name string) (*litmus.Test, bool) {
	t, ok := s.byName[name]
	return t, ok
}

// MutantsOf returns the mutants derived from the named conformance test,
// in generation order.
func (s *Suite) MutantsOf(base string) []*litmus.Test {
	var out []*litmus.Test
	for _, m := range s.Mutants {
		if m.Base == base {
			out = append(out, m)
		}
	}
	return out
}

// OfMutator returns the conformance tests and mutants belonging to one
// mutator family.
func (s *Suite) OfMutator(m Mutator) (conformance, mutants []*litmus.Test) {
	name := m.String()
	for _, t := range s.Conformance {
		if t.Mutator == name {
			conformance = append(conformance, t)
		}
	}
	for _, t := range s.Mutants {
		if t.Mutator == name {
			mutants = append(mutants, t)
		}
	}
	return conformance, mutants
}

// Counts reproduces Table 2: conformance and mutant totals per mutator.
func (s *Suite) Counts() map[Mutator][2]int {
	out := map[Mutator][2]int{}
	for _, m := range Mutators() {
		c, mu := s.OfMutator(m)
		out[m] = [2]int{len(c), len(mu)}
	}
	return out
}

// Names returns all test names sorted, mutants included.
func (s *Suite) Names() []string {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns conformance tests followed by mutants.
func (s *Suite) All() []*litmus.Test {
	out := make([]*litmus.Test, 0, len(s.Conformance)+len(s.Mutants))
	out = append(out, s.Conformance...)
	out = append(out, s.Mutants...)
	return out
}

// ---- internal test-spec layer ----
//
// Register indices in litmus tests are assigned in load-appearance
// order, which changes when the disruptor reorders events. The spec
// layer names events and resolves target read values to register
// indices after layout, so conformance tests and their mutants can
// share event descriptions.

// espec describes one event of a spec thread.
type espec struct {
	kind    mm.Kind
	loc     int
	wval    mm.Val // value stored (Write, RMW)
	rval    mm.Val // target read value (Read, RMW) ...
	hasRval bool   // ... when constrained
	label   string
}

func ereadV(loc int, v mm.Val, label string) espec {
	return espec{kind: mm.Read, loc: loc, rval: v, hasRval: true, label: label}
}

func ewrite(loc int, v mm.Val, label string) espec {
	return espec{kind: mm.Write, loc: loc, wval: v, label: label}
}

func ermwV(loc int, wv, rv mm.Val, label string) espec {
	return espec{kind: mm.RMW, loc: loc, wval: wv, rval: rv, hasRval: true, label: label}
}

func efence(label string) espec { return espec{kind: mm.Fence, label: label} }

// tspec describes one full test.
type tspec struct {
	name          string
	mutator       Mutator
	isMutant      bool
	base          string
	model         mm.MCS
	threads       [][]espec
	observer      []mm.Val // observer thread: one read of obsLoc per target value
	obsLoc        int
	finals        map[int]mm.Val
	fencesRemoved int
}

// build lays the spec out as a litmus test and resolves the target.
func (ts tspec) build() (*litmus.Test, error) {
	b := litmus.NewBuilder(ts.name, ts.model)
	target := litmus.Condition{Regs: map[int]mm.Val{}, Final: map[int]mm.Val{}}
	reg := 0
	for _, th := range ts.threads {
		b.Thread()
		for _, e := range th {
			switch e.kind {
			case mm.Read:
				b.LoadL(e.loc, e.label)
				if e.hasRval {
					target.Regs[reg] = e.rval
				}
				reg++
			case mm.Write:
				b.StoreL(e.loc, e.wval, e.label)
			case mm.RMW:
				b.ExchangeL(e.loc, e.wval, e.label)
				if e.hasRval {
					target.Regs[reg] = e.rval
				}
				reg++
			case mm.Fence:
				b.FenceL(e.label)
			}
		}
	}
	if len(ts.observer) > 0 {
		b.Observer()
		for i, v := range ts.observer {
			b.LoadL(ts.obsLoc, fmt.Sprintf("o%d", i))
			target.Regs[reg] = v
			reg++
		}
	}
	for l, v := range ts.finals {
		target.Final[l] = v
	}
	b.Target(target)
	if ts.isMutant {
		b.Mutant(ts.mutator.String(), ts.base)
	} else {
		b.Conformance(ts.mutator.String())
	}
	var t *litmus.Test
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("mutation %s: %v", ts.name, r)
			}
		}()
		t = b.Build()
		return nil
	}()
	if err != nil {
		return nil, err
	}
	t.FencesRemoved = ts.fencesRemoved
	return t, nil
}
