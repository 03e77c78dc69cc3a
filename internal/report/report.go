// Package report renders the paper's tables and figures as text: the
// litmus programs of Fig. 1, the candidate executions of Fig. 2, the
// mutator inventory of Tables 2, the device fleet of Table 3, the PTE
// assignment of Fig. 4, the mutation-score/death-rate grids of Fig. 5,
// the budget sweep of Fig. 6, and the correlation rows of Table 4.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/tuning"
	"repro/internal/xrand"
)

// Table2 renders the mutator inventory: conformance tests and mutants
// per mutator family.
func Table2(s *mutation.Suite) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mutator\tConformance Tests\tMutants")
	counts := s.Counts()
	totalC, totalM := 0, 0
	for _, m := range mutation.Mutators() {
		c := counts[m]
		fmt.Fprintf(w, "%s\t%d\t%d\n", m, c[0], c[1])
		totalC += c[0]
		totalM += c[1]
	}
	fmt.Fprintf(w, "Combined\t%d\t%d\n", totalC, totalM)
	w.Flush()
	return b.String()
}

// Table3 renders the device fleet.
func Table3() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Vendor\tChip\tCUs\tType\tShort Name\tBackend")
	for _, p := range gpu.Profiles() {
		typ := "Discrete"
		if p.Integrated {
			typ = "Integrated"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\n",
			p.Vendor, p.Chip, p.CUs, typ, p.ShortName, p.Backend)
	}
	w.Flush()
	return b.String()
}

// Fig1 renders the two motivating litmus tests.
func Fig1(s *mutation.Suite) string {
	var b strings.Builder
	for _, name := range []string{"CoRR", "MP-relacq"} {
		t, ok := s.ByName(name)
		if !ok {
			continue
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Fig2 renders the disallowed candidate executions of the motivating
// tests, with their happens-before cycles.
func Fig2(s *mutation.Suite) (string, error) {
	var b strings.Builder
	for _, name := range []string{"CoRR", "MP-relacq"} {
		t, ok := s.ByName(name)
		if !ok {
			continue
		}
		x, err := t.TargetExecution()
		if err != nil {
			return "", err
		}
		v := x.Check(t.Model)
		fmt.Fprintf(&b, "Disallowed execution of the %s litmus test (%v):\n", t.Name, t.Model)
		b.WriteString(x.Render())
		if !v.Allowed && len(v.Cycle) > 0 {
			fmt.Fprintf(&b, "hb cycle: %s\n", x.ExplainCycle(v.Cycle))
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Fig3 summarizes the three mutator templates and their disruptors.
func Fig3() string {
	return strings.TrimLeft(`
Mutator 1 — reversing po-loc (3 events):
  T0: a: m[x]; b: m[x]   (po-loc)        disruptor: swap a and b
  T1: c: m[x]
  cycle: a -po-loc-> b -com-> c -com-> a

Mutator 2 — weakening po-loc (4 events):
  T0: a: m[x]; b: m[x]   (po-loc)        disruptor: move b and c to y
  T1: c: m[x]; d: m[x]   (po-loc)
  cycle: a -po-loc-> b -com-> c -po-loc-> d -com-> a

Mutator 3 — weakening sw (4 events, fenced):
  T0: a: m[x]; F; b: W y                 disruptor: remove one or both fences
  T1: c: R y;  F; d: m[x]
  cycle: a -po;sw;po-> d -com-> a
`, "\n")
}

// Fig4 visualizes one PTE iteration's thread/instance/location
// assignment for a two-role test at a small instance count.
func Fig4(instances int, seed uint64) string {
	if instances < 2 {
		instances = 8
	}
	rng := xrand.New(seed)
	p := rng.Coprime(uint64(instances))
	q := rng.Uint64n(uint64(instances))
	perm := func(v int) int { return int((uint64(v)*p + q) % uint64(instances)) }
	var b strings.Builder
	fmt.Fprintf(&b, "PTE assignment for %d instances, permutation v -> (v*%d + %d) mod %d\n",
		instances, p, q, instances)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "thread\trole 0 of\trole 1 of\tlocations touched")
	for v := 0; v < instances; v++ {
		fmt.Fprintf(w, "t%d\tinstance %d\tinstance %d\tx%d y%d, x%d y%d\n",
			v, v, perm(v), v, perm(v), perm(v), perm(perm(v)))
	}
	w.Flush()
	return b.String()
}

// Fig5 renders mutation scores and average death rates per mutator and
// device across environment families, from a tuning dataset.
func Fig5(ds *tuning.Dataset) string {
	var b strings.Builder
	families := []string{"SITE-Baseline", "SITE", "PTE-Baseline", "PTE"}
	devices := ds.Devices()
	mutators := append([]string{""}, ds.Mutators()...)
	for _, mutator := range mutators {
		label := mutator
		if label == "" {
			label = "all mutators"
		}
		fmt.Fprintf(&b, "== %s ==\n", label)
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "device")
		for _, f := range families {
			fmt.Fprintf(w, "\t%s", f)
		}
		fmt.Fprintln(w)
		for _, dev := range append(devices, "") {
			name := dev
			if name == "" {
				name = "ALL"
			}
			fmt.Fprintf(w, "%s", name)
			for _, f := range families {
				killed, total := ds.MutationScore(f, dev, mutator)
				rate := ds.AvgDeathRate(f, dev, mutator)
				if total == 0 {
					fmt.Fprint(w, "\t-")
					continue
				}
				fmt.Fprintf(w, "\t%d/%d (%.0f%%) %.3g/s",
					killed, total, 100*float64(killed)/float64(total), rate)
			}
			fmt.Fprintln(w)
		}
		w.Flush()
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6 renders a budget sweep: mutation score against per-test time
// budget for each reproducibility target.
func Fig6(points []confidence.SweepPoint) string {
	byTarget := map[float64][]confidence.SweepPoint{}
	var targets []float64
	for _, pt := range points {
		if _, ok := byTarget[pt.Target]; !ok {
			targets = append(targets, pt.Target)
		}
		byTarget[pt.Target] = append(byTarget[pt.Target], pt)
	}
	sort.Float64s(targets)
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "target\tbudget (s)\treproducible\tmutation score")
	for _, target := range targets {
		pts := byTarget[target]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Budget < pts[j].Budget })
		for _, pt := range pts {
			fmt.Fprintf(w, "%.5g%%\t%.6g\t%d/%d\t%.1f%%\n",
				100*target, pt.Budget, pt.Reproducible, pt.Total, 100*pt.Score())
		}
	}
	w.Flush()
	return b.String()
}

// Table4 renders the correlation study rows.
func Table4(results []core.CorrelationRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Vendor/Case\tFailed Test\tMutant Type\tPCC\tp-value\tbug envs\tmutant envs")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%.2g\t%d/%d\t%d/%d\n",
			r.Case.Name, r.Case.Conformance, r.Case.MutatorName,
			r.PCC, r.PValue,
			r.BugObservedIn, r.Environments,
			r.MutantKilledIn, r.Environments)
	}
	w.Flush()
	return b.String()
}

// SuiteListing renders the full test suite, one line per test.
func SuiteListing(s *mutation.Suite) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tkind\tmutator\tbase\tthreads\ttarget")
	row := func(t *litmus.Test) {
		kind := "conformance"
		if t.IsMutant {
			kind = "mutant"
		}
		base := t.Base
		if base == "" {
			base = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%s\n",
			t.Name, kind, t.Mutator, base, len(t.Threads), t.Target)
	}
	for _, t := range s.Conformance {
		row(t)
	}
	for _, t := range s.Mutants {
		row(t)
	}
	w.Flush()
	return b.String()
}
