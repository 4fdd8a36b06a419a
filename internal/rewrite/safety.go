package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/ndlog"
)

// DeletionSafety inspects a program for rules whose deletions the
// counting-based maintenance engine cannot handle exactly.
//
// Counting retracts a derived tuple when its last recorded derivation
// is retracted. That is exact when the derivation graph is acyclic,
// which holds for "derivation-height-monotone" recursion: every trip
// around a recursive cycle strictly grows some bounded measure (a path
// list checked with f_member, a cost bounded by a comparison, an
// aggregate that dampens re-derivation). Pure cyclic recursion like
//
//	reach(@N,X,Z) :- edge(@N,X,Y), reach(@N,Y,Z).
//
// can build mutually-supporting derivations around a graph cycle that
// survive the deletion of their original base support (the classic
// DRed motivation). DeletionSafety returns a warning for every
// recursive rule with no damping evidence: no aggregate head and no
// body condition. The check is a heuristic — a vacuous condition
// defeats it — but it flags exactly the textbook-unsafe shapes while
// accepting all of the demonstration protocols.
func DeletionSafety(p *ndlog.Program) []string {
	// Relation dependency graph: head depends on body relations.
	deps := map[string]map[string]bool{}
	for _, r := range p.Rules {
		if r.Maybe || len(r.Body) == 0 {
			continue
		}
		m := deps[r.Head.Rel]
		if m == nil {
			m = map[string]bool{}
			deps[r.Head.Rel] = m
		}
		for _, a := range r.BodyAtoms() {
			m[a.Rel] = true
		}
	}
	scc := stronglyConnected(deps)
	comp := map[string]int{}
	for i, c := range scc {
		for _, n := range c {
			comp[n] = i
		}
	}
	inCycle := func(a, b string) bool {
		ca, ok1 := comp[a]
		cb, ok2 := comp[b]
		if !ok1 || !ok2 || ca != cb {
			return false
		}
		// Same component: recursive only if the component has a cycle
		// (size > 1, or a self-loop).
		if len(scc[ca]) > 1 {
			return true
		}
		return deps[a][a]
	}

	damped := func(r *ndlog.Rule) bool {
		if r.Head.HasAgg() {
			return true
		}
		for _, t := range r.Body {
			if _, ok := t.(*ndlog.Cond); ok {
				return true
			}
		}
		return false
	}
	isRecursive := func(r *ndlog.Rule) bool {
		for _, a := range r.BodyAtoms() {
			if inCycle(r.Head.Rel, a.Rel) {
				return true
			}
		}
		return false
	}
	// recursiveRulesFor: relation -> its recursive rules.
	recRules := map[string][]*ndlog.Rule{}
	for _, r := range p.Rules {
		if r.Maybe || len(r.Body) == 0 {
			continue
		}
		if isRecursive(r) {
			recRules[r.Head.Rel] = append(recRules[r.Head.Rel], r)
		}
	}

	var warnings []string
	for _, r := range p.Rules {
		if r.Maybe || len(r.Body) == 0 || !isRecursive(r) || damped(r) {
			continue
		}
		// An undamped recursive rule is still fine when every cycle
		// through it must pass a damped rule: each of its in-SCC body
		// atoms is derived, on any cycle, by one of that relation's
		// recursive rules — if those are all damped, the cycle is
		// damped. (One-level check; deeper indirection is flagged
		// conservatively.)
		safe := true
		for _, a := range r.BodyAtoms() {
			if !inCycle(r.Head.Rel, a.Rel) {
				continue
			}
			for _, rr := range recRules[a.Rel] {
				if rr != r && !damped(rr) {
					safe = false
				}
			}
			if len(recRules[a.Rel]) == 1 && recRules[a.Rel][0] == r {
				// The only cycle edge for this atom is the rule itself:
				// a direct self-cycle with no damping.
				safe = false
			}
		}
		if safe {
			continue
		}
		warnings = append(warnings, fmt.Sprintf(
			"rule %s: recursive without aggregate or condition; deletions over cyclic data may leave self-supporting derivations (counting is exact only for derivation-height-monotone recursion)",
			ruleName(r)))
	}
	sort.Strings(warnings)
	return warnings
}

// stronglyConnected returns the SCCs of the dependency graph (Tarjan).
func stronglyConnected(deps map[string]map[string]bool) [][]string {
	nodes := map[string]bool{}
	for a, m := range deps {
		nodes[a] = true
		for b := range m {
			nodes[b] = true
		}
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	counter := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		var succ []string
		for w := range deps[v] {
			succ = append(succ, w)
		}
		sort.Strings(succ)
		for _, w := range succ {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			out = append(out, comp)
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out
}
