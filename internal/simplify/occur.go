package simplify

import "repro/internal/cnf"

// occIndex is the per-pass clause index (SatELite's layout). occ[l]
// lists the clauses containing literal l in ascending order. sig[i] is
// clause i's signature, so sig[i]&^sig[j] != 0 proves i ⊄ j unread.
// seen is a stamp-array literal set that clears in O(1); lits and
// resolvents are elimination's scratch. Clauses are duplicate-free and
// non-tautological (Formula.Simplify on entry, kept by every pass), so
// a clause's marked literals can be counted rather than looked up.
type occIndex struct {
	occ        [][]int
	sig        []uint64
	seen       []uint32
	stamp      uint32
	lits       cnf.Clause
	resolvents []cnf.Clause
}

// newOccIndex indexes clauses over at least numVars variables.
func newOccIndex(clauses []cnf.Clause, numVars int) *occIndex {
	size, total := 2*numVars+2, 0
	for _, c := range clauses {
		total += len(c)
		for _, l := range c {
			size = max(size, int(l|1)+1)
		}
	}
	count := make([]int, size)
	for _, c := range clauses {
		for _, l := range c {
			count[l]++
		}
	}
	x := &occIndex{occ: make([][]int, size), sig: make([]uint64, 0, len(clauses)), seen: make([]uint32, size)}
	// One backing array; each list's capacity ends where the next
	// begins, so a list that grows reallocates instead of overwriting.
	backing := make([]int, total)
	for l, k := range count {
		x.occ[l], backing = backing[:0:k], backing[k:]
	}
	for _, c := range clauses {
		x.add(c)
	}
	return x
}

// add indexes c as the next clause.
func (x *occIndex) add(c cnf.Clause) {
	for _, l := range c {
		x.occ[l] = append(x.occ[l], len(x.sig))
	}
	x.sig = append(x.sig, signature(c))
}

// mark makes c's literals the marked set.
func (x *occIndex) mark(c cnf.Clause) {
	x.stamp++
	for _, l := range c {
		x.seen[l] = x.stamp
	}
}

// marked counts c's literals in the marked set.
func (x *occIndex) marked(c cnf.Clause) int {
	n := 0
	for _, l := range c {
		if x.seen[l] == x.stamp {
			n++
		}
	}
	return n
}

func litBit(l cnf.Lit) uint64 { return 1 << (uint(l) & 63) }

func signature(c cnf.Clause) (s uint64) {
	for _, l := range c {
		s |= litBit(l)
	}
	return s
}
