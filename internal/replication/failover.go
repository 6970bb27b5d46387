package replication

// Selector tracks per-replica health of partitioned query processors
// and yields the failover try order the broker's retry policy walks —
// the partition-level replica failover of Orlando/Perego/Silvestri's
// parallel engine design. Each partition has `replicas` identical
// copies; the current primary is tried first and demoted after a run of
// consecutive failures, so a crashed replica stops eating the first
// attempt (and its timeout) of every query.
//
// The engine reports outcomes from its serial gather point, so the
// selector's evolution is deterministic for a deterministic fault
// schedule. All methods are cheap.
type Selector struct {
	replicas int
	primary  []int
	fails    [][]int // consecutive failures per [partition][replica]
}

// demoteAfter is the run of consecutive failures that demotes a
// primary.
const demoteAfter = 3

// NewSelector creates a selector for `parts` partitions of `replicas`
// copies each (minimum 1), demoting a primary after demoteAfter
// consecutive failures.
func NewSelector(parts, replicas int) *Selector {
	if replicas < 1 {
		replicas = 1
	}
	s := &Selector{
		replicas: replicas,
		primary:  make([]int, parts),
		fails:    make([][]int, parts),
	}
	for p := range s.fails {
		s.fails[p] = make([]int, replicas)
	}
	return s
}

// Order appends partition p's current try order to buf and returns it:
// the primary first, then the remaining replicas by ascending index.
// Retries and hedged requests walk this order.
func (s *Selector) Order(p int, buf []int) []int {
	buf = append(buf[:0], s.primary[p])
	for r := 0; r < s.replicas; r++ {
		if r != s.primary[p] {
			buf = append(buf, r)
		}
	}
	return buf
}

// Report records the outcome of one call to replica r of partition p.
// A success clears the replica's failure run; a failure extends it, and
// when the primary's run reaches the demotion threshold the replica
// with the shortest current failure run is promoted in its place
// (lowest index wins ties, so promotion is deterministic).
func (s *Selector) Report(p, r int, ok bool) {
	if r < 0 || r >= s.replicas {
		return
	}
	if ok {
		s.fails[p][r] = 0
		return
	}
	s.fails[p][r]++
	if r != s.primary[p] || s.fails[p][r] < demoteAfter {
		return
	}
	best, bestRun := s.primary[p], s.fails[p][s.primary[p]]
	for cand := 0; cand < s.replicas; cand++ {
		if s.fails[p][cand] < bestRun {
			best, bestRun = cand, s.fails[p][cand]
		}
	}
	s.primary[p] = best
}
