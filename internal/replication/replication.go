// Package replication implements the fault-tolerance techniques
// Section 5 (Dependability) draws on: primary-backup replication,
// quorum-based replication with version numbers, majority-vote replicated
// logs (state-machine replication in the Paxos family), a lease-based
// lock service in the spirit of Chubby, and the availability arithmetic
// that relates replication degree to the probability some replica is
// reachable.
package replication

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Availability returns the probability at least one of r independent
// replicas with per-replica availability a is up: 1 - (1-a)^r. This is
// the quantitative heart of the paper's replication discussion: full
// replication maximizes it at maximal storage cost.
func Availability(a float64, r int) float64 {
	if r <= 0 {
		return 0
	}
	p := 1.0
	for i := 0; i < r; i++ {
		p *= 1 - a
	}
	return 1 - p
}

// ErrUnavailable is returned when too few replicas are reachable for the
// requested operation.
var ErrUnavailable = errors.New("replication: not enough replicas available")

// replica is one copy of the user-state store (the paper's example is
// per-user personalization state, which "must be the latest state and be
// consistent across replicas").
type replica struct {
	up   bool
	data map[string]versioned
}

type versioned struct {
	value   string
	version int64
}

// PrimaryBackup is synchronous primary-backup replication: writes go to
// the primary, which propagates to every live backup before
// acknowledging; on primary failure the first live backup is promoted.
// Reads at the primary are linearizable.
type PrimaryBackup struct {
	mu       sync.Mutex
	replicas []*replica
	primary  int
	msgs     int
}

// NewPrimaryBackup creates an n-replica group (n ≥ 1), all up, replica 0
// primary.
func NewPrimaryBackup(n int) *PrimaryBackup {
	if n < 1 {
		n = 1
	}
	pb := &PrimaryBackup{}
	for i := 0; i < n; i++ {
		pb.replicas = append(pb.replicas, &replica{up: true, data: make(map[string]versioned)})
	}
	return pb
}

// Primary returns the current primary's index, or -1 if every replica is
// down.
func (pb *PrimaryBackup) Primary() int {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.primaryLocked()
}

func (pb *PrimaryBackup) primaryLocked() int {
	if pb.primary < len(pb.replicas) && pb.replicas[pb.primary].up {
		return pb.primary
	}
	for i, r := range pb.replicas {
		if r.up {
			pb.primary = i
			return i
		}
	}
	return -1
}

// Write stores key=value through the primary, version-stamped, and
// synchronously copies it to all live backups.
func (pb *PrimaryBackup) Write(key, value string) error {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	p := pb.primaryLocked()
	if p < 0 {
		return ErrUnavailable
	}
	prim := pb.replicas[p]
	v := prim.data[key].version + 1
	for i, r := range pb.replicas {
		if !r.up {
			continue
		}
		r.data[key] = versioned{value: value, version: v}
		if i != p {
			pb.msgs++
		}
	}
	return nil
}

// Read returns the value at the primary.
func (pb *PrimaryBackup) Read(key string) (string, error) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	p := pb.primaryLocked()
	if p < 0 {
		return "", ErrUnavailable
	}
	return pb.replicas[p].data[key].value, nil
}

// Fail marks replica i down; Recover brings it back, copying state from
// the current primary (catch-up).
func (pb *PrimaryBackup) Fail(i int) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if i >= 0 && i < len(pb.replicas) {
		pb.replicas[i].up = false
	}
}

// Recover brings replica i back up and synchronizes it from the primary.
func (pb *PrimaryBackup) Recover(i int) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if i < 0 || i >= len(pb.replicas) {
		return
	}
	pb.replicas[i].up = true
	if p := pb.primaryLocked(); p >= 0 && p != i {
		fresh := make(map[string]versioned, len(pb.replicas[p].data))
		for k, v := range pb.replicas[p].data {
			fresh[k] = v
		}
		pb.replicas[i].data = fresh
		pb.msgs++
	}
}

// Messages returns replication messages sent (backup copies, catch-ups).
func (pb *PrimaryBackup) Messages() int {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return pb.msgs
}

// Quorum is quorum replication over n replicas with write quorum w and
// read quorum r: a write succeeds once w replicas store it; a read
// queries r replicas and returns the highest-versioned value. When
// r + w > n, reads see the latest completed write (strict quorum); the
// paper's "weaker consistency constraints" correspond to smaller r/w.
type Quorum struct {
	mu       sync.Mutex
	replicas []*replica
	w, r     int
	version  int64
	msgs     int
}

// NewQuorum creates an n-replica quorum store. It panics if w or r are
// out of (0, n].
func NewQuorum(n, w, r int) *Quorum {
	if n < 1 || w < 1 || w > n || r < 1 || r > n {
		panic(fmt.Sprintf("replication: invalid quorum config n=%d w=%d r=%d", n, w, r))
	}
	q := &Quorum{w: w, r: r}
	for i := 0; i < n; i++ {
		q.replicas = append(q.replicas, &replica{up: true, data: make(map[string]versioned)})
	}
	return q
}

// Strict reports whether the configuration guarantees read-your-writes
// (r + w > n).
func (q *Quorum) Strict() bool { return q.r+q.w > len(q.replicas) }

// Write stores key=value on the first w live replicas.
func (q *Quorum) Write(key, value string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.version++
	stored := 0
	for _, rep := range q.replicas {
		if !rep.up {
			continue
		}
		rep.data[key] = versioned{value: value, version: q.version}
		q.msgs++
		stored++
		if stored == q.w {
			return nil
		}
	}
	return ErrUnavailable
}

// Read queries the first r live replicas and returns the freshest value.
// ok is false if the key is unknown to all of them.
func (q *Quorum) Read(key string) (value string, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	asked := 0
	best := versioned{version: -1}
	for _, rep := range q.replicas {
		if !rep.up {
			continue
		}
		q.msgs++
		if v, has := rep.data[key]; has && v.version > best.version {
			best = v
		}
		asked++
		if asked == q.r {
			break
		}
	}
	if asked < q.r {
		return "", false, ErrUnavailable
	}
	if best.version < 0 {
		return "", false, nil
	}
	return best.value, true, nil
}

// Fail marks replica i down. Recover brings it back (without catch-up:
// quorum reads repair staleness by version).
func (q *Quorum) Fail(i int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i >= 0 && i < len(q.replicas) {
		q.replicas[i].up = false
	}
}

// Recover brings replica i back up.
func (q *Quorum) Recover(i int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i >= 0 && i < len(q.replicas) {
		q.replicas[i].up = true
	}
}

// Messages returns replica messages exchanged.
func (q *Quorum) Messages() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.msgs
}

// Log is a majority-vote replicated log: the core of state-machine
// replication (Schneider; Lamport's Paxos). An entry commits when a
// majority of replicas accept it; committed entries are totally ordered
// and survive any minority of failures.
type Log struct {
	mu       sync.Mutex
	n        int
	up       []bool
	accepted [][]string // per-replica accepted entries
	commit   []string   // committed prefix
	msgs     int
}

// NewLog creates an n-replica log (n ≥ 1, odd values tolerate the most
// failures per replica).
func NewLog(n int) *Log {
	if n < 1 {
		n = 1
	}
	l := &Log{n: n, up: make([]bool, n), accepted: make([][]string, n)}
	for i := range l.up {
		l.up[i] = true
	}
	return l
}

// Propose appends value to the log if a majority of replicas is up; the
// committed index is returned.
func (l *Log) Propose(value string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acks := 0
	for i := range l.up {
		if l.up[i] {
			acks++
		}
	}
	if acks <= l.n/2 {
		return -1, ErrUnavailable
	}
	idx := len(l.commit)
	for i := range l.up {
		if l.up[i] {
			l.accepted[i] = append(l.accepted[i], value)
			l.msgs++
		}
	}
	l.commit = append(l.commit, value)
	return idx, nil
}

// Committed returns the committed entries.
func (l *Log) Committed() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.commit...)
}

// Fail marks replica i down; Recover brings it back and catches it up
// from the committed prefix.
func (l *Log) Fail(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= 0 && i < l.n {
		l.up[i] = false
	}
}

// Recover brings replica i back and replays the committed prefix to it.
func (l *Log) Recover(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= l.n {
		return
	}
	l.up[i] = true
	l.accepted[i] = append([]string(nil), l.commit...)
	l.msgs++
}

// MajorityUp reports whether a majority of replicas is currently up.
func (l *Log) MajorityUp() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	acks := 0
	for i := range l.up {
		if l.up[i] {
			acks++
		}
	}
	return acks > l.n/2
}

// Messages returns replica messages exchanged.
func (l *Log) Messages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.msgs
}

// LockService is a lease-based lock manager in the spirit of Chubby:
// locks are held under leases that expire at a virtual deadline, so a
// crashed holder cannot block the system forever.
type LockService struct {
	mu    sync.Mutex
	locks map[string]lease
}

type lease struct {
	owner   string
	expires float64
}

// NewLockService creates an empty lock service.
func NewLockService() *LockService {
	return &LockService{locks: make(map[string]lease)}
}

// Acquire attempts to take the named lock for owner until now+ttl. It
// succeeds if the lock is free, expired, or already held by owner (in
// which case the lease is extended).
func (ls *LockService) Acquire(name, owner string, now, ttl float64) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l, held := ls.locks[name]
	if held && l.expires > now && l.owner != owner {
		return false
	}
	ls.locks[name] = lease{owner: owner, expires: now + ttl}
	return true
}

// Release frees the lock if owner holds it.
func (ls *LockService) Release(name, owner string, now float64) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l, held := ls.locks[name]
	if !held || l.owner != owner || l.expires <= now {
		return false
	}
	delete(ls.locks, name)
	return true
}

// Holder returns the current live holder of the lock, or "".
func (ls *LockService) Holder(name string, now float64) string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if l, held := ls.locks[name]; held && l.expires > now {
		return l.owner
	}
	return ""
}

// Holders lists the names of currently held locks at virtual time now.
func (ls *LockService) Holders(now float64) []string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var names []string
	for n, l := range ls.locks {
		if l.expires > now {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
