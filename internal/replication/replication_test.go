package replication

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAvailabilityFormula(t *testing.T) {
	if got := Availability(0.9, 1); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("A(0.9,1) = %v", got)
	}
	if got := Availability(0.9, 2); math.Abs(got-0.99) > 1e-12 {
		t.Fatalf("A(0.9,2) = %v", got)
	}
	if got := Availability(0.9, 0); got != 0 {
		t.Fatalf("A(.,0) = %v", got)
	}
	f := func(r uint8) bool {
		n := int(r%6) + 1
		return Availability(0.8, n+1) >= Availability(0.8, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryBackupBasic(t *testing.T) {
	pb := NewPrimaryBackup(3)
	if err := pb.Write("user1", "prefs-v1"); err != nil {
		t.Fatal(err)
	}
	v, err := pb.Read("user1")
	if err != nil || v != "prefs-v1" {
		t.Fatalf("read = %q, %v", v, err)
	}
}

func TestPrimaryBackupFailover(t *testing.T) {
	pb := NewPrimaryBackup(3)
	pb.Write("k", "v1")
	pb.Fail(0) // kill primary
	v, err := pb.Read("k")
	if err != nil || v != "v1" {
		t.Fatalf("read after failover = %q, %v — state lost", v, err)
	}
	if pb.primaryLocked() == 0 {
		t.Fatal("failed primary still primary")
	}
	if err := pb.Write("k", "v2"); err != nil {
		t.Fatal(err)
	}
	pb.Fail(1)
	pb.Fail(2)
	if _, err := pb.Read("k"); err != ErrUnavailable {
		t.Fatalf("read with all replicas down = %v, want ErrUnavailable", err)
	}
}

func TestQuorumStrictConsistency(t *testing.T) {
	q := NewQuorum(3, 2, 2) // r+w=4 > 3
	q.Write("k", "v1")
	q.Write("k", "v2")
	v, ok, err := q.Read("k")
	if err != nil || !ok || v != "v2" {
		t.Fatalf("read = %q %v %v", v, ok, err)
	}
	// Tolerates one failure.
	q.Fail(0)
	if err := q.Write("k", "v3"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := q.Read("k"); v != "v3" {
		t.Fatalf("read after failure = %q", v)
	}
	// Two failures break quorums of size 2.
	q.Fail(1)
	if err := q.Write("k", "v4"); err != ErrUnavailable {
		t.Fatalf("write with 1 live replica = %v", err)
	}
	if _, _, err := q.Read("k"); err != ErrUnavailable {
		t.Fatalf("read with 1 live replica = %v", err)
	}
}

func TestQuorumWeakConfigurationCanReadStale(t *testing.T) {
	// w=1, r=1 over 3 replicas is not strict: after the replica that
	// took the write fails, readers may see nothing or stale data.
	q := NewQuorum(3, 1, 1)
	q.Write("k", "v1") // lands on replica 0 only
	q.Fail(0)
	_, ok, err := q.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("weak quorum read saw the value despite its only holder being down")
	}
}

func TestQuorumPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range [][3]int{{0, 1, 1}, {3, 0, 1}, {3, 4, 1}, {3, 1, 0}, {3, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuorum(%v) did not panic", cfg)
				}
			}()
			NewQuorum(cfg[0], cfg[1], cfg[2])
		}()
	}
}

func TestQuorumUnknownKey(t *testing.T) {
	q := NewQuorum(3, 2, 2)
	if _, ok, err := q.Read("nope"); ok || err != nil {
		t.Fatalf("unknown key read = %v %v", ok, err)
	}
}

func TestLogMajorityCommit(t *testing.T) {
	l := NewLog(5)
	for i := 0; i < 3; i++ {
		if _, err := l.Propose(fmt.Sprintf("op%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Committed(); len(got) != 3 || got[0] != "op0" || got[2] != "op2" {
		t.Fatalf("committed = %v", got)
	}
	// Two failures out of five: still a majority.
	l.Fail(0)
	l.Fail(1)
	if _, err := l.Propose("op3"); err != nil {
		t.Fatal(err)
	}
	// Third failure: no majority, no progress.
	l.Fail(2)
	if _, err := l.Propose("op4"); err != ErrUnavailable {
		t.Fatalf("propose without majority = %v", err)
	}
	if got := l.Committed(); len(got) != 4 || got[3] != "op3" {
		t.Fatalf("committed after a refused proposal = %v", got)
	}
}
