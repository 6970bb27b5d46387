package personal

import (
	"testing"

	"dwr/internal/rank"
)

func TestProfileLifecycle(t *testing.T) {
	s := NewStore(3)
	p, err := s.Get("alice")
	if err != nil || p.Queries != 0 {
		t.Fatalf("fresh profile = %+v, %v", p, err)
	}
	for i := 0; i < 5; i++ {
		if err := s.RecordClick("alice", 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RecordClick("alice", 7); err != nil {
		t.Fatal(err)
	}
	p, err = s.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Queries != 6 || p.TopicClicks[2] != 5 || p.TopicClicks[7] != 1 {
		t.Fatalf("profile after clicks = %+v", p)
	}
	if p.Version != 6 {
		t.Fatalf("version = %d, want 6", p.Version)
	}
	if w := p.Weight(2); w < 0.82 || w > 0.84 {
		t.Fatalf("weight(2) = %v, want 5/6", w)
	}
	if p.Weight(99) != 0 {
		t.Fatal("unknown topic weight not 0")
	}
}

func TestProfileSurvivesPrimaryFailure(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 10; i++ {
		if err := s.RecordClick("bob", i%3); err != nil {
			t.Fatal(err)
		}
	}
	s.FailReplica(0) // primary crash
	p, err := s.Get("bob")
	if err != nil {
		t.Fatalf("profile lost after primary failure: %v", err)
	}
	if p.Queries != 10 {
		t.Fatalf("profile stale after failover: %+v", p)
	}
	// Updates continue against the promoted backup.
	if err := s.RecordClick("bob", 1); err != nil {
		t.Fatal(err)
	}
	p, _ = s.Get("bob")
	if p.Queries != 11 || p.Version != 11 {
		t.Fatalf("post-failover update lost: %+v", p)
	}
}

func TestUpdatesFailWithAllReplicasDown(t *testing.T) {
	s := NewStore(2)
	s.RecordClick("c", 0)
	s.FailReplica(0)
	s.FailReplica(1)
	if err := s.RecordClick("c", 0); err == nil {
		t.Fatal("update succeeded with no replicas")
	}
}

func TestRerankPersonalizes(t *testing.T) {
	base := []rank.Result{{Doc: 1, Score: 1.0}, {Doc: 2, Score: 0.95}, {Doc: 3, Score: 0.9}}
	topicOf := func(doc int) int { return doc } // doc i has topic i
	sports := NewProfile("sports-fan")
	sports.TopicClicks[3] = 10 // loves topic 3
	news := NewProfile("news-fan")
	news.TopicClicks[1] = 10

	sr := Rerank(base, topicOf, sports, 0.5)
	nr := Rerank(base, topicOf, news, 0.5)
	if sr[0].Doc != 3 {
		t.Fatalf("sports fan ranking = %v, want doc 3 first", sr)
	}
	if nr[0].Doc != 1 {
		t.Fatalf("news fan ranking = %v, want doc 1 first", nr)
	}
	// Empty profile: order unchanged.
	er := Rerank(base, topicOf, NewProfile("new"), 0.5)
	for i := range base {
		if er[i].Doc != base[i].Doc {
			t.Fatal("empty profile changed the ranking")
		}
	}
	// Input must not be mutated.
	if base[0].Score != 1.0 {
		t.Fatal("Rerank mutated its input")
	}
}

func TestClientSideLayerEquivalence(t *testing.T) {
	// The "thin layer on the client-side": a profile held by the caller
	// produces exactly the same rankings as one fetched from the store.
	s := NewStore(3)
	for i := 0; i < 4; i++ {
		s.RecordClick("u", 5)
	}
	serverProfile, err := s.Get("u")
	if err != nil {
		t.Fatal(err)
	}
	clientProfile := NewProfile("u")
	for i := 0; i < 4; i++ {
		clientProfile.TopicClicks[5]++
		clientProfile.Queries++
	}
	base := []rank.Result{{Doc: 5, Score: 0.5}, {Doc: 6, Score: 0.6}}
	topicOf := func(doc int) int { return doc }
	a := Rerank(base, topicOf, serverProfile, 1)
	b := Rerank(base, topicOf, clientProfile, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("client-side and server-side personalization diverge")
		}
	}
}
