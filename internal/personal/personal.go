// Package personal implements the personalization layer of Section 5:
// "every user has its own state space containing variables that indicate
// its preferences, and potentially upon every query there is an update
// to such a user state. In such cases, it is necessary to guarantee that
// the state is consistent in every update, and that the user state is
// never lost."
//
// Profiles live in a replicated store built on primary-backup
// replication; the alternative the paper sketches — "a thin layer on the
// client-side" — is the same Profile value held by the caller and
// applied with Rerank, with no server state at all.
package personal

import (
	"encoding/json"
	"fmt"
	"sort"

	"dwr/internal/rank"
	"dwr/internal/replication"
)

// Profile is one user's preference state: how often the user engaged
// with each topic, plus a monotonically increasing version.
type Profile struct {
	User        string          `json:"user"`
	TopicClicks map[int]float64 `json:"topic_clicks"`
	Queries     int             `json:"queries"`
	Version     int64           `json:"version"`
}

// NewProfile returns an empty profile for user.
func NewProfile(user string) Profile {
	return Profile{User: user, TopicClicks: make(map[int]float64)}
}

// Weight returns the normalized preference for a topic in [0, 1].
func (p *Profile) Weight(topic int) float64 {
	total := 0.0
	for _, c := range p.TopicClicks {
		total += c
	}
	if total == 0 {
		return 0
	}
	return p.TopicClicks[topic] / total
}

// Store keeps profiles consistent and durable across replica failures.
type Store struct {
	pb *replication.PrimaryBackup
}

// NewStore creates a store replicated across n replicas.
func NewStore(replicas int) *Store {
	return &Store{pb: replication.NewPrimaryBackup(replicas)}
}

// Get loads a user's profile (an empty profile if the user is new).
func (s *Store) Get(user string) (Profile, error) {
	raw, err := s.pb.Read("profile/" + user)
	if err != nil {
		return Profile{}, fmt.Errorf("personal: reading profile: %w", err)
	}
	if raw == "" {
		return NewProfile(user), nil
	}
	var p Profile
	if err := json.Unmarshal([]byte(raw), &p); err != nil {
		return Profile{}, fmt.Errorf("personal: corrupt profile for %s: %w", user, err)
	}
	return p, nil
}

// Update applies fn to the user's profile under read-modify-write,
// bumping the version and replicating synchronously — the strong
// consistency the paper calls for.
func (s *Store) Update(user string, fn func(*Profile)) error {
	p, err := s.Get(user)
	if err != nil {
		return err
	}
	fn(&p)
	p.Version++
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("personal: encoding profile: %w", err)
	}
	if err := s.pb.Write("profile/"+user, string(raw)); err != nil {
		return fmt.Errorf("personal: writing profile: %w", err)
	}
	return nil
}

// RecordClick notes that user clicked a result of the given topic after
// a query — the paper's "upon every query there is an update".
func (s *Store) RecordClick(user string, topic int) error {
	return s.Update(user, func(p *Profile) {
		p.TopicClicks[topic]++
		p.Queries++
	})
}

// FailReplica exposes the failure injection of the underlying
// replication group.
func (s *Store) FailReplica(i int) { s.pb.Fail(i) }

// Rerank personalizes a ranking: each result's score is boosted by the
// user's preference for its topic (multiplicative 1 + boost·weight).
// It works identically whether the profile came from the replicated
// store or from a client-side layer.
func Rerank(results []rank.Result, topicOf func(doc int) int, p Profile, boost float64) []rank.Result {
	out := make([]rank.Result, len(results))
	for i, r := range results {
		w := p.Weight(topicOf(r.Doc))
		out[i] = rank.Result{Doc: r.Doc, Score: r.Score * (1 + boost*w)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}
