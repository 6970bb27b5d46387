// Package partition implements the index partitioning strategies of
// Section 4: horizontal (document) partitioning — random, round-robin,
// topical k-means, and query-driven co-clustering (Puppin et al.) — and
// vertical (term) partitioning — random, query-weighted bin-packing
// (Moffat et al.), and co-occurrence-aware assignment (Lucchese et al.).
package partition

import (
	"math"
	"math/rand"
	"sort"
)

// DocPartition maps external document IDs to partitions.
type DocPartition struct {
	K      int
	Parts  [][]int     // Parts[p] lists the documents of partition p
	Assign map[int]int // doc -> partition
}

func newDocPartition(k int) DocPartition {
	return DocPartition{K: k, Parts: make([][]int, k), Assign: make(map[int]int)}
}

func (dp *DocPartition) add(doc, p int) {
	dp.Parts[p] = append(dp.Parts[p], doc)
	dp.Assign[doc] = p
}

// Sizes returns the document count per partition.
func (dp *DocPartition) Sizes() []int {
	out := make([]int, dp.K)
	for p, docs := range dp.Parts {
		out[p] = len(docs)
	}
	return out
}

// RandomDocs assigns each document to a uniformly random partition — the
// baseline the paper notes "does not guarantee an even load balance" yet
// is what most deployed systems use.
func RandomDocs(rng *rand.Rand, docs []int, k int) DocPartition {
	dp := newDocPartition(k)
	for _, d := range docs {
		dp.add(d, rng.Intn(k))
	}
	return dp
}

// RoundRobinDocs deals documents to partitions in turn, giving exactly
// balanced sizes.
func RoundRobinDocs(docs []int, k int) DocPartition {
	dp := newDocPartition(k)
	for i, d := range docs {
		dp.add(d, i%k)
	}
	return dp
}

// DocVector is a sparse term-weight vector describing one document, the
// input to topical clustering.
type DocVector struct {
	Ext int
	TF  map[int]float64 // term ID -> weight
}

// KMeansDocs clusters documents into k topical partitions with spherical
// k-means (cosine similarity) — the "k-means clustering to partition a
// collection according to topics" of Section 4. iters bounds the Lloyd
// iterations.
func KMeansDocs(rng *rand.Rand, vecs []DocVector, k, iters int) DocPartition {
	dp := newDocPartition(k)
	if len(vecs) == 0 {
		return dp
	}
	if k >= len(vecs) {
		for i, v := range vecs {
			dp.add(v.Ext, i%k)
		}
		return dp
	}
	// Normalize inputs once.
	norm := make([]map[int]float64, len(vecs))
	for i, v := range vecs {
		norm[i] = normalize(v.TF)
	}
	// Initialize centroids from k distinct random documents.
	centroids := make([]map[int]float64, k)
	for i, idx := range randPerm(rng, len(vecs))[:k] {
		centroids[i] = norm[idx]
	}
	assign := make([]int, len(vecs))
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < iters; iter++ {
		changed := false
		for i := range vecs {
			best, bestSim := 0, -1.0
			for c := range centroids {
				if sim := dot(norm[i], centroids[c]); sim > bestSim {
					best, bestSim = c, sim
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids.
		sums := make([]map[int]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make(map[int]float64)
		}
		for i, c := range assign {
			counts[c]++
			for t, w := range norm[i] {
				sums[c][t] += w
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random document.
				centroids[c] = norm[rng.Intn(len(vecs))]
				continue
			}
			centroids[c] = normalize(sums[c])
		}
	}
	for i, v := range vecs {
		dp.add(v.Ext, assign[i])
	}
	return dp
}

func normalize(v map[int]float64) map[int]float64 {
	var n float64
	for _, w := range v {
		n += w * w
	}
	if n == 0 {
		return v
	}
	n = math.Sqrt(n)
	out := make(map[int]float64, len(v))
	for t, w := range v {
		out[t] = w / n
	}
	return out
}

func dot(a, b map[int]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	s := 0.0
	for t, w := range a {
		s += w * b[t]
	}
	return s
}

func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// QueryDocs is one training observation for query-driven partitioning:
// a distinct query and the documents it retrieved.
type QueryDocs struct {
	Key   string
	Terms []string
	Docs  []int
}

// CoClusterResult is the output of query-driven co-clustering: the
// document partition plus the model needed for collection selection.
type CoClusterResult struct {
	Partition DocPartition
	// QueryPart scores partitions per training query key:
	// QueryPart[key][p] = fraction of the query's results in partition p.
	QueryPart map[string][]float64
	// NeverRecalled lists documents no training query retrieved; Puppin
	// et al. found these are ≈53% of the collection, and they are spread
	// round-robin across partitions (they cost little query load).
	NeverRecalled []int
}

// CoClusterDocs implements query-driven document partitioning in the
// spirit of Puppin et al.: each document is represented by the training
// queries that recall it, documents are clustered in query space
// (spherical k-means over query-incidence vectors), and the resulting
// query→partition co-occurrence doubles as the collection-selection
// model. allDocs supplies the full collection so never-recalled
// documents can be placed too.
func CoClusterDocs(rng *rand.Rand, train []QueryDocs, allDocs []int, k, iters int) CoClusterResult {
	// Build doc vectors in query space: one dimension per distinct
	// training query key, unweighted by how often the key was asked.
	queryID := make(map[string]int)
	for _, q := range train {
		if _, ok := queryID[q.Key]; !ok {
			queryID[q.Key] = len(queryID)
		}
	}
	docVec := make(map[int]map[int]float64)
	for _, q := range train {
		qi := queryID[q.Key]
		for _, d := range q.Docs {
			v, ok := docVec[d]
			if !ok {
				v = make(map[int]float64)
				docVec[d] = v
			}
			v[qi]++
		}
	}
	recalled := make([]DocVector, 0, len(docVec))
	for d, v := range docVec {
		recalled = append(recalled, DocVector{Ext: d, TF: v})
	}
	// Deterministic order for reproducibility (map iteration is random).
	sort.Slice(recalled, func(i, j int) bool { return recalled[i].Ext < recalled[j].Ext })

	part := KMeansDocs(rng, recalled, k, iters)

	// Spread never-recalled documents round-robin.
	var never []int
	for _, d := range allDocs {
		if _, ok := docVec[d]; !ok {
			never = append(never, d)
		}
	}
	sort.Ints(never)
	for i, d := range never {
		part.add(d, i%k)
	}

	// Selection model: distribution of each training query's results.
	qp := make(map[string][]float64, len(queryID))
	for _, q := range train {
		if _, done := qp[q.Key]; done {
			continue
		}
		dist := make([]float64, k)
		total := 0.0
		for _, d := range q.Docs {
			if p, ok := part.Assign[d]; ok {
				dist[p]++
				total++
			}
		}
		if total > 0 {
			for p := range dist {
				dist[p] /= total
			}
		}
		qp[q.Key] = dist
	}
	return CoClusterResult{Partition: part, QueryPart: qp, NeverRecalled: never}
}
