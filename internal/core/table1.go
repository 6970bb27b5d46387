package core

// Table 1 of the paper organizes the system by module (crawling,
// indexing, querying) and cross-cutting issue (partitioning,
// communication, dependability, external factors). This registry maps
// every cell of that table to the components of this repository that
// implement it; the Table 1 experiment prints it, and a test asserts no
// cell is empty — i.e. the reproduction covers the paper's whole map.

// Table1Cell is one cell of the module × issue matrix.
type Table1Cell struct {
	Module     string
	Issue      string
	PaperTopic string   // the paper's wording for the cell
	Components []string // implementing packages/types in this repository
}

// Table1 returns the full module × issue coverage matrix.
func Table1() []Table1Cell {
	return []Table1Cell{
		{
			Module: "Crawling", Issue: "Partitioning",
			PaperTopic: "URL assignment",
			Components: []string{
				"crawler.AssignMod / crawler.AssignConsistent",
				"chash.Ring (consistent hashing)",
			},
		},
		{
			Module: "Crawling", Issue: "Communication",
			PaperTopic: "Re-crawling",
			Components: []string{
				"crawler.Crawler.Recrawl (If-Modified-Since, sitemaps)",
			},
		},
		{
			Module: "Crawling", Issue: "Dependability",
			PaperTopic: "URL exchanges",
			Components: []string{
				"crawler batched outboxes + most-cited seeding",
				"crawler.Crawler.FailAgent (re-allocation of a faulty agent's URLs)",
			},
		},
		{
			Module: "Crawling", Issue: "External factors",
			PaperTopic: "Web growth, content change, network topology, bandwidth, DNS, QoS of Web servers",
			Components: []string{
				"simweb (growth/change models, slow/flaky/non-conforming servers)",
				"dnssim (DNS latency + cache)",
				"robots (politeness, crawl-delay)",
				"textproc.ParseHTML (error tolerance)",
			},
		},
		{
			Module: "Indexing", Issue: "Partitioning",
			PaperTopic: "Document partitioning, term partitioning",
			Components: []string{
				"partition.RandomDocs/RoundRobinDocs/KMeansDocs/CoClusterDocs",
				"partition.RandomTerms/BinPackTerms/CoOccurTerms",
			},
		},
		{
			Module: "Indexing", Issue: "Communication",
			PaperTopic: "Re-indexing",
			Components: []string{
				"index.Merge (distributed merges)",
				"index.BuildMapReduce / index.BuildPipeline",
			},
		},
		{
			Module: "Indexing", Issue: "Dependability",
			PaperTopic: "Partial indexing, updating, merging",
			Components: []string{
				"index.SPIMIBuilder (spill runs + k-way merge)",
				"qproc.DocEngine.SetDown (answering without failed partitions)",
				"replication.LockService (index update locking)",
			},
		},
		{
			Module: "Indexing", Issue: "External factors",
			PaperTopic: "Web growth, content change, global statistics",
			Components: []string{
				"index.Stats / index.MergeStats (global vs local statistics)",
				"qproc.GlobalTwoRound (two-round protocol)",
			},
		},
		{
			Module: "Querying", Issue: "Partitioning",
			PaperTopic: "Query routing, collection selection, load balancing",
			Components: []string{
				"selection.CORI / selection.QueryDriven",
				"qproc.MultiSite routing (geo, load-aware)",
				"partition.BinPackTerms (load balancing)",
			},
		},
		{
			Module: "Querying", Issue: "Communication",
			PaperTopic: "Replication, caching",
			Components: []string{
				"replication.PrimaryBackup/Quorum/Log",
				"cache.LRU/LFU/SDC + stale serving",
			},
		},
		{
			Module: "Querying", Issue: "Dependability",
			PaperTopic: "Rank aggregation, personalization",
			Components: []string{
				"rank.MergeResults, flat and as a fan-out-4 coordinator tree (C12)",
				"replication.PrimaryBackup (consistent user state)",
			},
		},
		{
			Module: "Querying", Issue: "External factors",
			PaperTopic: "Changing user needs, user base growth, DNS",
			Components: []string{
				"querylog (topic drift, diurnal/regional patterns)",
				"queueing (G/G/c front-end capacity)",
				"capacity (growth projections)",
			},
		},
	}
}
