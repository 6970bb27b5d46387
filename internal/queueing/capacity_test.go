package queueing

import "testing"

func TestSection1Arithmetic(t *testing.T) {
	pl := Derive(DefaultParams())
	// 100 TB of text, 25 TB of index.
	if pl.TextBytes != 100e12 {
		t.Fatalf("text bytes = %g, want 1e14", pl.TextBytes)
	}
	if pl.IndexBytes != 25e12 {
		t.Fatalf("index bytes = %g, want 2.5e13", pl.IndexBytes)
	}
	// "we need approximately 3,000 of them in each cluster".
	if pl.NodesPerCluster < 2500 || pl.NodesPerCluster > 3500 {
		t.Fatalf("nodes/cluster = %d, want ≈3000", pl.NodesPerCluster)
	}
	// "around 10,000 per second on peak times".
	if pl.PeakQPS < 8000 || pl.PeakQPS > 12000 {
		t.Fatalf("peak qps = %.0f, want ≈10000", pl.PeakQPS)
	}
	// "we need to replicate the system at least 10 times".
	if pl.Replicas < 10 || pl.Replicas > 12 {
		t.Fatalf("replicas = %d, want ≈10", pl.Replicas)
	}
	// "at least 30,000 computers overall".
	if pl.TotalNodes < 28000 || pl.TotalNodes > 40000 {
		t.Fatalf("total nodes = %d, want ≈30000", pl.TotalNodes)
	}
	// "over 100 million US dollars".
	if pl.CostUSD < 100e6 {
		t.Fatalf("cost = %.0f, want > 1e8", pl.CostUSD)
	}
}

func TestProjection2010(t *testing.T) {
	// The paper's 2010 projection: clusters of ~50,000 and ≥1.5 million
	// machines overall. That corresponds to roughly 17× more data and a
	// proportionally larger workload (50000/3000 ≈ 16.7; 1.5M/50000 = 30
	// replicas ≈ 3× query growth over the 10 replicas of 2007).
	pl := Project(DefaultParams(), 16.7, 3)
	if pl.NodesPerCluster < 45000 || pl.NodesPerCluster > 55000 {
		t.Fatalf("2010 nodes/cluster = %d, want ≈50000", pl.NodesPerCluster)
	}
	if pl.TotalNodes < 1.3e6 || float64(pl.TotalNodes) > 1.8e6 {
		t.Fatalf("2010 total = %d, want ≈1.5M", pl.TotalNodes)
	}
}

func TestFrontEndModel(t *testing.T) {
	pl := Derive(DefaultParams())
	// 150 threads at 50 ms → 3,000 q/s bound.
	if pl.FrontEndCapacity != 3000 {
		t.Fatalf("front-end capacity = %v, want 3000", pl.FrontEndCapacity)
	}
	if pl.MeanResponseSec <= 0.05 || pl.MeanResponseSec > 0.2 {
		t.Fatalf("mean response = %v s, want slightly above the 50 ms service time", pl.MeanResponseSec)
	}
}

func TestZeroGuards(t *testing.T) {
	p := DefaultParams()
	p.RAMBytesPerNode = 0
	p.ClusterQPS = 0
	pl := Derive(p)
	if pl.NodesPerCluster != 0 || pl.Replicas != 0 || pl.TotalNodes != 0 {
		t.Fatalf("zero params produced nonzero plan: %+v", pl)
	}
}
