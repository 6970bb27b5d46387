package robots

import "testing"

func TestParseBasic(t *testing.T) {
	r := Parse("User-agent: *\nDisallow: /private/\nCrawl-delay: 2\n", "dwr")
	if r.Allowed("/private/x.html") {
		t.Fatal("disallowed path allowed")
	}
	if !r.Allowed("/public/x.html") {
		t.Fatal("allowed path disallowed")
	}
	if r.CrawlDelay != 2 {
		t.Fatalf("crawl delay = %v, want 2", r.CrawlDelay)
	}
}

func TestParseAgentSpecific(t *testing.T) {
	body := "User-agent: other\nDisallow: /\n\nUser-agent: dwr\nDisallow: /secret/\n"
	r := Parse(body, "dwr")
	if r.Allowed("/secret/a") {
		t.Fatal("agent-specific disallow ignored")
	}
	if !r.Allowed("/open/a") {
		t.Fatal("foreign agent's blanket disallow applied to us")
	}
}

func TestParseTolerant(t *testing.T) {
	// Comments, junk lines, missing colons, negative delays.
	body := "# hi\nUser-agent: *\njunk line\nDisallow /nope\nDisallow: /real/\nCrawl-delay: -5\nCrawl-delay: abc\n"
	r := Parse(body, "x")
	if r.Allowed("/real/a") {
		t.Fatal("valid disallow lost among junk")
	}
	if !r.Allowed("/nope") {
		t.Fatal("colon-less directive was applied")
	}
	if r.CrawlDelay != 0 {
		t.Fatalf("bad crawl delays accepted: %v", r.CrawlDelay)
	}
}

func TestAllowOverridesDisallowByLength(t *testing.T) {
	body := "User-agent: *\nDisallow: /dir/\nAllow: /dir/ok/\n"
	r := Parse(body, "x")
	if r.Allowed("/dir/no.html") {
		t.Fatal("/dir/no.html should be disallowed")
	}
	if !r.Allowed("/dir/ok/yes.html") {
		t.Fatal("/dir/ok/yes.html should be allowed (longer Allow match)")
	}
}

func TestNilRulesAllowEverything(t *testing.T) {
	var r *Rules
	if !r.Allowed("/anything") {
		t.Fatal("nil rules should allow")
	}
}

func TestEmptyBodyAllowsEverything(t *testing.T) {
	r := Parse("", "x")
	if !r.Allowed("/a") || !r.Allowed("/private/") {
		t.Fatal("empty robots.txt should allow everything")
	}
}

func TestPolitenessOneConnectionPerHost(t *testing.T) {
	p := NewPoliteness(1)
	ok, _ := p.TryAcquire("h", 0, 0)
	if !ok {
		t.Fatal("first acquire failed")
	}
	ok, _ = p.TryAcquire("h", 0, 0)
	if ok {
		t.Fatal("second concurrent acquire to same host succeeded")
	}
	// A different host is independent.
	ok, _ = p.TryAcquire("g", 0, 0)
	if !ok {
		t.Fatal("acquire to different host failed")
	}
}

func TestPolitenessDelayBetweenAccesses(t *testing.T) {
	p := NewPoliteness(1.5)
	ok, _ := p.TryAcquire("h", 0, 0)
	if !ok {
		t.Fatal("acquire failed")
	}
	p.Release("h", 2.0, 0) // finished at t=2
	ok, next := p.TryAcquire("h", 2.5, 0)
	if ok {
		t.Fatal("acquire inside delay window succeeded")
	}
	if next != 3.5 {
		t.Fatalf("earliest retry = %v, want 3.5 (end 2.0 + delay 1.5)", next)
	}
	ok, _ = p.TryAcquire("h", 3.5, 0)
	if !ok {
		t.Fatal("acquire at earliest allowed time failed")
	}
}

func TestPolitenessHonoursCrawlDelay(t *testing.T) {
	p := NewPoliteness(1)
	ok, _ := p.TryAcquire("h", 0, 10)
	if !ok {
		t.Fatal("acquire failed")
	}
	p.Release("h", 1, 10)
	if ok, next := p.TryAcquire("h", 5, 10); ok || next != 11 {
		t.Fatalf("crawl-delay not honoured: ok=%v next=%v, want false/11", ok, next)
	}
}

func TestEarliestStart(t *testing.T) {
	p := NewPoliteness(2)
	if ok, at := p.TryAcquire("h", 7, 0); !ok || at != 7 {
		t.Fatalf("fresh host: TryAcquire = %v, %v, want true, 7", ok, at)
	}
	p.Release("h", 8, 0)
	if ok, at := p.TryAcquire("h", 8, 0); ok || at != 10 {
		t.Fatalf("after release: TryAcquire = %v, %v, want false, 10", ok, at)
	}
}
