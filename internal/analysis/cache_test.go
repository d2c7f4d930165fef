package analysis

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/store"
)

func mustNet(t *testing.T, text string) *config.Network {
	t.Helper()
	net, err := config.ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return net
}

// TestCacheKeySensitivity pins that every result-shaping input is part
// of the key: flipping any of them must move the key, while edits the
// task domain cannot observe must not.
func TestCacheKeySensitivity(t *testing.T) {
	net := mustNet(t, figure1)
	pfx := route.MustParsePrefix("128.0.0.0/1")
	base := CacheKey(net, src.Options{PruneK: 2}, pfx, true, LadderOptions{})

	if k := CacheKey(net, src.Options{PruneK: 2}, pfx, true, LadderOptions{}); k != base {
		t.Fatalf("key not deterministic: %s vs %s", base, k)
	}
	if len(base) != 64 || strings.ToLower(base) != base {
		t.Fatalf("key %q is not lowercase sha256 hex", base)
	}

	variants := map[string]string{
		"prune_k":   CacheKey(net, src.Options{PruneK: 3}, pfx, true, LadderOptions{}),
		"no_ecmp":   CacheKey(net, src.Options{PruneK: 2, NoECMP: true}, pfx, true, LadderOptions{}),
		"nodelimit": CacheKey(net, src.Options{PruneK: 2, BDDNodeLimit: 1 << 20}, pfx, true, LadderOptions{}),
		"ladder":    CacheKey(net, src.Options{PruneK: 2}, pfx, false, LadderOptions{}),
		"halving":   CacheKey(net, src.Options{PruneK: 2}, pfx, true, LadderOptions{DisableBudgetHalving: true}),
		"prefix":    CacheKey(net, src.Options{PruneK: 2}, route.MustParsePrefix("192.0.0.0/2"), true, LadderOptions{}),
	}
	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}

	// What cannot change a result must not move the key: the worker
	// count.
	if k := CacheKey(net, src.Options{PruneK: 2, Parallelism: 8}, pfx, true, LadderOptions{}); k != base {
		t.Errorf("parallelism moved the key: %s vs %s", k, base)
	}

	// An in-domain config edit (figure1's route-maps and ACLs are hashed
	// whole) must move the key.
	edited := mustNet(t, strings.Replace(figure1, "deny prefix 192.0.0.0/2", "permit prefix 192.0.0.0/2", 1))
	if k := CacheKey(edited, src.Options{PruneK: 2}, pfx, true, LadderOptions{}); k == base {
		t.Fatalf("route-map edit did not change the key")
	}

	// An out-of-domain edit — a new origination on B that overlaps
	// neither 128/1 nor 192/2 — must leave the key alone: warm caches
	// survive unrelated incremental edits.
	unrelatedText := strings.Replace(figure1,
		"router B\n  bgp 65002\nend",
		"router B\n  bgp 65002\n    network 0.0.0.0/2\nend", 1)
	if unrelatedText == figure1 {
		t.Fatalf("test fixture drifted: router B stanza not found")
	}
	unrelated := mustNet(t, unrelatedText)
	if k := CacheKey(unrelated, src.Options{PruneK: 2}, pfx, true, LadderOptions{}); k != base {
		t.Fatalf("out-of-domain origination changed the key:\n  base %s\n  got  %s", base, k)
	}
}

// TestResultCacheRoundTrip publishes a real prefix task result and
// replays it: the outcome must compare equal and the rebuilt pipelines
// must carry the same PFEC count.
func TestResultCacheRoundTrip(t *testing.T) {
	net := mustNet(t, figure1)
	opts := src.Options{PruneK: 2}
	pfx := route.MustParsePrefix("128.0.0.0/1")

	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer s.Close()
	cache := &ResultCache{S: s}
	key := CacheKey(net, opts, pfx, true, LadderOptions{})

	pipes, out, err := RunPrefixTask(net, opts, pfx, true, LadderOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := 0
	for _, p := range pipes {
		want += p.NumPFECs()
	}
	cache.Publish(net, key, pfx, pipes, out)
	for _, p := range pipes {
		p.Release()
	}

	got, out2, hit, err := cache.Lookup(net, opts, key, pfx, nil)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !hit {
		t.Fatalf("published record missed")
	}
	defer func() {
		for _, p := range got {
			p.Release()
		}
	}()
	if !reflect.DeepEqual(out, out2) {
		t.Errorf("outcome changed across the cache:\n  put %+v\n  got %+v", out, out2)
	}
	have := 0
	for _, p := range got {
		have += p.NumPFECs()
	}
	if have != want {
		t.Errorf("NumPFECs = %d after replay, want %d", have, want)
	}
	if m := s.Metrics(); m.Hits != 1 || m.Puts != 1 {
		t.Errorf("metrics = %+v, want 1 hit / 1 put", m)
	}

	// A different key is a plain miss.
	if _, _, hit, err := cache.Lookup(net, opts, strings.Repeat("ab", 32), pfx, nil); err != nil || hit {
		t.Fatalf("foreign key: hit=%v err=%v, want miss", hit, err)
	}
}

// TestResultCacheNeverPublishesFailures pins the publish filter: error
// outcomes, crash-decorated outcomes, and empty results must never
// reach disk — replaying them would make a transient failure sticky.
func TestResultCacheNeverPublishesFailures(t *testing.T) {
	net := mustNet(t, figure1)
	pfx := route.MustParsePrefix("128.0.0.0/1")
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer s.Close()
	cache := &ResultCache{S: s}

	pipes, out, err := RunPrefixTask(net, src.Options{PruneK: 2}, pfx, true, LadderOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	defer func() {
		for _, p := range pipes {
			p.Release()
		}
	}()

	errOut := out
	errOut.Err = errors.New("boom")
	cache.Publish(net, "11"+strings.Repeat("00", 31), pfx, pipes, errOut)

	crashed := out
	crashed.Rungs = append([]string{RungWorkerCrash}, out.Rungs...)
	cache.Publish(net, "22"+strings.Repeat("00", 31), pfx, pipes, crashed)

	cache.Publish(net, "33"+strings.Repeat("00", 31), pfx, nil, out)

	if m := s.Metrics(); m.Puts != 0 {
		t.Fatalf("failure outcomes were published: %+v", m)
	}

	// A nil cache ignores both directions.
	var nilCache *ResultCache
	nilCache.Publish(net, "44"+strings.Repeat("00", 31), pfx, pipes, out)
	if _, _, hit, err := nilCache.Lookup(net, src.Options{}, "44"+strings.Repeat("00", 31), pfx, nil); hit || err != nil {
		t.Fatalf("nil cache: hit=%v err=%v", hit, err)
	}
}
