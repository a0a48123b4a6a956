package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
)

// oracleBuilder is the map-of-maps aggregation the dense Builder
// replaced: one entity set and one page counter per host name, sorted
// at Build. It is the reference the dense Builder must reproduce.
type oracleBuilder struct {
	domain   entity.Domain
	attr     entity.Attr
	num      int
	entities map[string]map[int]struct{}
	pages    map[string]int
}

func newOracleBuilder(domain entity.Domain, attr entity.Attr, numEntities int) *oracleBuilder {
	return &oracleBuilder{
		domain:   domain,
		attr:     attr,
		num:      numEntities,
		entities: make(map[string]map[int]struct{}),
		pages:    make(map[string]int),
	}
}

func (b *oracleBuilder) Add(host string, id int) {
	set, ok := b.entities[host]
	if !ok {
		set = make(map[int]struct{})
		b.entities[host] = set
	}
	set[id] = struct{}{}
}

func (b *oracleBuilder) AddPage(host string) { b.pages[host]++ }

func (b *oracleBuilder) Merge(other *oracleBuilder) {
	for host, set := range other.entities {
		for id := range set {
			b.Add(host, id)
		}
	}
	for host, n := range other.pages {
		b.pages[host] += n
	}
}

func (b *oracleBuilder) Build() *Index {
	idx := &Index{Domain: b.domain, Attr: b.attr, NumEntities: b.num}
	hosts := make(map[string]struct{}, len(b.entities))
	for h := range b.entities {
		hosts[h] = struct{}{}
	}
	for h := range b.pages {
		hosts[h] = struct{}{}
	}
	for host := range hosts {
		var ids []int
		for id := range b.entities[host] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		idx.Sites = append(idx.Sites, Site{Host: host, Entities: ids, Pages: b.pages[host]})
	}
	idx.SortBySize()
	return idx
}

// mention is one builder call: a page when page is set, else an Add.
type mention struct {
	host string
	id   int
	page bool
}

// randomMentions draws a mention stream over a few hosts: hosts recur
// non-adjacently, ids repeat and arrive unsorted, some hosts get only
// pages, and many hosts tie on size so only the host name orders them.
func randomMentions(rng *dist.RNG) []mention {
	nHosts := 1 + rng.Intn(12)
	hosts := make([]string, nHosts)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%02d.example.com", rng.Intn(40))
	}
	pageOnly := hosts[rng.Intn(nHosts)] + ".pages"
	var out []mention
	for range rng.Intn(60) {
		h := hosts[rng.Intn(nHosts)]
		switch rng.Intn(6) {
		case 0:
			out = append(out, mention{host: h, page: true})
		case 1:
			out = append(out, mention{host: pageOnly, page: true})
		default:
			out = append(out, mention{host: h, id: rng.Intn(8)})
		}
	}
	return out
}

func feed(b interface {
	Add(string, int)
	AddPage(string)
}, ms []mention) {
	for _, m := range ms {
		if m.page {
			b.AddPage(m.host)
		} else {
			b.Add(m.host, m.id)
		}
	}
}

// TestPropertyBuilderMatchesOracle: the dense Builder, fed directly,
// through Merge of builders that share hosts, and through a
// ShardedBuilder at several shard counts, builds exactly the oracle's
// index.
func TestPropertyBuilderMatchesOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		parts := [][]mention{randomMentions(rng), randomMentions(rng), randomMentions(rng)}
		want := newOracleBuilder(entity.Hotels, entity.AttrPhone, 8)
		direct := NewBuilder(entity.Hotels, entity.AttrPhone, 8)
		merged := NewBuilder(entity.Hotels, entity.AttrPhone, 8)
		for _, p := range parts {
			feed(want, p)
			feed(direct, p)
			part := NewBuilder(entity.Hotels, entity.AttrPhone, 8)
			feed(part, p)
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		oracle := want.Build()
		ok := reflect.DeepEqual(direct.Build(), oracle) && reflect.DeepEqual(merged.Build(), oracle)
		for _, shards := range []int{1, 2, 3, 8} {
			sb := NewShardedBuilder(entity.Hotels, entity.AttrPhone, 8, shards)
			for _, p := range parts {
				feed(sb, p)
			}
			got, err := sb.Build()
			if err != nil {
				t.Fatal(err)
			}
			ok = ok && reflect.DeepEqual(got, oracle)
		}
		if !ok {
			t.Logf("seed %d: mentions %v", seed, parts)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuilderMatchesOracleCases(t *testing.T) {
	cases := map[string][]mention{
		"empty": nil,
		"host repeated non-adjacently, ids unsorted and duplicated": {
			{host: "a.com", id: 5}, {host: "b.com", id: 1}, {host: "a.com", id: 2},
			{host: "a.com", id: 5}, {host: "b.com", id: 1}, {host: "a.com", id: 0},
		},
		"pages only": {{host: "p.com", page: true}, {host: "q.com", page: true}, {host: "p.com", page: true}},
		"size ties broken by host": {
			{host: "zz.com", id: 1}, {host: "mm.com", id: 2}, {host: "aa.com", id: 3},
			{host: "mm.com", id: 2}, {host: "big.com", id: 1}, {host: "big.com", id: 2},
		},
		"empty host name": {{host: "", id: 3}, {host: "x.com", id: 1}, {host: "", id: 1}, {host: "", page: true}},
	}
	for name, ms := range cases {
		want := newOracleBuilder(entity.Banks, entity.AttrReview, 10)
		got := NewBuilder(entity.Banks, entity.AttrReview, 10)
		feed(want, ms)
		feed(got, ms)
		if g, w := got.Build(), want.Build(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

// TestHostBuilderMatchesOracle: recording by host id, in host order or
// not, builds the same index; hosts with nothing recorded are left out.
func TestHostBuilderMatchesOracle(t *testing.T) {
	hosts := []string{"s0.com", "s1.com", "s2.com", "s3.com"}
	want := newOracleBuilder(entity.Banks, entity.AttrReview, 10)
	b := NewHostBuilder(entity.Banks, entity.AttrReview, 10, hosts)
	grouped := NewHostBuilder(entity.Banks, entity.AttrPhone, 10, hosts)
	for _, m := range []struct{ h, id int }{{0, 4}, {0, 1}, {2, 7}, {2, 7}, {0, 3}, {3, 1}} {
		want.Add(hosts[m.h], m.id)
		b.AddAt(m.h, m.id)
	}
	b.AddPagesAt(2, 3)
	for range 3 {
		want.AddPage(hosts[2])
	}

	grouped.AddAt(1, 5)
	grouped.AddAt(1, 2)
	grouped.AddAt(3, 2)

	if g, w := b.Build(), want.Build(); !reflect.DeepEqual(g, w) {
		t.Errorf("got %+v, want %+v", g, w)
	}
	idx := grouped.Build()
	if idx.NumSites() != 2 || !reflect.DeepEqual(idx.Sites[0].Entities, []int{2, 5}) || idx.Sites[1].Host != "s3.com" {
		t.Errorf("grouped host-id build = %+v", idx.Sites)
	}
}

// TestBuildReusesBuilder: Build leaves the columns intact, so a second
// Build after more mentions sees everything recorded.
func TestBuildReusesBuilder(t *testing.T) {
	b := NewBuilder(entity.Banks, entity.AttrPhone, 10)
	b.Add("a.com", 3)
	b.Add("a.com", 1)
	b.Add("a.com", 3)
	first := b.Build()
	b.Add("a.com", 2)
	second := b.Build()
	if !reflect.DeepEqual(first.Sites[0].Entities, []int{1, 3}) || !reflect.DeepEqual(second.Sites[0].Entities, []int{1, 2, 3}) {
		t.Errorf("first %v, second %v", first.Sites[0].Entities, second.Sites[0].Entities)
	}
}

// TestBuildAllocsConstant: Build allocates a fixed handful of arrays
// (run ends, entity backing, size blocks, site permutation, sites, the
// Index), however many sites and postings there are.
func TestBuildAllocsConstant(t *testing.T) {
	for _, nSites := range []int{10, 1000} {
		b := NewBuilder(entity.Banks, entity.AttrPhone, 100)
		rng := dist.NewRNG(uint64(nSites))
		for i := 0; i < 20*nSites; i++ {
			b.Add(fmt.Sprintf("s%d.com", rng.Intn(nSites)), rng.Intn(100))
		}
		if allocs := testing.AllocsPerRun(5, func() { b.Build() }); allocs > 6 {
			t.Errorf("%d sites: Build made %.0f allocations, want <= 6", nSites, allocs)
		}
	}
}

// TestDistinctEntitiesMatchesMap: the dense count equals a set's size,
// negative and repeated ids included.
func TestDistinctEntitiesMatchesMap(t *testing.T) {
	f := func(ids [][]int8) bool {
		idx := &Index{}
		set := map[int]struct{}{}
		for _, site := range ids {
			s := Site{}
			for _, id := range site {
				s.Entities = append(s.Entities, int(id))
				set[int(id)] = struct{}{}
			}
			idx.Sites = append(idx.Sites, s)
		}
		return idx.DistinctEntities() == len(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
