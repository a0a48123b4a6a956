// Package index holds the entity–host index at the heart of the study's
// methodology (§3.1): "we group pages by hosts, and for each host, we
// aggregate the set of entities found on all the pages in that host."
// One Index covers one (domain, attribute) pair; the coverage and graph
// analyses consume it.
package index

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/entity"
)

// Site is one host's aggregated postings for an attribute.
type Site struct {
	Host string
	// Entities lists the distinct entity IDs present on the host via
	// this attribute, sorted ascending.
	Entities []int
	// Pages counts the pages on this host carrying the attribute. For
	// the review attribute this is the review-page count used by the
	// aggregate-coverage analysis (Fig 4b); other attributes may leave
	// it zero.
	Pages int
}

// Index is the aggregated entity–host index for one (domain, attribute).
type Index struct {
	Domain entity.Domain
	Attr   entity.Attr
	// NumEntities is the entity database size, the denominator for
	// coverage fractions.
	NumEntities int
	// Sites is ordered descending by entity count (ties broken by host
	// name) once Finalize has run.
	Sites []Site
}

// Builder accumulates page-level mentions into an Index.
// It is not safe for concurrent use; shard by host and merge, or guard
// externally (internal/index.ShardedBuilder does this for the pipeline).
type Builder struct {
	domain   entity.Domain
	attr     entity.Attr
	num      int
	entities map[string]map[int]struct{}
	pages    map[string]int
}

// NewBuilder returns a Builder for one (domain, attribute) with the
// given entity-database size.
func NewBuilder(domain entity.Domain, attr entity.Attr, numEntities int) *Builder {
	return &Builder{
		domain:   domain,
		attr:     attr,
		num:      numEntities,
		entities: make(map[string]map[int]struct{}),
		pages:    make(map[string]int),
	}
}

// Add records that host mentions entity id via the builder's attribute.
func (b *Builder) Add(host string, id int) {
	set, ok := b.entities[host]
	if !ok {
		set = make(map[int]struct{})
		b.entities[host] = set
	}
	set[id] = struct{}{}
}

// AddPage increments host's attribute-page counter.
func (b *Builder) AddPage(host string) { b.pages[host]++ }

// Merge folds other into b. Other must target the same attribute.
func (b *Builder) Merge(other *Builder) error {
	if other.domain != b.domain || other.attr != b.attr {
		return fmt.Errorf("index: merging %s/%s into %s/%s", other.domain, other.attr, b.domain, b.attr)
	}
	for host, set := range other.entities {
		dst, ok := b.entities[host]
		if !ok {
			dst = make(map[int]struct{}, len(set))
			b.entities[host] = dst
		}
		for id := range set {
			dst[id] = struct{}{}
		}
	}
	for host, n := range other.pages {
		b.pages[host] += n
	}
	return nil
}

// Build finalizes the index: sites sorted by descending entity count,
// entity lists sorted ascending.
func (b *Builder) Build() *Index {
	idx := &Index{Domain: b.domain, Attr: b.attr, NumEntities: b.num}
	hosts := make(map[string]struct{}, len(b.entities))
	for h := range b.entities {
		hosts[h] = struct{}{}
	}
	for h := range b.pages {
		hosts[h] = struct{}{}
	}
	for host := range hosts {
		set := b.entities[host]
		var ids []int
		if len(set) > 0 {
			ids = make([]int, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sort.Ints(ids)
		}
		idx.Sites = append(idx.Sites, Site{Host: host, Entities: ids, Pages: b.pages[host]})
	}
	idx.SortBySize()
	return idx
}

// SortBySize orders sites descending by entity count, breaking ties by
// host name so the order is deterministic. This is the paper's top-t
// ordering ("order the list of websites in decreasing order of the
// number of entities they contain").
func (idx *Index) SortBySize() {
	sort.Slice(idx.Sites, func(i, j int) bool {
		a, b := idx.Sites[i], idx.Sites[j]
		if len(a.Entities) != len(b.Entities) {
			return len(a.Entities) > len(b.Entities)
		}
		return a.Host < b.Host
	})
}

// NumSites returns the number of hosts in the index.
func (idx *Index) NumSites() int { return len(idx.Sites) }

// TotalPostings returns the number of (host, entity) pairs.
func (idx *Index) TotalPostings() int {
	n := 0
	for i := range idx.Sites {
		n += len(idx.Sites[i].Entities)
	}
	return n
}

// TotalPages returns the sum of per-site attribute-page counts.
func (idx *Index) TotalPages() int {
	n := 0
	for i := range idx.Sites {
		n += idx.Sites[i].Pages
	}
	return n
}

// DistinctEntities returns the number of distinct entities with at
// least one posting. Used as the coverage denominator for the review
// attribute, where the universe is "entities that have at least one
// review on the Web" rather than the whole database.
func (idx *Index) DistinctEntities() int {
	seen := make(map[int]struct{})
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// SetUniverses sets each index's coverage denominator (NumEntities) by
// the study's one rule. Phones and ISBNs span the whole database.
// Homepages span the entities that have one: an entity with no website
// can never be homepage-covered, and the paper's Fig 2 curves likewise
// saturate at the achievable maximum. Reviews span the entities
// reviewed anywhere, the index's own distinct entities (§3.4: coverage
// of "restaurants covered ... with respect to reviews"); an empty review
// index keeps the database size.
func SetUniverses(db *entity.DB, idxs map[entity.Attr]*Index) {
	for a, idx := range idxs {
		idx.NumEntities = db.N()
		switch a {
		case entity.AttrHomepage:
			idx.NumEntities = len(db.WithHomepage())
		case entity.AttrReview:
			if n := idx.DistinctEntities(); n > 0 {
				idx.NumEntities = n
			}
		}
	}
}

// AvgSitesPerEntity returns the mean number of sites mentioning an
// entity, over entities mentioned at least once (Table 2's
// "Avg. #sites per entity").
func (idx *Index) AvgSitesPerEntity() float64 {
	counts := make(map[int]int)
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			counts[id]++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(len(counts))
}

// WriteTo serializes the index as a text format:
//
//	header line:  domain <TAB> attr <TAB> numEntities
//	per site:     host <TAB> pages <TAB> comma-joined entity IDs
//
// It returns the number of bytes written.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "%s\t%s\t%d\n", idx.Domain, idx.Attr, idx.NumEntities)
	n += int64(c)
	if err != nil {
		return n, fmt.Errorf("index: write header: %w", err)
	}
	var sb strings.Builder
	for i := range idx.Sites {
		s := &idx.Sites[i]
		sb.Reset()
		for j, id := range s.Entities {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(id))
		}
		c, err := fmt.Fprintf(bw, "%s\t%d\t%s\n", s.Host, s.Pages, sb.String())
		n += int64(c)
		if err != nil {
			return n, fmt.Errorf("index: write site %s: %w", s.Host, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("index: flush: %w", err)
	}
	return n, nil
}

// Read parses an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("index: read header: %w", err)
		}
		return nil, fmt.Errorf("index: empty input")
	}
	head := strings.Split(sc.Text(), "\t")
	if len(head) != 3 {
		return nil, fmt.Errorf("index: malformed header %q", sc.Text())
	}
	num, err := strconv.Atoi(head[2])
	if err != nil {
		return nil, fmt.Errorf("index: header entity count: %w", err)
	}
	idx := &Index{Domain: entity.Domain(head[0]), Attr: entity.Attr(head[1]), NumEntities: num}
	line := 1
	for sc.Scan() {
		line++
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("index: line %d has %d fields", line, len(parts))
		}
		pages, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("index: line %d pages: %w", line, err)
		}
		site := Site{Host: parts[0], Pages: pages}
		if parts[2] != "" {
			for _, f := range strings.Split(parts[2], ",") {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("index: line %d entity id %q: %w", line, f, err)
				}
				site.Entities = append(site.Entities, id)
			}
		}
		idx.Sites = append(idx.Sites, site)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("index: scan: %w", err)
	}
	return idx, nil
}
