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
	"math"
	"slices"
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

// Builder accumulates page-level mentions into an Index. Hosts are
// interned to dense ids and every mention is appended to flat
// (host id, entity) columns; Build groups the columns by host with one
// counting sort. It is not safe for concurrent use; shard by host and
// merge, or guard externally (internal/index.ShardedBuilder does this
// for the pipeline).
type Builder struct {
	domain entity.Domain
	attr   entity.Attr
	num    int

	// hosts[h] is the name of host id h and pages[h] its attribute-page
	// count. ids inverts hosts; a NewHostBuilder never fills it.
	hosts []string
	pages []int
	ids   map[string]int32
	// last and lastID are the most recently interned host (lastID < 0
	// for none), so a run of mentions from one host skips the map.
	last   string
	lastID int32

	// The i-th mention is entity entCol[i] on host hostCol[i].
	hostCol []int32
	entCol  []int
}

// NewBuilder returns a Builder for one (domain, attribute) with the
// given entity-database size.
func NewBuilder(domain entity.Domain, attr entity.Attr, numEntities int) *Builder {
	return &Builder{domain: domain, attr: attr, num: numEntities, ids: make(map[string]int32), lastID: -1}
}

// NewHostBuilder returns a Builder whose host ids are fixed up front:
// id h names hosts[h]. The hosts must be distinct. It records by id
// only, through AddAt and AddPagesAt, with no map lookup; do not call
// Add, AddPage or Merge on it. Hosts that end up with no mention and no
// page are left out of the index, as they are for a NewBuilder.
func NewHostBuilder(domain entity.Domain, attr entity.Attr, numEntities int, hosts []string) *Builder {
	b := NewBuilder(domain, attr, numEntities)
	b.hosts = hosts
	b.pages = make([]int, len(hosts))
	return b
}

// intern returns host's dense id, assigning the next one on first sight.
func (b *Builder) intern(host string) int32 {
	if b.lastID >= 0 && host == b.last {
		return b.lastID
	}
	h, ok := b.ids[host]
	if !ok {
		h = int32(len(b.hosts))
		b.ids[host] = h
		b.hosts = append(b.hosts, host)
		b.pages = append(b.pages, 0)
	}
	b.last, b.lastID = host, h
	return h
}

// Add records that host mentions entity id via the builder's attribute.
func (b *Builder) Add(host string, id int) {
	b.hostCol = append(b.hostCol, b.intern(host))
	b.entCol = append(b.entCol, id)
}

// AddPage increments host's attribute-page counter.
func (b *Builder) AddPage(host string) { b.pages[b.intern(host)]++ }

// AddAt records that host id h of a NewHostBuilder mentions entity id.
func (b *Builder) AddAt(h, id int) {
	b.hostCol = append(b.hostCol, int32(h))
	b.entCol = append(b.entCol, id)
}

// AddPagesAt adds n to the attribute-page counter of host id h of a
// NewHostBuilder.
func (b *Builder) AddPagesAt(h, n int) { b.pages[h] += n }

// Merge folds other into b. Other must target the same attribute.
func (b *Builder) Merge(other *Builder) error {
	if other.domain != b.domain || other.attr != b.attr {
		return fmt.Errorf("index: merging %s/%s into %s/%s", other.domain, other.attr, b.domain, b.attr)
	}
	remap := make([]int32, len(other.hosts))
	for h, host := range other.hosts {
		remap[h] = b.intern(host)
		b.pages[remap[h]] += other.pages[h]
	}
	b.hostCol = slices.Grow(b.hostCol, len(other.hostCol))
	for _, h := range other.hostCol {
		b.hostCol = append(b.hostCol, remap[h])
	}
	b.entCol = append(b.entCol, other.entCol...)
	return nil
}

// Build finalizes the index: sites sorted by descending entity count,
// entity lists sorted ascending. It counting-sorts the mentions by host
// into one backing array, then sorts and dedupes each host's run in
// place; every Site.Entities is a capped subslice of that array. The
// builder stays usable: Build copies the columns, never aliases them.
func (b *Builder) Build() *Index {
	// Counting sort by host: end[h] starts as the start of host h's run
	// in ents and, once every mention is placed, is its end. The run
	// starts at end[h-1] (0 for h = 0).
	end := make([]int, len(b.hosts))
	for _, h := range b.hostCol {
		end[h]++
	}
	sum := 0
	for h, n := range end {
		end[h] = sum
		sum += n
	}
	ents := make([]int, len(b.entCol))
	for i, h := range b.hostCol {
		ents[end[h]] = b.entCol[i]
		end[h]++
	}
	// Sort and dedupe each run, compacting the runs leftward so the
	// index keeps no gaps where duplicates were.
	lo, w := 0, 0
	for h, hi := range end {
		run := ents[lo:hi]
		lo = hi
		if !slices.IsSorted(run) {
			slices.Sort(run)
		}
		for i, id := range run {
			if i == 0 || id != run[i-1] {
				ents[w] = id
				w++
			}
		}
		end[h] = w
	}
	start := func(h int32) int {
		if h == 0 {
			return 0
		}
		return end[h-1]
	}

	// Order the hosts that have a posting or a page by size descending,
	// then host ascending (see SortBySize), as a permutation of ids: a
	// counting sort by size, then a sort by host within each size.
	// Block k of perm holds the hosts with k postings fewer than the
	// largest; first[k] is its fill cursor and ends at the block's end.
	largest := 0
	for h := range end {
		largest = max(largest, end[h]-start(int32(h)))
	}
	first := make([]int, largest+2)
	kept := 0
	for h := range end {
		if n := end[h] - start(int32(h)); n > 0 || b.pages[h] > 0 {
			first[largest-n+1]++
			kept++
		}
	}
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	perm := make([]int32, kept)
	for h := range end {
		if n := end[h] - start(int32(h)); n > 0 || b.pages[h] > 0 {
			perm[first[largest-n]] = int32(h)
			first[largest-n]++
		}
	}
	byHost := func(x, y int32) int { return strings.Compare(b.hosts[x], b.hosts[y]) }
	for k, lo := 0, 0; k <= largest; k++ {
		slices.SortFunc(perm[lo:first[k]], byHost)
		lo = first[k]
	}

	idx := &Index{Domain: b.domain, Attr: b.attr, NumEntities: b.num}
	if len(perm) == 0 {
		return idx
	}
	idx.Sites = make([]Site, len(perm))
	for i, h := range perm {
		s := &idx.Sites[i]
		s.Host, s.Pages = b.hosts[h], b.pages[h]
		if lo, hi := start(h), end[h]; hi > lo {
			s.Entities = ents[lo:hi:hi]
		}
	}
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
	lo, hi := math.MaxInt, math.MinInt
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	if hi < lo {
		return 0
	}
	// One mark per id in [lo, hi]: ids are dense entity indexes.
	seen := make([]bool, hi-lo+1)
	n := 0
	for i := range idx.Sites {
		for _, id := range idx.Sites[i].Entities {
			if !seen[id-lo] {
				seen[id-lo] = true
				n++
			}
		}
	}
	return n
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
	// Each posting is one (site, entity) incidence, so the postings sum
	// the per-entity site counts.
	n := idx.DistinctEntities()
	if n == 0 {
		return 0
	}
	return float64(idx.TotalPostings()) / float64(n)
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
