package match

import "sort"

// Clusters is a union-find over decided matches: the transitive closure
// of "these two entities matched" within one collection — dirty ER's
// duplicate clusters. The canonical cluster id is the smallest member
// id, which is stable under any union order, so incremental maintenance
// and a from-scratch rebuild name every cluster identically.
//
// Not safe for concurrent use; the Dirty wrapper serializes access
// under its writer lock.
type Clusters struct {
	parent  map[int64]int64   // union-find forest (roots self-parent)
	members map[int64][]int64 // root -> present members, unsorted
	minID   map[int64]int64   // root -> canonical (smallest) member id
	present map[int64]bool    // ids not removed by a delete
}

// NewClusters returns an empty cluster set.
func NewClusters() *Clusters {
	return &Clusters{
		parent:  make(map[int64]int64),
		members: make(map[int64][]int64),
		minID:   make(map[int64]int64),
		present: make(map[int64]bool),
	}
}

// Add registers an id as its own singleton cluster; a no-op when the
// id is already tracked (re-adding a removed id revives it).
func (c *Clusters) Add(id int64) {
	if _, ok := c.parent[id]; !ok {
		c.parent[id] = id
		c.members[id] = []int64{id}
		c.minID[id] = id
	}
	if !c.present[id] {
		c.present[id] = true
		r := c.find(id)
		found := false
		for _, m := range c.members[r] {
			if m == id {
				found = true
				break
			}
		}
		if !found {
			c.members[r] = append(c.members[r], id)
		}
		if c.minID[r] < 0 || id < c.minID[r] {
			c.minID[r] = id
		}
	}
}

func (c *Clusters) find(id int64) int64 {
	for c.parent[id] != id {
		c.parent[id] = c.parent[c.parent[id]]
		id = c.parent[id]
	}
	return id
}

// Union merges the clusters of a and b (adding either if unseen).
func (c *Clusters) Union(a, b int64) {
	c.Add(a)
	c.Add(b)
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	// Merge the smaller member list into the larger.
	if len(c.members[ra]) < len(c.members[rb]) {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	c.members[ra] = append(c.members[ra], c.members[rb]...)
	if c.minID[rb] < c.minID[ra] {
		c.minID[ra] = c.minID[rb]
	}
	delete(c.members, rb)
	delete(c.minID, rb)
}

// Remove drops an id from its cluster (a delete). The remaining members
// stay together even when the removed id was the bridge that joined
// them — the standard incremental dirty-ER compromise; a Rebuild over
// the surviving collection recomputes the exact closure.
func (c *Clusters) Remove(id int64) {
	if !c.present[id] {
		return
	}
	c.present[id] = false
	r := c.find(id)
	ms := c.members[r]
	for i, m := range ms {
		if m == id {
			ms[i] = ms[len(ms)-1]
			c.members[r] = ms[:len(ms)-1]
			break
		}
	}
	if id == c.minID[r] {
		min := int64(-1)
		for _, m := range c.members[r] {
			if min < 0 || m < min {
				min = m
			}
		}
		c.minID[r] = min // -1 when the cluster emptied; unseen from outside
	}
}

// ClusterOf returns the canonical cluster id and the sorted members of
// the cluster containing id; ok is false when id is not present.
func (c *Clusters) ClusterOf(id int64) (cluster int64, members []int64, ok bool) {
	if !c.present[id] {
		return 0, nil, false
	}
	r := c.find(id)
	members = append([]int64(nil), c.members[r]...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return c.minID[r], members, true
}

// ClusterStats summarizes the cluster set for stats and gauges. Only
// clusters with two or more members count as duplicates.
type ClusterStats struct {
	Entities  int `json:"entities"`  // present ids
	Clusters  int `json:"clusters"`  // clusters of size >= 2
	Clustered int `json:"clustered"` // entities in those clusters
	MaxSize   int `json:"max_size"`  // largest cluster
}

// Stats computes the current summary.
func (c *Clusters) Stats() ClusterStats {
	var s ClusterStats
	for _, ms := range c.members {
		n := len(ms)
		if n == 0 {
			continue
		}
		s.Entities += n
		if n >= 2 {
			s.Clusters++
			s.Clustered += n
		}
		if n > s.MaxSize {
			s.MaxSize = n
		}
	}
	return s
}
