package main

// counters sums the public /stats counters of every replica and of the
// coordinator at one instant; the difference of two scrapes is what the
// window did.
type counters struct {
	cacheHits, cacheMisses   int64 // pair cache
	resultHits, resultMisses int64 // result cache, /knn
	updates                  int64
	indexBytes               int64 // replica 0's Stats().IndexBytes (index_bytes)
	hedges, hedgeWins        int64
	incomplete               int64   // scatters served without every shard
	backendOK                []int64 // per backend, successful attempts
}

type replicaStats struct {
	Index struct {
		IndexBytes int64 `json:"index_bytes"`
	} `json:"index"`
	Server struct {
		Updates int64 `json:"updates"`
	} `json:"server"`
	Cache struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Results struct {
			KNN struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"knn"`
		} `json:"results"`
	} `json:"cache"`
}

type coordStats struct {
	Coordinator struct {
		Hedges             int64 `json:"hedges"`
		HedgeWins          int64 `json:"hedge_wins"`
		ScattersIncomplete int64 `json:"scatters_incomplete"`
	} `json:"coordinator"`
	Backends []struct {
		OK int64 `json:"ok"`
	} `json:"backends"`
}

func (d *deployment) scrape() (counters, error) {
	var c counters
	for i, r := range d.replicas {
		var s replicaStats
		if err := d.getJSON(r.url+"/stats", &s); err != nil {
			return c, err
		}
		c.cacheHits += s.Cache.Hits
		c.cacheMisses += s.Cache.Misses
		c.resultHits += s.Cache.Results.KNN.Hits
		c.resultMisses += s.Cache.Results.KNN.Misses
		c.updates += s.Server.Updates
		if i == 0 {
			c.indexBytes = s.Index.IndexBytes
		}
	}
	if d.coord != nil {
		var s coordStats
		if err := d.getJSON(d.coordURL+"/stats", &s); err != nil {
			return c, err
		}
		c.hedges = s.Coordinator.Hedges
		c.hedgeWins = s.Coordinator.HedgeWins
		c.incomplete = s.Coordinator.ScattersIncomplete
		for _, b := range s.Backends {
			c.backendOK = append(c.backendOK, b.OK)
		}
	}
	return c, nil
}

// since is c minus an earlier scrape. indexBytes is the earlier one's:
// the index as the window found it. distance-update grows its index with
// every insert, so a size scraped after the window would grow with the
// throughput and penalise a faster write path.
func (c counters) since(prev counters) counters {
	out := c
	out.indexBytes = prev.indexBytes
	out.cacheHits -= prev.cacheHits
	out.cacheMisses -= prev.cacheMisses
	out.resultHits -= prev.resultHits
	out.resultMisses -= prev.resultMisses
	out.updates -= prev.updates
	out.hedges -= prev.hedges
	out.hedgeWins -= prev.hedgeWins
	out.incomplete -= prev.incomplete
	out.backendOK = make([]int64, len(c.backendOK))
	for i := range c.backendOK {
		out.backendOK[i] = c.backendOK[i]
		if i < len(prev.backendOK) {
			out.backendOK[i] -= prev.backendOK[i]
		}
	}
	return out
}

// ratio is hits over lookups, 0 when nothing was looked up.
func ratio(hits, lookups int64) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// backendShareMax is the largest share of successful backend attempts
// one backend served, and the total it is a share of.
func (c counters) backendShareMax() (float64, int64) {
	var top, sum int64
	for _, ok := range c.backendOK {
		sum += ok
		top = max(top, ok)
	}
	return ratio(top, sum), sum
}
