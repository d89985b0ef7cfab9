package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pll/internal/trace"
	"pll/internal/wire"
	"pll/pll"
)

// Config tunes a Server.
type Config struct {
	// IndexPath is the container file /reload re-reads when the request
	// names no path (and the file SIGHUP-style reloads come from).
	IndexPath string
	// CacheSize bounds each of the two sharded caches (distances by
	// pair, /knn and /query bodies by request) in entries; 0 disables
	// caching.
	CacheSize int
	// MaxBatch caps the fan-out of one request: pairs per /batch, k per
	// /knn and /nearest, members per /nearest set, results per /range
	// (default 4096). Requests over the cap are rejected up front, so a
	// hostile payload cannot force an unbounded allocation or scan.
	MaxBatch int
	// MaxBody caps the request body in bytes for every POST endpoint
	// (default 1 MiB). Oversized bodies get 413 without being read.
	MaxBody int64
	// CloseGrace is the delay before a reload starts closing a
	// swapped-out resource-backed oracle (pll.Closer, e.g. a memory-
	// mapped pll.FlatIndex). Closing additionally waits for every HTTP
	// request that began before the swap to finish — even a long /stats
	// scan — so the grace only needs to cover non-request readers (a
	// caller holding Snapshot()). 0 means five seconds.
	CloseGrace time.Duration
	// RatePerSec is the per-client steady-state request rate (keyed by
	// X-Client-Id, else remote IP); excess requests answer 429 with
	// Retry-After. 0 disables rate limiting.
	RatePerSec float64
	// RateBurst is the token-bucket depth a client can spend at once;
	// 0 means 2×RatePerSec (at least 1).
	RateBurst int
	// MaxInflight caps concurrently executing requests across every
	// endpoint except /healthz and /metrics; excess requests are shed
	// with 429 + Retry-After instead of queueing. 0 disables the cap.
	MaxInflight int
	// LogEvery emits one structured request log line (slog) per
	// LogEvery requests; 0 disables request logging.
	LogEvery int
	// Logger receives the sampled request logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// TraceSampleRate is the head-sampling probability in [0, 1] for
	// requests arriving without a traceparent decision; 0 records only
	// errored (and, with SlowQuery, slow) requests.
	TraceSampleRate float64
	// TraceRingSize is the /debug/traces ring capacity (default 256).
	TraceRingSize int
	// SlowQuery promotes requests at least this slow into the trace
	// ring and the slow-query log; 0 disables both.
	SlowQuery time.Duration
}

const (
	defaultMaxBatch = 4096
	defaultMaxBody  = 1 << 20
)

// Server serves one ConcurrentOracle over HTTP. All handlers answer
// JSON; errors arrive as {"error": "..."} with a matching status code.
// The zero value is not usable; call New.
type Server struct {
	oracle  *pll.ConcurrentOracle
	cache   *lru[uint64, int64]  // /distance answers by pairKey
	results *lru[string, []byte] // /knn and /query bodies by canonical request
	cfg     Config
	limits  wire.Limits // cfg.MaxBatch and cfg.MaxBody after defaults
	start   time.Time
	mux     *http.ServeMux

	pairTally, knnTally, queryTally tally // cache hits and misses

	// stack is the shared middleware (metrics, admission, logging, the
	// global in-flight count Drain waits on at shutdown so the process
	// never unmaps an index under a timed-out reader).
	stack *Stack

	reloadMu sync.Mutex // serializes /reload and SIGHUP reloads

	// inflight counts the requests answering from the current oracle;
	// Reload swaps in a fresh group and waits out the old one before
	// closing a retired resource-backed oracle (see retire).
	inflight atomic.Pointer[sync.WaitGroup]

	statsCache statsCache // memoized pll.Stats for /metrics scrapes

	queries    atomic.Int64 // /distance + /path answers
	batchPairs atomic.Int64 // pairs answered through /batch
	searches   atomic.Int64 // /knn + /range + /nearest answers
	composites atomic.Int64 // /query answers
	updates    atomic.Int64 // edges inserted through /update
	reloads    atomic.Int64 // successful index swaps
}

// New builds a Server around o. The oracle may be shared with other
// components (e.g. a SIGHUP handler calling Reload).
func New(o *pll.ConcurrentOracle, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	s := &Server{
		oracle:  o,
		cache:   newLRU[uint64, int64](cfg.CacheSize, mixPair),
		results: newLRU[string, []byte](cfg.CacheSize, fnv1a),
		cfg:     cfg,
		limits:  wire.Limits{MaxBatch: cfg.MaxBatch, MaxBody: cfg.MaxBody},
		start:   time.Now(),
		mux:     http.NewServeMux(),
		stack: NewStack(StackConfig{
			RatePerSec:  cfg.RatePerSec,
			RateBurst:   cfg.RateBurst,
			MaxInflight: cfg.MaxInflight,
			LogEvery:    cfg.LogEvery,
			Logger:      cfg.Logger,
			Tracer: trace.New(trace.Config{
				SampleRate: cfg.TraceSampleRate,
				SlowQuery:  cfg.SlowQuery,
				RingSize:   cfg.TraceRingSize,
			}),
		}, "healthz", "metrics", "distance", "path", "batch", "stats",
			"update", "reload", "knn", "range", "nearest", "query", "debug"),
	}
	s.inflight.Store(new(sync.WaitGroup))
	// /healthz and /metrics are instrument-only: liveness probes and
	// scrapes must keep answering while the query surface sheds load.
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /distance", s.guarded("distance", s.handleDistance))
	s.mux.HandleFunc("GET /path", s.guarded("path", s.handlePath))
	s.mux.HandleFunc("POST /batch", s.guarded("batch", s.handleBatch))
	s.mux.HandleFunc("GET /stats", s.guarded("stats", s.handleStats))
	s.mux.HandleFunc("POST /update", s.guarded("update", s.handleUpdate))
	s.mux.HandleFunc("POST /reload", s.guarded("reload", s.handleReload))
	s.mux.HandleFunc("GET /knn", s.guarded("knn", s.handleKNN))
	s.mux.HandleFunc("GET /range", s.guarded("range", s.handleRange))
	s.mux.HandleFunc("POST /nearest", s.guarded("nearest", s.handleNearest))
	s.mux.HandleFunc("POST /query", s.guarded("query", s.handleQuery))
	// Instrument-only like /metrics: the trace ring must stay readable
	// while the query surface sheds load.
	s.mux.HandleFunc("GET /debug/traces", s.instrument("debug", trace.DebugHandler(s.stack.Tracer())))
	return s
}

// DebugTracesHandler returns the /debug/traces handler for mounting on
// a private admin listener.
func (s *Server) DebugTracesHandler() http.Handler {
	return trace.DebugHandler(s.stack.Tracer())
}

// Handler returns the http.Handler serving all endpoints. Every
// request registers in the current in-flight group so a reload can
// tell when the requests predating its swap have drained, and in the
// stack's global active count Drain waits on at shutdown.
func (s *Server) Handler() http.Handler {
	return s.stack.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wg := s.inflight.Load()
		wg.Add(1)
		defer wg.Done()
		s.mux.ServeHTTP(w, r)
	}))
}

// instrument and guarded mount the shared middleware stack under the
// method-set the handler registrations read naturally.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.stack.Instrument(name, h)
}

func (s *Server) guarded(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.stack.Guarded(name, h)
}

// InflightRequests reports the number of requests currently executing.
func (s *Server) InflightRequests() int64 { return s.stack.InflightRequests() }

// Drain blocks until no request is executing or ctx expires. Call it
// after http.Server.Shutdown returns — including on Shutdown timeout,
// when handlers may still be mid-request — and only Close a mapped
// oracle once it returns nil: closing unmaps the label pages, and a
// reader that outlived the shutdown deadline would otherwise segfault.
func (s *Server) Drain(ctx context.Context) error { return s.stack.Drain(ctx) }

// Oracle returns the served oracle (shared, not a copy).
func (s *Server) Oracle() *pll.ConcurrentOracle { return s.oracle }

// handleHealthz answers the liveness probe with a backend-identity
// payload: which index this replica serves (variant, vertex count, a
// content checksum) and which local generation it is on. A routing
// coordinator uses the identity to refuse pooling replicas that serve
// different indexes; a bare 200 cannot carry that contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cachedStats()
	wire.WriteJSON(w, http.StatusOK, wire.Health{
		Checksum:   indexChecksum(st),
		Generation: s.oracle.Generation(),
		Status:     "ok",
		Variant:    st.Variant.String(),
		Vertices:   st.NumVertices,
	})
}

// indexChecksum fingerprints the served index's content from its
// stats: two indexes with the same variant, shape and label mass are
// interchangeable for query routing. It is intentionally derived from
// the already-memoized Stats rather than hashing the container bytes —
// a health probe must not re-read a multi-gigabyte mapping — so it
// identifies the index, not the file encoding.
func indexChecksum(st pll.Stats) string {
	h := fnv.New64a()
	for _, v := range []int64{
		int64(st.Variant), int64(st.NumVertices), int64(st.NumBitParallel),
		st.TotalLabelEntries, int64(st.MaxLabelSize), st.IndexBytes,
		int64(st.DistinctHubs), int64(st.MaxHubLoad),
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	if st.HasParentPointers {
		h.Write([]byte{1})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// distanceResponse is the /distance (and per-pair /batch) answer shape.
type distanceResponse struct {
	S         int32 `json:"s"`
	T         int32 `json:"t"`
	Distance  int64 `json:"distance"`
	Reachable bool  `json:"reachable"`
	Cached    bool  `json:"cached,omitempty"`
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	sv, tv, ok := wire.ParsePair(w, r)
	if !ok {
		return
	}
	p := trace.ProfileFromContext(r.Context())
	key := pairKey(sv, tv)
	if d, ok := s.cache.get(key, &s.pairTally); ok {
		p.CacheLookup(true)
		s.queries.Add(1)
		wire.WriteJSON(w, http.StatusOK, distanceResponse{S: sv, T: tv, Distance: d, Reachable: d != pll.Unreachable, Cached: true})
		return
	}
	p.CacheLookup(false)
	var d int64
	// Capture the cache epoch before querying: if an /update or /reload
	// purge lands while we compute, the put below is dropped instead of
	// poisoning the fresh cache with a pre-mutation answer.
	epoch := s.cache.currentEpoch()
	// Validate and query under one View so a concurrent hot-swap to a
	// smaller index cannot invalidate the check mid-request.
	err := s.oracle.View(func(o pll.Oracle) error {
		if err := pll.Validate(o, sv, tv); err != nil {
			return err
		}
		if po, ok := o.(pll.ProfiledOracle); ok {
			d = po.DistanceProfiled(sv, tv, p)
		} else {
			d = o.Distance(sv, tv)
		}
		return nil
	})
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cache.put(epoch, key, d)
	s.queries.Add(1)
	wire.WriteJSON(w, http.StatusOK, distanceResponse{S: sv, T: tv, Distance: d, Reachable: d != pll.Unreachable})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	sv, tv, ok := wire.ParsePair(w, r)
	if !ok {
		return
	}
	var p []int32
	var badInput bool
	err := s.oracle.View(func(o pll.Oracle) error {
		if err := pll.Validate(o, sv, tv); err != nil {
			badInput = true
			return err
		}
		var err error
		p, err = o.Path(sv, tv)
		return err
	})
	if err != nil {
		if badInput {
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
		} else {
			// The index exists but cannot answer path queries (not built
			// WithPaths, or a dynamic index): the conflict is with the
			// server's resource, not the request.
			wire.WriteError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	s.queries.Add(1)
	resp := map[string]any{"s": sv, "t": tv, "reachable": p != nil}
	if p != nil {
		resp["path"] = p
		resp["hops"] = len(p) - 1
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleBatch answers many distances at once: explicit pairs, or one
// source against many targets (the amortized single-source form,
// answered with one label scan per target).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := s.limits.ParseBatch(w, r)
	if !ok {
		return
	}
	n := req.Len()
	prof := trace.ProfileFromContext(r.Context())
	distances := make([]int64, 0, n)
	err := s.oracle.View(func(o pll.Oracle) error {
		if req.Source != nil {
			if err := pll.Validate(o, *req.Source); err != nil {
				return err
			}
			if err := pll.Validate(o, req.Targets...); err != nil {
				return err
			}
			// Single-source batches forward to the Batcher capability —
			// every index variant implements it, pinning the source label
			// once and scanning one label per target; View pins the
			// snapshot so the pinned label cannot outlive its index. The
			// per-pair loop remains as the fallback for foreign oracles.
			if po, ok := o.(pll.ProfiledOracle); ok {
				distances = po.DistanceFromProfiled(*req.Source, req.Targets, distances, prof)
				return nil
			}
			if b, ok := o.(pll.Batcher); ok {
				distances = b.DistanceFrom(*req.Source, req.Targets, distances)
				return nil
			}
			for _, t := range req.Targets {
				distances = append(distances, o.Distance(*req.Source, t))
			}
			return nil
		}
		for _, p := range req.Pairs {
			if err := pll.Validate(o, p[0], p[1]); err != nil {
				return err
			}
		}
		if po, ok := o.(pll.ProfiledOracle); ok && prof != nil {
			for _, p := range req.Pairs {
				distances = append(distances, po.DistanceProfiled(p[0], p[1], prof))
			}
			return nil
		}
		for _, p := range req.Pairs {
			distances = append(distances, o.Distance(p[0], p[1]))
		}
		return nil
	})
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.batchPairs.Add(int64(n))
	wire.WriteBatch(w, distances)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cachedStats()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"index": map[string]any{
			"variant":            st.Variant.String(),
			"vertices":           st.NumVertices,
			"bit_parallel_roots": st.NumBitParallel,
			"label_entries":      st.TotalLabelEntries,
			"avg_label_size":     st.AvgLabelSize,
			"max_label_size":     st.MaxLabelSize,
			"index_bytes":        st.IndexBytes,
			"has_paths":          st.HasParentPointers,
			"distinct_hubs":      st.DistinctHubs,
			"max_hub_load":       st.MaxHubLoad,
			"avg_hub_load":       st.AvgHubLoad,
			"checksum":           indexChecksum(st),
		},
		"server": map[string]any{
			"uptime_seconds": time.Since(s.start).Seconds(),
			"queries":        s.queries.Load(),
			"batch_pairs":    s.batchPairs.Load(),
			"searches":       s.searches.Load(),
			"composites":     s.composites.Load(),
			"updates":        s.updates.Load(),
			"reloads":        s.reloads.Load(),
			"generation":     s.oracle.Generation(),
		},
		"cache": map[string]any{
			"enabled": s.cache != nil,
			// capacity is the effective bound — the configured size
			// rounded up to whole shards (e.g. 100 → 112) — so operators
			// see the limit the eviction actually enforces.
			"capacity":            s.cache.capacity(),
			"configured_capacity": s.cfg.CacheSize,
			"entries":             s.cache.len(),
			"hits":                s.pairTally.hits.Load(),
			"misses":              s.pairTally.misses.Load(),
			"results": map[string]any{
				"entries":  s.results.len(),
				"capacity": s.results.capacity(),
				"knn":      s.knnTally.counts(),
				"query":    s.queryTally.counts(),
			},
		},
		"tracing": s.stack.TraceStats(),
	})
}

// updateRequest inserts edges into a served dynamic index.
type updateRequest struct {
	Edges [][2]int32 `json:"edges"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !s.limits.DecodeBody(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		wire.WriteError(w, http.StatusBadRequest, `update body needs a non-empty "edges" list`)
		return
	}
	if !s.limits.CheckFanout(w, "edges", len(req.Edges)) {
		return
	}
	edges := make([]pll.Edge, len(req.Edges))
	for i, e := range req.Edges {
		edges[i] = pll.Edge{U: e[0], V: e[1]}
	}
	// Validate and insert the whole batch in one Update, so the bounds
	// check and the insert see the same oracle even if a hot-reload swaps
	// it mid-request. InsertEdges applies every edge or none, so an error
	// means no edge took effect, and publishes the batch in one atomic
	// store: readers, which never wait for it, see all of its edges or
	// none.
	labelDelta := 0
	badEdge := false
	err := s.oracle.Update(func(di *pll.DynamicIndex) error {
		n := int32(di.NumVertices())
		for _, e := range req.Edges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				badEdge = true
				return fmt.Errorf("edge {%d,%d} out of range [0,%d)", e[0], e[1], n)
			}
		}
		var err error
		labelDelta, err = di.InsertEdges(edges)
		return err
	})
	if err != nil {
		switch {
		case err == pll.ErrNotDynamic:
			wire.WriteError(w, http.StatusConflict, "served index is the %s variant; only dynamic indexes accept updates", s.cachedStats().Variant)
		case badEdge:
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
		default:
			wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	// Inserted edges can only shorten distances; drop every cached pair
	// and search result.
	s.updates.Add(int64(len(req.Edges)))
	s.cache.purge()
	s.results.purge()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"inserted":    len(req.Edges),
		"label_delta": labelDelta,
	})
}

// reloadRequest optionally names the container file to swap in; an
// empty body (or empty path) re-reads the configured index path.
type reloadRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if r.ContentLength != 0 {
		if !s.limits.DecodeBody(w, r, &req) {
			return
		}
	}
	path := req.Path
	if path == "" {
		path = s.cfg.IndexPath
	}
	if path == "" {
		wire.WriteError(w, http.StatusBadRequest, "no path in request and the server was started without an index file")
		return
	}
	st, err := s.Reload(path)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, "reload %s: %v", path, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"path":       path,
		"variant":    st.Variant.String(),
		"vertices":   st.NumVertices,
		"generation": s.oracle.Generation(),
	})
}

// Reload opens the container at path zero-copy (pll.Open, O(1) in the
// index size) and atomically swaps it in, purging the distance cache.
// In-flight requests keep answering
// from the index they started on; no request fails or blocks. A
// swapped-out resource-backed oracle is closed after CloseGrace. It is
// the shared implementation behind POST /reload and SIGHUP.
func (s *Server) Reload(path string) (pll.Stats, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	o, err := pll.Open(path)
	if err != nil {
		return pll.Stats{}, err
	}
	st := o.Stats()
	old := s.oracle.Swap(o)
	// Swap the in-flight group after the oracle: requests in the old
	// group may hold either oracle (harmless — closing just waits for
	// them too), requests in the new group can only see the new one.
	oldInflight := s.inflight.Swap(new(sync.WaitGroup))
	s.cache.purge()
	s.results.purge()
	s.reloads.Add(1)
	s.retire(old, oldInflight)
	return st, nil
}

// retire closes a swapped-out oracle's resources (mapping, file) once
// it can no longer be read: after the grace period it waits for every
// request registered in the pre-swap in-flight group — so even a
// minutes-long /stats scan pins the mapping until it finishes. The
// grace additionally covers the instruction-scale window between a
// request loading the group and registering in it, and any non-request
// reader holding a Snapshot().
func (s *Server) retire(old pll.Oracle, oldInflight *sync.WaitGroup) {
	c, ok := old.(pll.Closer)
	if !ok {
		return
	}
	grace := s.cfg.CloseGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	go func() {
		time.Sleep(grace)
		oldInflight.Wait()
		c.Close() //nolint:errcheck // nothing to do for a failed unmap
	}()
}
