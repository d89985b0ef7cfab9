// Command pll builds, inspects and queries pruned-landmark-labeling
// indexes from the command line. All subcommands speak the flat
// container format: an index file carries its own variant tag, so
// query/path/stats/bench work on any index without being told what
// flavor it is.
//
// Usage:
//
//	pll construct -graph g.txt -index g.pll [-kind undirected|directed|weighted] [-bp 16] [-order Degree] [-paths] [-workers 0]
//	pll query     -index g.pll 0 42 17 99        # pairs of vertices
//	pll query     -index g.pll -mmap 0 42        # memory-mapped, zero-copy
//	pll query     -index g.pll -expr "near(3,4) & near(9,2)" -k 10  # composite constraints
//	pll knn       -index g.pll -k 10 0 42        # k nearest vertices per source
//	pll knn       -index g.pll -radius 3 0       # everything within distance 3
//	pll knn       -index g.pll -set 3,17,29 0    # nearest members of a subset
//	pll path      -index g.pll 0 42              # index must be built with -paths
//	pll stats     -index g.pll
//	pll bench     -index g.pll -pairs 100000     # random-query latency
//	pll convert   -index g.pll -out g.search.pll -search  # + persisted search inversion
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pll/internal/rng"
	"pll/pll"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "construct":
		err = construct(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	case "knn":
		err = knn(os.Args[2:])
	case "stats":
		err = statsCmd(os.Args[2:])
	case "bench":
		err = bench(os.Args[2:])
	case "path":
		err = pathCmd(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "convert":
		err = convert(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pll:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pll construct -graph g.txt -index g.pll [-kind undirected|directed|weighted] [-bp N] [-order Degree|Random|Closeness] [-seed N] [-paths] [-workers N]
  pll query     -index g.pll [-mmap] s t [s t ...]
  pll query     -index g.pll [-mmap] -expr "near(3,4) & !near(9,1)" [-rank sum|max] [-terms src[*w],...] [-k N]
  pll knn       -index g.pll [-k N] [-radius R] [-set v1,v2,...] [-mmap] s [s ...]
  pll path      -index g.pll s t          # index must be built with -paths
  pll stats     -index g.pll
  pll bench     -index g.pll [-pairs N] [-seed N]
  pll verify    -index g.pll -graph g.txt [-pairs N]   # undirected indexes
  pll convert   -index g.pll -out g2.pll [-search]

to serve an index over HTTP, see the pllserved command:
  go run ./cmd/pllserved -index g.pll -addr :8355`)
}

func construct(args []string) error {
	fs := flag.NewFlagSet("construct", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input edge-list file")
	indexPath := fs.String("index", "", "output index file")
	kind := fs.String("kind", "undirected", "graph kind: undirected, directed or weighted")
	bp := fs.Int("bp", 16, "number of bit-parallel BFSs (undirected only)")
	ord := fs.String("order", "Degree", "vertex ordering strategy")
	seed := fs.Uint64("seed", 1, "ordering seed")
	paths := fs.Bool("paths", false, "store parent pointers for path queries")
	workers := fs.Int("workers", 0, "construction worker goroutines (0 = all cores, 1 = sequential; output is identical either way)")
	fs.Parse(args)
	if *graphPath == "" || *indexPath == "" {
		return fmt.Errorf("construct needs -graph and -index")
	}
	switch *kind {
	case "undirected", "directed", "weighted":
	default:
		return fmt.Errorf("unknown graph kind %q", *kind)
	}
	opts := []pll.Option{pll.WithSeed(*seed), pll.WithWorkers(*workers)}
	switch *ord {
	case "Degree", "degree":
		opts = append(opts, pll.WithOrdering(pll.OrderDegree))
	case "Random", "random":
		opts = append(opts, pll.WithOrdering(pll.OrderRandom))
	case "Closeness", "closeness":
		opts = append(opts, pll.WithOrdering(pll.OrderCloseness))
	default:
		return fmt.Errorf("unknown ordering %q", *ord)
	}
	if *paths {
		if *kind != "undirected" {
			// Directed/weighted indexes can hold parent pointers in
			// memory but not serialize them; fail before the build, not
			// after it.
			return fmt.Errorf("-paths indexes of kind %q cannot be written to a file; use kind undirected", *kind)
		}
		opts = append(opts, pll.WithPaths())
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	var g pll.BuildableGraph
	switch *kind {
	case "undirected":
		opts = append(opts, pll.WithBitParallel(*bp))
		g, err = pll.LoadGraph(f)
	case "directed":
		g, err = pll.LoadDigraph(f)
	case "weighted":
		g, err = pll.LoadWeightedGraph(f)
	}
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s: %d vertices, %d edges (%s)\n",
		*graphPath, g.NumVertices(), numEdges(g), *kind)

	start := time.Now()
	o, err := pll.Build(g, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := pll.WriteFlatFile(*indexPath, o); err != nil {
		return err
	}
	st := o.Stats()
	fmt.Printf("indexed in %v: %s variant, avg label %.1f (+%d bit-parallel), %d bytes -> %s\n",
		elapsed, st.Variant, st.AvgLabelSize, st.NumBitParallel, st.IndexBytes, *indexPath)
	return nil
}

// numEdges reports the edge (or arc) count of any buildable graph.
func numEdges(g pll.BuildableGraph) int64 {
	switch g := g.(type) {
	case *pll.Graph:
		return g.NumEdges()
	case *pll.Digraph:
		return g.NumArcs()
	case *pll.WeightedGraph:
		return g.NumEdges()
	}
	return 0
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	mmapped := fs.Bool("mmap", false, "memory-map a flat container instead of heap-loading it")
	expr := fs.String("expr", "", `composite constraint expression, e.g. "near(3,4) & !near(9,1)"`)
	rankBy := fs.String("rank", "sum", "composite ranking: sum or max of the weighted term distances")
	terms := fs.String("terms", "", "composite ranking terms: src[*weight],... (default: the near sources)")
	topK := fs.Int("k", 0, "keep only the k best-ranked composite matches (0 = all)")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("query needs -index")
	}
	if *expr != "" {
		if len(fs.Args()) != 0 {
			return fmt.Errorf("-expr takes no vertex arguments")
		}
		return compositeQuery(*indexPath, *mmapped, *expr, *rankBy, *terms, *topK)
	}
	rest := fs.Args()
	if len(rest) == 0 || len(rest)%2 != 0 {
		return fmt.Errorf("query needs an even number of vertex arguments")
	}
	pairs := make([][2]int32, 0, len(rest)/2)
	for i := 0; i < len(rest); i += 2 {
		s, err := strconv.ParseInt(rest[i], 10, 32)
		if err != nil {
			return fmt.Errorf("bad vertex %q: %v", rest[i], err)
		}
		t, err := strconv.ParseInt(rest[i+1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad vertex %q: %v", rest[i+1], err)
		}
		pairs = append(pairs, [2]int32{int32(s), int32(t)})
	}
	var o pll.Oracle
	var err error
	if *mmapped {
		fi, ferr := pll.Open(*indexPath)
		if ferr != nil {
			return ferr
		}
		defer fi.Close()
		o = fi
	} else if o, err = pll.LoadFile(*indexPath); err != nil {
		return err
	}
	for _, p := range pairs {
		if err := pll.Validate(o, p[0], p[1]); err != nil {
			return err
		}
		printDistance(p[0], p[1], o.Distance(p[0], p[1]))
	}
	return nil
}

// compositeQuery answers `pll query -expr`: parse the constraint
// mini-syntax, attach ranking, and run it through the CompositeSearcher
// capability of the loaded (or memory-mapped) index.
func compositeQuery(indexPath string, mmapped bool, expr, rankBy, termSpec string, topK int) error {
	where, err := parseExpr(expr)
	if err != nil {
		return fmt.Errorf("bad -expr: %v", err)
	}
	req := &pll.CompositeRequest{Where: where, K: topK}
	if rankBy != "sum" || termSpec != "" {
		req.Rank = &pll.CompositeRank{By: rankBy}
		if termSpec != "" {
			if req.Rank.Terms, err = parseTerms(termSpec); err != nil {
				return err
			}
		}
	}
	var o pll.Oracle
	if mmapped {
		fi, err := pll.Open(indexPath)
		if err != nil {
			return err
		}
		defer fi.Close()
		o = fi
	} else if o, err = pll.LoadFile(indexPath); err != nil {
		return err
	}
	cs, ok := o.(pll.CompositeSearcher)
	if !ok {
		return fmt.Errorf("the %T oracle does not support composite queries", o)
	}
	res, err := cs.Composite(req)
	if err != nil {
		return err
	}
	exactness := "exactly"
	if !res.Exact {
		exactness = "at least"
	}
	fmt.Printf("%d matches (%s %d satisfy the constraints)\n", len(res.Matches), exactness, res.Total)
	for _, m := range res.Matches {
		if m.Score < 0 {
			fmt.Printf("  %d\tscore=unreachable\n", m.Vertex)
			continue
		}
		fmt.Printf("  %d\tscore=%d\tterms=%v\n", m.Vertex, m.Score, m.Terms)
	}
	return nil
}

// knn answers neighborhood queries from the command line: for each
// source vertex, the k nearest vertices (default), everything within
// -radius, or the nearest members of a -set — all through the Searcher
// capability, so any static index file works.
func knn(args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	k := fs.Int("k", 10, "number of neighbors per source")
	radius := fs.Int64("radius", -1, "report everything within this distance instead of the k nearest")
	setSpec := fs.String("set", "", "comma-separated vertex subset: report the k nearest members")
	mmapped := fs.Bool("mmap", false, "memory-map a flat container instead of heap-loading it")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("knn needs -index")
	}
	if *radius >= 0 && *setSpec != "" {
		return fmt.Errorf("-radius and -set are mutually exclusive")
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("knn needs at least one source vertex")
	}
	sources := make([]int32, len(rest))
	for i, raw := range rest {
		v, err := strconv.ParseInt(raw, 10, 32)
		if err != nil {
			return fmt.Errorf("bad vertex %q: %v", raw, err)
		}
		sources[i] = int32(v)
	}

	var o pll.Oracle
	if *mmapped {
		fi, err := pll.Open(*indexPath)
		if err != nil {
			return err
		}
		defer fi.Close()
		o = fi
	} else {
		var err error
		if o, err = pll.LoadFile(*indexPath); err != nil {
			return err
		}
	}
	sr, ok := o.(pll.Searcher)
	if !ok {
		return fmt.Errorf("the %T oracle does not support search queries", o)
	}

	var set *pll.VertexSet
	if *setSpec != "" {
		var members []int32
		for _, raw := range strings.Split(*setSpec, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 32)
			if err != nil {
				return fmt.Errorf("bad set member %q: %v", raw, err)
			}
			members = append(members, int32(v))
		}
		var err error
		if set, err = sr.NewVertexSet(members); err != nil {
			return err
		}
	}

	for _, s := range sources {
		if err := pll.Validate(o, s); err != nil {
			return err
		}
		var (
			res []pll.Neighbor
			err error
		)
		switch {
		case *radius >= 0:
			res, err = sr.Range(s, *radius)
		case set != nil:
			res, err = sr.NearestIn(s, set, *k)
		default:
			res, err = sr.KNN(s, *k)
		}
		if err != nil {
			return err
		}
		fmt.Printf("source %d: %d neighbors\n", s, len(res))
		for _, nb := range res {
			fmt.Printf("  %d\t%d\n", nb.Vertex, nb.Distance)
		}
	}
	return nil
}

// convert rewrites an index file, adding the persisted search
// inversion with -search (or dropping it without), so mmap serving
// answers /knn with no lazy build.
func convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	indexPath := fs.String("index", "", "input index file")
	out := fs.String("out", "", "output container file")
	search := fs.Bool("search", false, "persist the hub-inverted search index, so mmap serving answers /knn with no lazy build")
	fs.Parse(args)
	if *indexPath == "" || *out == "" {
		return fmt.Errorf("convert needs -index and -out")
	}
	o, err := pll.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	var opts []pll.FlatOption
	if *search {
		opts = append(opts, pll.FlatSearch())
	}
	if err := pll.WriteFlatFile(*out, o, opts...); err != nil {
		return err
	}
	before, err := os.Stat(*indexPath)
	if err != nil {
		return err
	}
	after, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("converted %s (%d bytes) -> %s (%d bytes, %.1f%%)\n",
		*indexPath, before.Size(), *out, after.Size(),
		100*float64(after.Size())/float64(before.Size()))
	return nil
}

func pathCmd(args []string) error {
	fs := flag.NewFlagSet("path", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file (built with -paths)")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("path needs -index")
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("path needs exactly two vertices")
	}
	s, err := strconv.ParseInt(rest[0], 10, 32)
	if err != nil {
		return fmt.Errorf("bad vertex %q: %v", rest[0], err)
	}
	t, err := strconv.ParseInt(rest[1], 10, 32)
	if err != nil {
		return fmt.Errorf("bad vertex %q: %v", rest[1], err)
	}
	o, err := pll.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	if err := pll.Validate(o, int32(s), int32(t)); err != nil {
		return err
	}
	p, err := o.Path(int32(s), int32(t))
	if err != nil {
		return err
	}
	if p == nil {
		fmt.Printf("no path: %d and %d are disconnected\n", s, t)
		return nil
	}
	fmt.Printf("path (%d hops): %v\n", len(p)-1, p)
	return nil
}

func printDistance(s, t int32, d int64) {
	if d == pll.Unreachable {
		fmt.Printf("d(%d,%d) = unreachable\n", s, t)
		return
	}
	fmt.Printf("d(%d,%d) = %d\n", s, t, d)
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("stats needs -index")
	}
	o, err := pll.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	st := o.Stats()
	fmt.Printf("variant:             %s\n", st.Variant)
	fmt.Printf("vertices:            %d\n", st.NumVertices)
	fmt.Printf("bit-parallel roots:  %d\n", st.NumBitParallel)
	fmt.Printf("label entries:       %d\n", st.TotalLabelEntries)
	fmt.Printf("avg label size:      %.2f\n", st.AvgLabelSize)
	fmt.Printf("max label size:      %d\n", st.MaxLabelSize)
	fmt.Printf("label quantiles:     min=%d p25=%d p50=%d p75=%d max=%d\n",
		st.LabelSizeQuantiles[0], st.LabelSizeQuantiles[1], st.LabelSizeQuantiles[2],
		st.LabelSizeQuantiles[3], st.LabelSizeQuantiles[4])
	fmt.Printf("index bytes:         %d (labels %d, bit-parallel %d)\n",
		st.IndexBytes, st.NormalLabelBytes, st.BitParallelBytes)
	fmt.Printf("hub occupancy:       %d distinct hubs, max load %d, avg load %.2f\n",
		st.DistinctHubs, st.MaxHubLoad, st.AvgHubLoad)
	fmt.Printf("path reconstruction: %v\n", st.HasParentPointers)
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	graphPath := fs.String("graph", "", "edge-list file the index was built from")
	pairs := fs.Int("pairs", 1000, "random pairs cross-checked against BFS")
	seed := fs.Uint64("seed", 1, "pair sampling seed")
	fs.Parse(args)
	if *indexPath == "" || *graphPath == "" {
		return fmt.Errorf("verify needs -index and -graph")
	}
	ix, err := pll.LoadIndexFile(*indexPath)
	if err != nil {
		return err
	}
	g, err := pll.LoadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	if err := ix.Verify(g, *pairs, *seed); err != nil {
		return err
	}
	fmt.Printf("index OK: structure valid, %d sampled queries exact\n", *pairs)
	return nil
}

func bench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	pairs := fs.Int("pairs", 100000, "number of random query pairs")
	seed := fs.Uint64("seed", 1, "query sampling seed")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("bench needs -index")
	}
	o, err := pll.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	n := int32(o.NumVertices())
	if n == 0 {
		return fmt.Errorf("empty index")
	}
	r := rng.New(*seed)
	qs := make([][2]int32, *pairs)
	for i := range qs {
		qs[i] = [2]int32{r.Int31n(n), r.Int31n(n)}
	}
	start := time.Now()
	sink := int64(0)
	for _, q := range qs {
		sink += o.Distance(q[0], q[1])
	}
	elapsed := time.Since(start)
	_ = sink
	fmt.Printf("%d queries in %v (%.2f us/query)\n",
		*pairs, elapsed, float64(elapsed.Nanoseconds())/float64(*pairs)/1e3)
	return nil
}
