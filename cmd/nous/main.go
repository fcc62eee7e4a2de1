// Command nous is the demo CLI (§4): it builds a custom knowledge graph
// from a curated KB plus a stream of articles and answers the five query
// classes from the command line.
//
// Subcommands:
//
//	nous build  [-world drone|citations|insider] [-articles N] [-out kg.json]
//	nous query  [-articles N] -q "Tell me about DJI"
//	nous mine   [-articles N] [-minsup K] [-maxedges L]
//	nous trends [-articles N] [-k K]
//	nous export [-articles N] [-format dot|json] [-entity NAME]...
//
// Without external data the synthetic drone world drives everything; point
// -kb/-corpus at TSV/JSON files to use real data.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nous"

	"nous/internal/corpus"
	"nous/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One signal context for every command: ingestion checkpoints partial
	// progress on SIGINT/SIGTERM (when a -data-dir is attached) and serve
	// drains in-flight requests before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "build":
		cmdBuild(ctx, args)
	case "query":
		cmdQuery(ctx, args)
	case "mine":
		cmdMine(ctx, args)
	case "trends":
		cmdTrends(ctx, args)
	case "diff":
		cmdDiff(ctx, args)
	case "export":
		cmdExport(ctx, args)
	case "serve":
		cmdServe(ctx, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nous: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `nous — construction and querying of dynamic knowledge graphs

commands:
  build    ingest a corpus into a knowledge graph and print statistics
  query    answer a question (trending/entity/relationship/pattern/fact/diff);
           -plan prints the compiled logical plan alongside the answer
  mine     report closed frequent patterns over the stream window
  trends   report bursting entities and predicates
  diff     temporal join: what changed (about an entity) between two periods
  export   dump the KG (or an entity neighborhood) as DOT or JSON
  serve    start the web console + JSON API (the demo's web interface)

common flags: -world drone|citations|insider, -articles N, -seed S,
              -kb triples.tsv, -corpus articles.json,
              -data-dir DIR (durable graph: resume from disk, persist as you go)
`)
}

// buildFlags holds the flags shared by all subcommands.
type buildFlags struct {
	world    string
	articles int
	seed     int64
	kbPath   string
	corpus   string
	window   time.Duration
	workers  int
	dataDir  string
}

func addCommonFlags(fs *flag.FlagSet) *buildFlags {
	bf := &buildFlags{}
	fs.StringVar(&bf.world, "world", "drone", "synthetic world: drone, citations or insider")
	fs.IntVar(&bf.articles, "articles", 400, "number of synthetic articles to ingest")
	fs.Int64Var(&bf.seed, "seed", 42, "world seed")
	fs.StringVar(&bf.kbPath, "kb", "", "curated KB TSV file (overrides synthetic KB)")
	fs.StringVar(&bf.corpus, "corpus", "", "articles JSON file (overrides synthetic corpus)")
	fs.DurationVar(&bf.window, "window", 0, "sliding window for extracted facts (0 = keep all)")
	fs.IntVar(&bf.workers, "workers", 0, "extraction worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&bf.dataDir, "data-dir", "", "durable graph directory: resume from its snapshot+WAL if present, persist every mutation while running")
	return bf
}

// assemble builds the pipeline per flags. With -data-dir it opens the
// durable store first: a non-empty store resumes from disk and skips
// seeding/ingest entirely; an empty one seeds and ingests through the
// store so every write is persisted as it happens, then checkpoints.
// Ingestion watches ctx and stops at a chunk boundary when a shutdown
// signal arrives, so partial progress still reaches the final checkpoint.
func assemble(ctx context.Context, bf *buildFlags) (*nous.Pipeline, *nous.World) {
	w := worldFor(bf)

	cfg := nous.DefaultConfig()
	cfg.Stream.Window = bf.window
	cfg.Stream.Workers = bf.workers

	var p *nous.Pipeline
	if bf.dataDir != "" {
		var err error
		p, err = nous.Open(bf.dataDir, w.Ontology, cfg)
		fatalIf(err)
		if p.KG().NumFacts() > 0 {
			ps, _ := p.PersistStats()
			fmt.Fprintf(os.Stderr, "nous: resumed from %s: %d entities, %d facts, epoch %d (replayed %d WAL records)\n",
				bf.dataDir, p.KG().NumEntities(), p.KG().NumFacts(), p.KG().Graph().Epoch(), ps.ReplayedRecords)
			if bf.kbPath != "" || bf.corpus != "" {
				fmt.Fprintln(os.Stderr, "nous: warning: -kb/-corpus ignored when resuming from a non-empty -data-dir (point at a fresh directory to re-ingest)")
			}
			return p, w
		}
		fatalIf(w.SeedKG(p.KG()))
	} else {
		kg, err := w.LoadKG()
		fatalIf(err)
		p = nous.NewPipeline(kg, cfg)
	}

	if bf.kbPath != "" {
		f, err := os.Open(bf.kbPath)
		fatalIf(err)
		triples, err := corpus.ReadTriplesTSV(f)
		f.Close()
		fatalIf(err)
		for _, t := range triples {
			if _, err := p.KG().AddFact(t); err != nil {
				fmt.Fprintln(os.Stderr, "warning:", err)
			}
		}
	}

	var articles []nous.Article
	if bf.corpus != "" {
		f, err := os.Open(bf.corpus)
		fatalIf(err)
		articles, err = corpus.ReadArticlesJSON(f)
		f.Close()
		fatalIf(err)
	} else if bf.world == "drone" {
		articles = nous.GenerateArticles(w, nous.DefaultArticleConfig(bf.articles))
	} else {
		// Event-only worlds ingest their event streams as curated-style
		// updates: emit one short article per event.
		articles = eventArticles(w, bf.articles)
	}
	ingestChunked(ctx, p, articles)
	if p.Durable() {
		fatalIf(p.Checkpoint())
	}
	return p, w
}

// worldFor resolves the -world flag to a synthetic world; its ontology is
// used even in modes that skip the world's KB and corpus (a read replica
// needs the same ontology as its leader to admit replicated facts).
func worldFor(bf *buildFlags) *nous.World {
	switch bf.world {
	case "drone":
		cfg := nous.DefaultWorldConfig()
		cfg.Seed = bf.seed
		return nous.GenerateWorld(cfg)
	case "citations":
		return corpus.GenerateCitationWorld(bf.seed, 60, 120)
	case "insider":
		return corpus.GenerateInsiderWorld(bf.seed, 25, 18, 1500)
	default:
		fatal(fmt.Errorf("unknown world %q", bf.world))
		return nil
	}
}

// ingestChunked feeds articles through the pipeline in slices, checking for
// shutdown between chunks: on SIGINT/SIGTERM mid-corpus the current chunk
// finishes, the remainder is skipped, and the caller's checkpoint captures
// everything ingested so far instead of throwing it away.
func ingestChunked(ctx context.Context, p *nous.Pipeline, articles []nous.Article) {
	const chunk = 64
	for done := 0; done < len(articles); {
		select {
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "nous: interrupted after %d/%d articles; flushing partial progress\n",
				done, len(articles))
			return
		default:
		}
		end := min(done+chunk, len(articles))
		p.IngestAll(articles[done:end])
		done = end
	}
}

// eventArticles renders generic one-sentence articles for worlds without
// news templates (citations, insider threat).
func eventArticles(w *nous.World, limit int) []nous.Article {
	var out []nous.Article
	for i, e := range w.Events {
		if limit > 0 && i >= limit {
			break
		}
		out = append(out, nous.Article{
			ID: fmt.Sprintf("ev-%06d", i), Source: "log", Date: e.Date,
			Text: fmt.Sprintf("%s %s %s.", e.Subject, verbFor(e.Predicate), e.Object),
		})
	}
	return out
}

func verbFor(pred string) string {
	switch pred {
	case "authorOf":
		return "authored"
	case "cites":
		return "cites"
	case "publishedAt":
		return "appeared at"
	case "accessed":
		return "accessed"
	case "loggedInto":
		return "logged into"
	case "emailed":
		return "emailed"
	case "copiedTo":
		return "copied to"
	default:
		return pred
	}
}

func cmdBuild(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	bf := addCommonFlags(fs)
	out := fs.String("out", "", "write the resulting KG as JSON to this file")
	fs.Parse(args)

	start := time.Now()
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	st := p.Stats()
	kgStats := p.KG().Stats()
	fmt.Printf("ingested %d documents in %s\n", st.Documents, time.Since(start).Round(time.Millisecond))
	fmt.Printf("raw triples %d → mapped %d → accepted %d (rejected %d)\n",
		st.RawTriples, st.Mapped, st.Accepted, st.Rejected)
	fmt.Printf("knowledge graph: %d entities, %d facts (%d curated, %d extracted)\n",
		kgStats.Entities, kgStats.Facts, kgStats.CuratedFacts, kgStats.ExtractedFacts)
	fmt.Printf("mean extracted confidence: %.2f\n", kgStats.MeanConfidence)
	fmt.Printf("confidence histogram: %v\n", kgStats.ConfidenceHistogram)
	if ps, ok := p.PersistStats(); ok {
		fmt.Printf("durable store: snapshot epoch %d, wal seq %d (%d records, %d bytes), %d checkpoints\n",
			ps.SnapshotEpoch, ps.WALSeq, ps.WALRecords, ps.WALBytes, ps.Checkpoints)
	}
	if *out != "" {
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		fatalIf(p.KG().ExportJSON(f))
		fmt.Printf("wrote %s\n", *out)
	}
}

func cmdQuery(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	bf := addCommonFlags(fs)
	q := fs.String("q", "", "the question (required)")
	showPlan := fs.Bool("plan", false, "print the compiled logical plan before the answer")
	fs.Parse(args)
	if *q == "" {
		fmt.Fprintln(os.Stderr, "query: -q is required; the query classes are:")
		for _, c := range nous.QueryClasses() {
			fmt.Fprintln(os.Stderr, "  ", c)
		}
		os.Exit(2)
	}
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	if *showPlan {
		pl, err := p.PlanFor(*q, nous.Window{})
		fatalIf(err)
		fmt.Print(pl.Explain(nil))
		fmt.Println()
	}
	a, err := p.Ask(*q)
	fatalIf(err)
	fmt.Println(a.Text)
}

// cmdDiff answers "what changed (about an entity) between two periods" by
// routing through the question language, so the CLI and the parser share
// one code path.
func cmdDiff(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	bf := addCommonFlags(fs)
	entity := fs.String("entity", "", "entity to diff (empty = the whole extracted stream)")
	a := fs.String("a", "", "first period: a year (2015) or a day (2015-06-12); required")
	b := fs.String("b", "", "second period, after the first; required")
	fs.Parse(args)
	if *a == "" || *b == "" {
		fmt.Fprintln(os.Stderr, "diff: -a and -b are required (a year or YYYY-MM-DD each)")
		os.Exit(2)
	}
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	question := fmt.Sprintf("What changed between %s and %s?", *a, *b)
	if *entity != "" {
		question = fmt.Sprintf("What changed about %s between %s and %s?", *entity, *a, *b)
	}
	ans, err := p.Ask(question)
	fatalIf(err)
	fmt.Println(ans.Text)
}

func cmdMine(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	bf := addCommonFlags(fs)
	k := fs.Int("k", 15, "patterns to show")
	fs.Parse(args)
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	fmt.Println("closed frequent patterns in the current window:")
	for _, pat := range p.Patterns(*k) {
		fmt.Printf("  support=%-4d %s\n", pat.Support, pat)
	}
}

func cmdTrends(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("trends", flag.ExitOnError)
	bf := addCommonFlags(fs)
	k := fs.Int("k", 15, "trends to show")
	fs.Parse(args)
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	for _, t := range p.Trending(*k) {
		fmt.Printf("  %-30s %-9s burst=%.1fx (%d mentions, baseline %.1f)\n",
			t.Name, t.Kind, t.Score, t.Current, t.Baseline)
	}
}

func cmdExport(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	bf := addCommonFlags(fs)
	format := fs.String("format", "dot", "dot or json")
	entity := fs.String("entity", "", "restrict to one entity's neighborhood (comma-separated for several)")
	fs.Parse(args)
	p, _ := assemble(ctx, bf)
	defer func() { fatalIf(p.Close()) }()
	var names []string
	if *entity != "" {
		names = splitComma(*entity)
	}
	switch *format {
	case "dot":
		fatalIf(p.KG().ExportDOT(os.Stdout, names...))
	case "json":
		fatalIf(p.KG().ExportJSON(os.Stdout, names...))
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
}

func cmdServe(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	bf := addCommonFlags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	reqTimeout := fs.Duration("request-timeout", server.DefaultRequestTimeout, "per-request handler timeout (0 disables)")
	follow := fs.String("follow", "", "run as a read replica of this leader's base URL (e.g. http://leader:8080): bootstrap from its snapshot, tail its WAL, reject writes; -world selects the shared ontology and the ingest flags are ignored")
	fs.Parse(args)
	var p *nous.Pipeline
	if *follow != "" {
		if bf.dataDir != "" {
			fatal(fmt.Errorf("-follow and -data-dir are mutually exclusive: a replica keeps no local disk state (it re-bootstraps from the leader on restart)"))
		}
		cfg := nous.DefaultConfig()
		cfg.Stream.Window = bf.window
		var err error
		p, err = nous.Follow(ctx, *follow, worldFor(bf).Ontology, cfg)
		fatalIf(err)
		st := p.Follower().Status()
		fmt.Fprintf(os.Stderr, "nous: read replica of %s: bootstrapped at epoch %d (%d entities, %d facts), tailing WAL\n",
			*follow, st.AppliedEpoch, p.KG().NumEntities(), p.KG().NumFacts())
	} else {
		p, _ = assemble(ctx, bf)
	}
	// With -data-dir, leave a fresh snapshot behind and flush the WAL on
	// every exit path, so the next serve resumes instantly from disk.
	finish := func() {
		if p.Durable() {
			fatalIf(p.Checkpoint())
		}
		fatalIf(p.Close())
	}
	if ctx.Err() != nil {
		// Interrupted during the initial build: persist what we have
		// instead of starting a server that is already shutting down.
		finish()
		return
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewWithTimeout(p, *reqTimeout),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("nous: serving web console on http://localhost%s\n", *addr)

	select {
	case err := <-errc:
		fatalIf(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nous: shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatalIf(err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalIf(err)
		}
		finish()
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nous:", err)
	os.Exit(1)
}
