// Command ogpaserver serves ontology-mediated query answering over HTTP:
//
//	ogpaserver -ontology onto.tbox -data data.nt -addr :8080
//	curl -s localhost:8080/query -d '{"query":"q(x) :- Student(x)"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ogpa"
	"ogpa/internal/prof"
	"ogpa/internal/server"
)

func main() {
	var (
		ontologyPath  = flag.String("ontology", "", "ontology file")
		dataPath      = flag.String("data", "", "data file (.abox or .nt)")
		addr          = flag.String("addr", "localhost:8080", "listen address")
		maxWorkers    = flag.Int("max-workers", 0, "cap matcher workers per query (0 = uncapped)")
		planCacheSize = flag.Int("plan-cache-size", 0, "LRU plan-cache capacity (0 = default 128, negative = disabled)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on SIGINT/SIGTERM)")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file on shutdown")
		live          = flag.Bool("live", false, "enable ABox mutations via POST /insert and /delete")
		compactThresh = flag.Int("compact-threshold", 0, "overlay ops before background compaction (0 = default, negative = never; needs -live)")
		dataDir       = flag.String("data-dir", "", "durable live data: snapshot + WAL directory (implies -live; recovers existing state, -data only seeds the first run)")
		subscribe     = flag.Bool("subscribe", false, "serve standing queries (POST /subscribe, long-poll + SSE delta streams); every subscription reads one incrementally maintained datalog fixpoint, started by the first POST /subscribe and shared by up to 64 live query texts; one-shot requests stay cold; needs -live or -data-dir")
		subMaxRows    = flag.Int("subscribe-max-rows", 0, "cap every subscription's answer-set size (0 = uncapped), checked whenever its answers are read; a breach fails that subscription closed")
	)
	flag.Parse()
	if *ontologyPath == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "usage: ogpaserver -ontology FILE -data FILE [-addr HOST:PORT]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	profSession, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	kb, err := ogpa.OpenKB(*ontologyPath, *dataPath)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *dataDir != "":
		if err := kb.EnableDurableLiveData(*dataDir, *compactThresh); err != nil {
			log.Fatal(err)
		}
		ps := kb.PersistenceStats()
		log.Printf("durable data dir %s: snapshot epoch %d (%d bytes), WAL %d bytes, recovered epoch %d",
			*dataDir, ps.LastCheckpointEpoch, ps.SnapshotBytes, ps.WALBytes, kb.Epoch())
	case *live:
		if err := kb.EnableLiveData(*compactThresh); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("loaded %s", kb.Stats())
	if *subscribe && !kb.Live() {
		log.Fatal("-subscribe needs live data: add -live or -data-dir")
	}
	cfg := server.Config{
		MaxWorkersPerQuery:  *maxWorkers,
		PlanCacheSize:       *planCacheSize,
		Subscriptions:       *subscribe,
		SubscriptionMaxRows: *subMaxRows,
	}
	if *subscribe {
		log.Printf("standing-query subscriptions enabled (max rows %d)", *subMaxRows)
	}
	// ReadHeaderTimeout drops clients that never finish their headers. No
	// WriteTimeout: it would cut subscription streams and long polls.
	srv := &http.Server{Addr: *addr, Handler: server.HandlerWithConfig(kb, cfg), ReadHeaderTimeout: 10 * time.Second}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and flush
	// any profiles; a plain log.Fatal would lose the CPU profile tail.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-serveErr:
		closeKB(kb)
		profStop(profSession)
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Ordering matters here. Drain HTTP first, so no request (including an
	// in-flight POST /checkpoint) runs past this point. Then the final
	// checkpoint — it serializes with a still-running background compactor
	// on the store's writer gate, so the two can't interleave snapshot
	// writes. Then Close, which waits that compactor out and closes the
	// WAL. Only then flush profiles: nothing is still executing store code
	// that the profile session might sample mid-teardown.
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if kb.Durable() {
		if epoch, err := kb.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Printf("final checkpoint at epoch %d", epoch)
		}
	}
	closeKB(kb)
	profStop(profSession)
}

func closeKB(kb *ogpa.KB) {
	if err := kb.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

func profStop(s *prof.Session) {
	if err := s.Stop(); err != nil {
		log.Printf("%v", err)
	}
}
