package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nous"
	"nous/internal/persist"
	"nous/internal/server"
)

// system is the program under test as an operator runs it: a durable
// nous.Pipeline (default persistence options — 64 KiB / 200 ms group commit,
// background checkpointer on) and, for the query workloads, internal/server
// behind a loopback TCP listener.
type system struct {
	world    *nous.World
	articles []nous.Article
	dir      string
	p        *nous.Pipeline

	srv  *http.Server
	done chan error
	base string // "http://127.0.0.1:port"
}

func persistOptions() nous.PersistOptions { return persist.DefaultOptions() }

// openSystem generates the world and nArticles articles from the seed and
// opens a durable pipeline over a fresh directory under cfg.WorkDir holding
// the curated KB. workers sizes the extraction pool (0 = GOMAXPROCS).
//
// The curated KB is seeded through a first pipeline (so the seed is logged
// like any other write), checkpointed, and the directory reopened: a
// pipeline assembles its NER gazetteer, link predictor and source trust from
// the facts present at assembly, so one opened on an empty directory would
// extract with an empty gazetteer for its whole life.
func openSystem(cfg *config, nArticles, workers int) (*system, error) {
	s := &system{world: genWorld(cfg.Seed, cfg.Sizes)}
	s.articles = genArticles(s.world, cfg.Seed, nArticles)
	dir, err := os.MkdirTemp(cfg.WorkDir, "data-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if err := s.reopen(workers); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	err = s.world.SeedKG(s.p.KG())
	if err == nil {
		err = s.p.Checkpoint()
	}
	if err == nil {
		err = s.reopen(workers)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func pipelineConfig(workers int) nous.Config {
	c := nous.DefaultConfig()
	c.Stream.Workers = workers
	return c
}

// reopen closes the pipeline, if open, and opens the data directory again.
func (s *system) reopen(workers int) error {
	if s.p != nil {
		p := s.p
		s.p = nil
		if err := p.Close(); err != nil {
			return err
		}
	}
	p, err := nous.OpenWithOptions(s.dir, s.world.Ontology, pipelineConfig(workers), persistOptions())
	if err != nil {
		return err
	}
	s.p = p
	return nil
}

// serve puts internal/server in front of the pipeline on a loopback port.
func (s *system) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.New(s.p)}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return nil
}

// close stops the server (waiting for its goroutine), closes the pipeline
// and removes the data directory.
func (s *system) close() error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	if s.p != nil {
		errs = append(errs, s.p.Close())
		s.p = nil
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// measureSetup runs setup cfg.Sizes.SetupRepeats times, discarding all but
// the last system, and returns it with the median set-up time.
func measureSetup(cfg *config, setup func() (*system, error)) (*system, float64, error) {
	var last *system
	var times []float64
	repeats := cfg.Sizes.SetupRepeats
	if cfg.Trace {
		repeats = 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		sys, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < repeats-1 {
			if err := sys.close(); err != nil {
				return last, 0, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		last = sys
	}
	return last, median(times), nil
}

// liveHeapMiB is HeapAlloc after a forced collection — two, because a
// sync.Pool (net/http and encoding/json keep buffers in them) is emptied only
// by the second.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// diskBytesPerFact checkpoints and divides the bytes then under the data
// directory by the live fact count.
func diskBytesPerFact(p *nous.Pipeline, dir string) (float64, error) {
	if err := p.Checkpoint(); err != nil {
		return 0, fmt.Errorf("final checkpoint: %w", err)
	}
	n, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(p.KG().NumFacts()), nil
}

// exportDigest is the SHA-256 of the KG's full JSON export, the equality the
// ingest and restart oracles compare.
func exportDigest(kg *nous.KG) (string, error) {
	h := sha256.New()
	if err := kg.ExportJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
