// Command mustd is the MUST serving daemon: an HTTP/JSON front end over
// a must.Engine (one shard, or S with -shards) with GOMAXPROCS engine
// slots behind admission control, an epoch-invalidated result cache,
// Prometheus metrics, and a graceful SIGTERM drain. All serving
// logic lives in internal/server; this file is flags, lifecycle, and
// snapshots.
//
//	mustd -schema image:512,text:384            # start empty, insert over HTTP
//	mustd -schema image:512,text:384 -shards 8  # sharded: parallel build, fan-out search
//	mustd -load engine.bin -snapshot engine.bin # restore, snapshot on shutdown
//	mustd -schema image:512,text:384 -wal ./wal # log every mutation, replay on restart
//
// -load reads a snapshot of any shard count (the snapshot's shard count
// wins; -shards is ignored on restore).
//
// Endpoints: POST /v1/search /v1/insert /v1/delete /v1/rebuild,
// GET /v1/stats /healthz /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"must"
	"must/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":7700", "listen address")
		schemaSpec = flag.String("schema", "", "engine schema as name:dim,name:dim (modality 0 is the target); required unless -load is given")
		load       = flag.String("load", "", "restore the engine from this snapshot file at startup")
		snapshot   = flag.String("snapshot", "", "write engine snapshots to this file (atomic rename; always written on shutdown)")
		snapEvery  = flag.Duration("snapshot-interval", 0, "also snapshot periodically at this interval (0 = shutdown only)")

		gamma = flag.Int("gamma", 30, "graph degree bound γ for builds of a fresh engine")
		seed  = flag.Int64("seed", 0, "construction seed for builds of a fresh engine")

		shards = flag.Int("shards", 1, "partition a fresh engine into this many shards (parallel build/rebuild, fan-out search); 1 = one graph")

		sq8    = flag.Bool("sq8", false, "serve beam search over an int8 (SQ8) shadow of the vectors with exact float32 re-rank; 4x less scan bandwidth at a small recall cost")
		rerank = flag.Int("rerank", 0, "exact re-rank depth of the -sq8 path: top candidates re-scored in float32 (0 = 4x the request's k)")

		walDir        = flag.String("wal", "", "write-ahead log directory: every mutation is logged before it is acked and replayed on restart on top of the newest -load snapshot")
		fsyncPolicy   = flag.String("fsync", "always", "WAL durability: always (fsync per record), interval (background fsync), off (OS page cache only)")
		fsyncInterval = flag.Duration("fsync-interval", 50*time.Millisecond, "background fsync period under -fsync interval")

		cacheSize    = flag.Int("cache", 4096, "result-cache capacity in responses (negative disables)")
		maxInFlight  = flag.Int("max-in-flight", 256, "admitted search requests before shedding 429s")
		maxInFlightW = flag.Int("max-in-flight-writes", 64, "admitted write requests (insert/delete/rebuild) before shedding 429s; a separate budget so a write flood never costs search admission")
		defTimeout   = flag.Duration("default-timeout", 2*time.Second, "search deadline when the request has no timeout_ms")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "clamp for request-supplied timeout_ms")

		maintOn        = flag.Bool("maint", false, "run background maintenance: paced rebuilds (one shard at a time) when overlay or tombstone ratios pass their watermarks")
		maintInterval  = flag.Duration("maint-interval", time.Second, "maintenance sampling interval")
		maintGap       = flag.Duration("maint-gap", 10*time.Second, "minimum time between two maintenance rebuilds")
		maintOverlay   = flag.Float64("maint-overlay", 0.20, "overlay ratio watermark that triggers a maintenance rebuild")
		maintTombstone = flag.Float64("maint-tombstone", 0.20, "tombstone ratio watermark that triggers a maintenance rebuild")
	)
	flag.Parse()
	if err := run(*addr, *schemaSpec, *load, *snapshot, *snapEvery, *gamma, *seed, *shards, *sq8, *rerank, *walDir, *fsyncPolicy, *fsyncInterval,
		maintConfig{
			enabled:            *maintOn,
			interval:           *maintInterval,
			gap:                *maintGap,
			overlayWatermark:   *maintOverlay,
			tombstoneWatermark: *maintTombstone,
		},
		server.Config{
			CacheSize:         *cacheSize,
			MaxInFlight:       *maxInFlight,
			MaxInFlightWrites: *maxInFlightW,
			DefaultTimeout:    *defTimeout,
			MaxTimeout:        *maxTimeout,
		}); err != nil {
		fmt.Fprintf(os.Stderr, "mustd: %v\n", err)
		os.Exit(1)
	}
}

// parseSchema turns "image:512,text:384" into a must.Schema.
func parseSchema(spec string) (must.Schema, error) {
	if spec == "" {
		return nil, errors.New("-schema is required when starting without -load (e.g. -schema image:512,text:384)")
	}
	var sc must.Schema
	for _, part := range strings.Split(spec, ",") {
		name, dimStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("schema entry %q is not name:dim", part)
		}
		dim, err := strconv.Atoi(dimStr)
		if err != nil || dim <= 0 {
			return nil, fmt.Errorf("schema entry %q has invalid dim", part)
		}
		sc = append(sc, must.Modality{Name: name, Dim: dim})
	}
	return sc, sc.Validate()
}

func openEngine(load, schemaSpec string, gamma int, seed int64, shards int) (must.Service, error) {
	if load != "" {
		start := time.Now()
		eng, err := must.LoadService(load)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", load, err)
		}
		log.Printf("restored %d-shard engine with %d objects from %s in %v", eng.ShardCount(), eng.Len(), load, time.Since(start).Round(time.Millisecond))
		return eng, nil
	}
	sc, err := parseSchema(schemaSpec)
	if err != nil {
		return nil, err
	}
	eng, err := must.NewShardedEngine(sc, shards, must.EngineOptions{
		Build: must.BuildOptions{Gamma: gamma, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// saveSnapshot writes the engine to path durably: temp file, fsync the
// data, atomic rename, fsync the directory — a crash at any point leaves
// either the old snapshot or the new one, never a torn file that only
// reached the page cache. With a WAL attached the snapshot doubles as a
// checkpoint: the log is truncated once the snapshot is on disk.
func saveSnapshot(eng must.Service, durable *must.DurableService, path string) error {
	if durable != nil {
		return durable.Checkpoint(path)
	}
	return must.WriteSnapshot(eng, path)
}

// maintConfig carries the maintenance flags into run.
type maintConfig struct {
	enabled            bool
	interval           time.Duration
	gap                time.Duration
	overlayWatermark   float64
	tombstoneWatermark float64
}

func run(addr, schemaSpec, load, snapshot string, snapEvery time.Duration, gamma int, seed int64, shards int, sq8 bool, rerank int, walDir, fsyncPolicy string, fsyncInterval time.Duration, mc maintConfig, cfg server.Config) error {
	eng, err := openEngine(load, schemaSpec, gamma, seed, shards)
	if err != nil {
		return err
	}
	var durable *must.DurableService
	if walDir != "" {
		start := time.Now()
		ds, replayed, err := must.OpenDurable(eng, walDir, must.DurableOptions{
			Fsync:         fsyncPolicy,
			FsyncInterval: fsyncInterval,
		})
		if err != nil {
			return fmt.Errorf("opening wal %s: %w", walDir, err)
		}
		durable = ds
		eng = ds
		log.Printf("wal open at %s (fsync=%s): replayed %d records in %v, %d objects",
			walDir, fsyncPolicy, replayed, time.Since(start).Round(time.Millisecond), eng.Len())
		// The operator's signal for a failed log: said once here, then in
		// every write's 503, "poisoned" in /v1/stats and must_wal_poisoned.
		walWatchStop := make(chan struct{})
		defer close(walWatchStop)
		go func() {
			select {
			case <-ds.Failed():
				log.Printf("ERROR: %v — writes get 503 and searches keep serving; restart mustd to replay the log", ds.Err())
			case <-walWatchStop:
			}
		}()
	}
	// A v5 snapshot restores already quantized; -sq8 additionally covers
	// fresh engines and (re)pins the re-rank depth, which is a serving
	// setting rather than part of the snapshot.
	if sq8 {
		if err := eng.EnableQuantization(rerank); err != nil {
			return fmt.Errorf("enabling sq8 quantization: %w", err)
		}
		log.Printf("sq8 quantization enabled (rerank depth %d; 0 = 4x k)", rerank)
	}
	srv := server.New(eng, cfg)

	var maintainer *must.Maintainer
	if mc.enabled {
		maintainer = must.StartMaintenance(eng, must.MaintenanceOptions{
			Interval:           mc.interval,
			MinRebuildGap:      mc.gap,
			OverlayWatermark:   mc.overlayWatermark,
			TombstoneWatermark: mc.tombstoneWatermark,
			Logf:               log.Printf,
		})
		srv.AttachMaintainer(maintainer)
		log.Printf("maintenance on (interval %v, gap %v, overlay>=%.2f, tombstone>=%.2f)",
			mc.interval, mc.gap, mc.overlayWatermark, mc.tombstoneWatermark)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	names := make([]string, 0, len(eng.Schema()))
	for _, m := range eng.Schema() {
		names = append(names, fmt.Sprintf("%s:%d", m.Name, m.Dim))
	}
	log.Printf("mustd listening on %s (schema %s, %d objects)",
		ln.Addr(), strings.Join(names, ","), eng.Len())

	// Periodic snapshots run alongside serving and maintenance: a shard
	// is written under its read lock and a rebuild swaps under its write
	// lock, so a snapshot holds each shard either wholly before or wholly
	// after a compaction, and searches keep flowing meanwhile.
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		if snapshot == "" || snapEvery <= 0 {
			return
		}
		t := time.NewTicker(snapEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := saveSnapshot(eng, durable, snapshot); err != nil {
					log.Printf("snapshot: %v", err)
				} else {
					log.Printf("snapshot written to %s (%d objects)", snapshot, eng.Len())
				}
			case <-snapStop:
				return
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, draining", s)
	case err := <-serveErr:
		close(snapStop)
		<-snapDone
		return err
	}

	// Graceful drain: stop advertising health, refuse new API requests,
	// let admitted ones finish, then snapshot.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	close(snapStop)
	<-snapDone
	if maintainer != nil {
		// Stop maintenance before the final snapshot, so the snapshot is
		// the engine's last state.
		maintainer.Close()
	}
	if snapshot != "" {
		if err := saveSnapshot(eng, durable, snapshot); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		log.Printf("final snapshot written to %s (%d objects)", snapshot, eng.Len())
	}
	if durable != nil {
		if err := durable.Close(); err != nil {
			return fmt.Errorf("closing wal: %w", err)
		}
	}
	log.Printf("mustd drained cleanly")
	return nil
}
