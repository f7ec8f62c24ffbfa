// Package obm is a from-scratch Go reproduction of "Optimizing
// Reconfigurable Optical Datacenters: The Power of Randomization"
// (Bienkowski, Fuchssteiner, Schmid; SC 2023): the randomized online
// (b,a)-matching algorithm R-BMA, its deterministic and offline baselines,
// the datacenter-topology and workload substrates, and a benchmark harness
// regenerating every figure of the paper's evaluation.
//
// See README.md for a guided tour, the layer map, and how to regenerate
// the figures. The library lives under internal/; the runnable entry
// points are cmd/ and examples/.
//
// Three cross-cutting design decisions shape the request hot path:
//
// Dense pair index. The pair universe — n·(n−1)/2 unordered rack pairs —
// is known up front, so per-pair state lives in flat arrays indexed by
// trace.PairID (a row-major int32 index) rather than hash maps:
// trace.Compiled pre-resolves each request once, the paging caches use
// slot tables (paging.DeclareUniverse, paging.MarkingBank), and
// matching.BMatching, R-BMA and BMA keep counters, incidence and
// membership in arrays and bitsets.
//
// Streaming replay. Workload generators are resumable trace.Streams,
// compiled against the metric chunk by chunk through trace.Source, so a
// 10⁸-request scenario replays under O(chunk) memory instead of O(T). A
// materialized trace is the trivial case of the same interface (its
// Compiled.Source hands out zero-copy views), every front end — figures,
// grid, bmatch — replays through one loop, and both source kinds produce
// bit-identical cost curves. The scenario-grid
// scheduler (sim.ScenarioSpec, sim.RunGrid, `experiments grid`) expands
// named JSON-encodable scenario specs — including the diurnal, hotspot-
// migration and tenant-mix families beyond the paper — into a (scenario ×
// algorithm × b × rep) job grid, run in groups: the jobs of one scenario
// read one generated trace, chunk by chunk, each through its own
// algorithm.
//
// Durable runs. Grid execution persists through internal/report: a run
// store (manifest.json + jobs.log, a job log of CRC-framed records on
// internal/wal) makes a grid resumable after a crash (`experiments grid
// -store DIR -resume` re-executes only missing jobs), shardable across
// processes or machines (`-shard i/n` owns a disjoint slice; `experiments
// merge` folds shard logs into one store), and self-documenting
// (`experiments report` renders Markdown summary tables and ASCII cost
// curves). Resume and merge are guarded by a SHA-256 spec hash so a
// store never absorbs results from a different grid, and every job record
// by a CRC so a damaged log fails loudly. On top of the stores sits the experiment
// service (internal/serve, `experiments serve`): an HTTP/JSON API that
// queues submitted grids, drains them shard by shard through leases taken
// by its own local workers (and any fleet), deduplicates them by
// spec hash into a content-addressed result cache (an identical grid
// submitted twice — even across restarts — is served from its finished
// store), streams per-job progress over SSE, and recovers interrupted
// grids mid-run after a crash or graceful shutdown.
//
// Distributed execution. The service doubles as a coordinator: it
// partitions each grid into leasable shards, and a fleet of worker
// processes (internal/work, `experiments worker`) drains them
// cooperatively — lease over HTTP, execute as a local shard store,
// heartbeat, upload the log. Expired leases requeue (at-least-once),
// and every duplicate record is verified bit-for-bit on absorption, so
// the merged summary is byte-identical to a single-process run
// regardless of worker count, crashes or duplicate completions.
// docs/OPERATIONS.md is the operator runbook.
//
// Seed reproducibility. Every randomized component draws from a stats.Rand
// seeded explicitly; identical seeds give bit-for-bit identical runs,
// independent of Go version, map iteration order, or internal
// representation. The golden suite in internal/core pins the algorithms'
// exact cost curves across trace families, and resumable generators extend
// the contract: Reset rewinds a stream bit-identically, and request
// sequences are independent of the chunk sizes used to read them. The run
// store leans on the same contract one level up — a grid job's costs are a
// pure function of its (scenario, algorithm, b, rep) identity, so resumed
// and sharded runs aggregate to summaries byte-identical to uninterrupted
// single-process runs.
package obm
