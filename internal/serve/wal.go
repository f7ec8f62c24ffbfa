package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"time"

	"obm/internal/snap"
	"obm/internal/wal"
)

// The coordinator's lease write-ahead log. The absorbed shard logs are
// the durable truth for outcomes; this journal makes the lease table
// crash-recoverable too, so a restarted coordinator keeps honoring live
// workers' heartbeats instead of aborting their shards mid-replay.
//
// Every lease-state transition appends one record to <job-dir>/lease.wal
// (framing and torn-tail trimming come from internal/wal; payload
// encoding reuses the internal/snap primitives). Records journal the
// POST-transition state, so replay is assignment plus strict legality
// checks: a lease record must land on a pending shard with the next
// attempt number, a heartbeat must name the current token, a requeue
// must land on a leased shard. Any violation — duplicated, reordered or
// hand-edited records — classifies as snap.ErrCorrupt and the whole log
// is discarded rather than replayed into a lie (recovery then queues the
// job afresh, which is always safe: outcomes live in the store).
//
// The WAL is strictly a durability optimization with one invariant:
// it may lag the store (a crash between an upload's absorb and its WAL
// record), never lead it. Recovery therefore reconciles every replayed
// shard against the store and trusts the store's verdict. Leases whose
// TTL lapsed while the coordinator was down, and leases its own local
// workers held, are requeued on the spot; live fleet leases are re-armed
// to a full TTL so the worker's next heartbeat lands instead of 409ing.

// leaseWALFile is the per-job WAL file name, next to the job log.
const leaseWALFile = "lease.wal"

// walOp tags one lease-state transition record.
type walOp uint8

const (
	walOpInit      walOp = 1 // shard partition planned (shard count, recorded jobs)
	walOpLease     walOp = 2 // shard leased to a worker
	walOpHeartbeat walOp = 3 // lease renewed, progress reported
	walOpRequeue   walOp = 4 // lease reaped (TTL) — shard back to pending
	walOpShardDone walOp = 5 // upload proved the shard fully recorded
	walOpAbsorb    walOp = 6 // partial upload absorbed (optionally requeuing its shard)
)

const (
	// maxWALString caps decoded token/worker strings (tokens are 32 hex
	// chars; worker names are short) so a corrupt length cannot size an
	// allocation.
	maxWALString = 256
	// maxWALShards caps the decoded shard count for the same reason.
	maxWALShards = 1 << 16
)

// walEncode runs f over a snap.Writer and returns the payload bytes.
// Records do not carry their own CRC trailer — internal/wal frames one
// per record.
func walEncode(f func(w *snap.Writer)) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	f(w)
	return buf.Bytes()
}

func walWriteString(w *snap.Writer, s string) {
	if len(s) > maxWALString {
		s = s[:maxWALString]
	}
	w.U32(uint32(len(s)))
	w.Bytes([]byte(s))
}

func walReadString(r *snap.Reader) (string, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return "", err
	}
	if n > maxWALString {
		return "", snap.Corruptf("serve wal: string of %d bytes (max %d)", n, maxWALString)
	}
	b := make([]byte, n)
	r.Bytes(b)
	return string(b), r.Err()
}

func walRecInit(shards, recorded int) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpInit))
		w.U32(uint32(shards))
		w.U32(uint32(recorded))
	})
}

func walRecLease(shard int, sh *shardState) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpLease))
		w.U32(uint32(shard))
		walWriteString(w, sh.token)
		walWriteString(w, sh.worker)
		w.I64(sh.expires.UnixNano())
		w.U32(uint32(sh.attempts))
	})
}

func walRecHeartbeat(shard int, sh *shardState) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpHeartbeat))
		w.U32(uint32(shard))
		walWriteString(w, sh.token)
		w.U32(uint32(sh.done))
		w.I64(sh.expires.UnixNano())
	})
}

func walRecRequeue(shard int) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpRequeue))
		w.U32(uint32(shard))
	})
}

func walRecShardDone(shard, recorded int) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpShardDone))
		w.U32(uint32(shard))
		w.U32(uint32(recorded))
	})
}

// walRecAbsorb records a partial absorb; requeued is the shard returned
// to pending by it, or -1 when only the recorded count moved (a stale
// upload from an expired lease).
func walRecAbsorb(requeued, recorded int) []byte {
	return walEncode(func(w *snap.Writer) {
		w.U8(uint8(walOpAbsorb))
		w.U32(uint32(int32(requeued)))
		w.U32(uint32(recorded))
	})
}

// walShardView is one shard's lease state as reconstructed from the WAL
// (shardState minus the plan-derived jobs slice, which replay re-derives
// from the manifest).
type walShardView struct {
	phase    shardPhase
	token    string
	worker   string
	expires  time.Time
	done     int
	attempts int
}

// walJobState is the lease-table state machine the WAL replays into. Its
// apply method is strict: records must describe transitions the live
// coordinator could actually have performed, in an order it could have
// performed them, or the log classifies as corrupt.
type walJobState struct {
	inited   bool
	shards   []walShardView
	recorded int
}

// shardRef decodes a shard index and bounds-checks it.
func (st *walJobState) shardRef(r *snap.Reader) (*walShardView, error) {
	k := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !st.inited {
		return nil, snap.Corruptf("serve wal: record before init")
	}
	if int(k) >= len(st.shards) {
		return nil, snap.Corruptf("serve wal: shard %d out of range (have %d)", k, len(st.shards))
	}
	return &st.shards[k], nil
}

// apply folds one record payload into the state. It is the fn passed to
// wal.Open and the subject of FuzzWALReplay.
func (st *walJobState) apply(payload []byte) error {
	r := snap.NewReader(bytes.NewReader(payload))
	op := walOp(r.U8())
	if err := r.Err(); err != nil {
		return err
	}
	switch op {
	case walOpInit:
		n, rec := r.U32(), r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if st.inited {
			return snap.Corruptf("serve wal: duplicate init record")
		}
		if n == 0 || n > maxWALShards {
			return snap.Corruptf("serve wal: init names %d shards (max %d)", n, maxWALShards)
		}
		st.inited = true
		st.shards = make([]walShardView, n)
		for k := range st.shards {
			st.shards[k].phase = shardPending
		}
		st.recorded = int(rec)

	case walOpLease:
		sh, err := st.shardRef(r)
		if err != nil {
			return err
		}
		token, err := walReadString(r)
		if err != nil {
			return err
		}
		worker, err := walReadString(r)
		if err != nil {
			return err
		}
		expires, attempts := r.I64(), r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if sh.phase != shardPending {
			return snap.Corruptf("serve wal: lease of a %s shard", sh.phase)
		}
		if int(attempts) != sh.attempts+1 {
			return snap.Corruptf("serve wal: lease attempt %d after %d", attempts, sh.attempts)
		}
		sh.phase = shardLeased
		sh.token, sh.worker = token, worker
		sh.expires = time.Unix(0, expires)
		sh.done = 0
		sh.attempts = int(attempts)

	case walOpHeartbeat:
		sh, err := st.shardRef(r)
		if err != nil {
			return err
		}
		token, err := walReadString(r)
		if err != nil {
			return err
		}
		done, expires := r.U32(), r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if sh.phase != shardLeased || sh.token != token {
			return snap.Corruptf("serve wal: heartbeat against a lease it does not hold")
		}
		if int(done) < sh.done {
			return snap.Corruptf("serve wal: heartbeat progress went backwards (%d after %d)", done, sh.done)
		}
		sh.done = int(done)
		sh.expires = time.Unix(0, expires)

	case walOpRequeue:
		sh, err := st.shardRef(r)
		if err != nil {
			return err
		}
		if sh.phase != shardLeased {
			return snap.Corruptf("serve wal: requeue of a %s shard", sh.phase)
		}
		sh.phase = shardPending
		sh.token, sh.worker, sh.done = "", "", 0

	case walOpShardDone:
		sh, err := st.shardRef(r)
		if err != nil {
			return err
		}
		rec := r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if sh.phase == shardDone {
			return snap.Corruptf("serve wal: duplicate shard-done record")
		}
		if int(rec) < st.recorded {
			return snap.Corruptf("serve wal: recorded count went backwards (%d after %d)", rec, st.recorded)
		}
		sh.phase = shardDone
		sh.token, sh.worker, sh.done = "", "", 0
		st.recorded = int(rec)

	case walOpAbsorb:
		k := int(int32(r.U32()))
		rec := r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if !st.inited {
			return snap.Corruptf("serve wal: record before init")
		}
		if int(rec) < st.recorded {
			return snap.Corruptf("serve wal: recorded count went backwards (%d after %d)", rec, st.recorded)
		}
		if k != -1 {
			if k < 0 || k >= len(st.shards) {
				return snap.Corruptf("serve wal: shard %d out of range (have %d)", k, len(st.shards))
			}
			sh := &st.shards[k]
			if sh.phase != shardLeased {
				return snap.Corruptf("serve wal: absorb-requeue of a %s shard", sh.phase)
			}
			sh.phase = shardPending
			sh.token, sh.worker, sh.done = "", "", 0
		}
		st.recorded = int(rec)

	default:
		return snap.Corruptf("serve wal: unknown op %d", op)
	}
	// A record must be exactly its fields — trailing bytes mean a framing
	// bug or tampering.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return snap.Corruptf("serve wal: trailing bytes after op %d", op)
	}
	return nil
}

// walAppend journals one lease-state record for j. Callers hold j.mu
// (appends must serialize in transition order). A write failure disables
// the job's WAL — recovery then degrades to the store-only path — rather
// than failing the operation: the WAL is a durability optimization,
// never a correctness gate.
func (s *Server) walAppend(j *job, payload []byte) {
	if j.wal == nil {
		return
	}
	if err := j.wal.Append(payload); err != nil {
		s.opt.Logf("serve: job %.12s: lease WAL append failed — disabling (%v)", j.id, err)
		j.wal.Close()
		j.wal = nil
		return
	}
	s.met.walAppends.Inc()
}

// walRequeues journals the shards reapExpired just returned to pending.
// Callers hold j.mu.
func (s *Server) walRequeues(j *job, requeued []int) {
	for _, k := range requeued {
		s.walAppend(j, walRecRequeue(k))
	}
}

// walDrop closes and deletes j's WAL (terminal job, or lease state reset
// by a resubmission). Callers hold j.mu.
func (j *job) walDrop() {
	if j.wal != nil {
		j.wal.Remove()
		j.wal = nil
	}
}

// crashPoint names a persistence boundary in the coordinator's lease
// protocol — the instants right after a WAL append (or, for
// post-store-absorb, right after an upload became durable in the store
// but before its WAL record) where a crash leaves the most interesting
// recoverable state. The fault-injection harness arms crashHook to kill
// the coordinator at exactly these points.
type crashPoint string

const (
	crashPostInit        crashPoint = "post-init"
	crashPostLease       crashPoint = "post-lease"
	crashPostHeartbeat   crashPoint = "post-heartbeat"
	crashPostRequeue     crashPoint = "post-requeue"
	crashPostStoreAbsorb crashPoint = "post-store-absorb"
	crashPostAbsorb      crashPoint = "post-absorb"
	crashPostComplete    crashPoint = "post-complete"
)

// crashPoints lists every injection point, for harnesses sweeping them.
var crashPoints = []crashPoint{
	crashPostInit, crashPostLease, crashPostHeartbeat, crashPostRequeue,
	crashPostStoreAbsorb, crashPostAbsorb, crashPostComplete,
}

// crashAt invokes the fault-injection hook, if armed. Production servers
// never set crashHook; the harness's hook panics with a sentinel,
// simulating a coordinator death at exactly this persistence boundary.
// Call sites hold no server-wide locks (an abandoned job's mutex is
// unreachable garbage after the simulated crash).
func (s *Server) crashAt(p crashPoint) {
	if h := s.crashHook; h != nil {
		h(p)
	}
}

// recoverDist restores j's lease state from its lease WAL, if one exists
// and still describes a live fleet: then j is restored as a running job
// whose live fleet leases are re-armed over the shard table attach
// planned from its store. Leases held by the previous process's local
// workers are requeued at once — their holder died with the coordinator.
// On any doubt — corrupt or semantically invalid log, shard partition
// mismatch (a changed -shard-size), store disagreement, or simply no
// fleet lease still inside its TTL — the WAL is discarded and the job
// stays queued with that table, which is always safe: job outcomes live
// in the store, and the next lease starts a fresh WAL.
func (s *Server) recoverDist(j *job, now time.Time) {
	path := filepath.Join(j.dir, leaseWALFile)
	if _, err := os.Stat(path); err != nil {
		return
	}
	discard := func(lg *wal.Log, format string, args ...any) {
		s.met.walDiscarded.Inc()
		s.opt.Logf("serve: job %.12s: discarding lease WAL: "+format, append([]any{j.id}, args...)...)
		if lg != nil {
			lg.Remove()
		} else {
			os.Remove(path)
		}
	}

	var st walJobState
	lg, replayed, err := wal.Open(path, st.apply)
	s.met.walReplayed.Add(uint64(replayed))
	if err != nil {
		discard(nil, "%v", err)
		return
	}
	if !st.inited {
		lg.Remove() // fresh or fully torn log: nothing to restore
		return
	}
	table := j.dist.shards // planned from the store: a shard is done iff the store holds it
	n := len(table)
	if n != len(st.shards) {
		discard(lg, "journaled %d shards, current partition has %d (changed shard size?)", len(st.shards), n)
		return
	}

	// Reconcile against the store — the durable truth for outcomes. The
	// WAL may lag it (a crash between an upload's absorb and its WAL
	// record) but must never lead it: a journaled-done shard the store
	// cannot corroborate means the store was tampered with or swapped,
	// and the whole log is untrustworthy.
	shards := make([]shardState, n)
	live := 0
	for k := range shards {
		v := &st.shards[k]
		shards[k] = shardState{
			phase: v.phase, token: v.token, worker: v.worker,
			expires: v.expires, done: v.done, attempts: v.attempts,
			jobs: table[k].jobs,
		}
		complete := table[k].phase == shardDone
		if v.phase == shardDone && !complete {
			discard(lg, "shard %d journaled done but the store is missing its jobs", k)
			return
		}
		if complete {
			shards[k].phase = shardDone
			shards[k].token, shards[k].worker, shards[k].done = "", "", 0
		} else if liveFleetLease(&shards[k], now) {
			live++
		}
	}
	if live == 0 {
		// No fleet lease survived the outage: plain recovery — queue the
		// job and resume from the store — is strictly better.
		lg.Remove()
		return
	}

	// The fleet is still out there. Requeue leases that died while we
	// were down, or with us (journaled, so a later replay stays linear),
	// and re-arm the live ones to a full TTL — the recovery moment is
	// their new heartbeat epoch, so a worker mid-replay gets its next
	// renewal in.
	requeued, recovered := 0, 0
	for k := range shards {
		sh := &shards[k]
		if sh.phase != shardLeased {
			continue
		}
		if !liveFleetLease(sh, now) {
			if err := lg.Append(walRecRequeue(k)); err == nil {
				s.met.walAppends.Inc()
			}
			sh.phase = shardPending
			sh.token, sh.worker, sh.done = "", "", 0
			requeued++
			continue
		}
		sh.expires = now.Add(s.opt.LeaseTTL)
		recovered++
	}
	s.met.walRecoveredLeases.Add(uint64(recovered))
	s.met.leasesExpired.Add(uint64(requeued))

	j.mu.Lock()
	j.state = StateRunning
	j.dist.shards = shards
	j.dist.journaled = true
	j.wal = lg
	j.done = j.fleetDone()
	j.mu.Unlock()
	s.opt.Logf("serve: job %.12s: lease WAL recovered (%d records: %d live leases re-armed, %d dead leases requeued, %d/%d jobs recorded)",
		j.id, replayed, recovered, requeued, j.dist.recorded, j.total)
}

// liveFleetLease reports whether sh is a lease recovery re-arms: held by
// a fleet worker and still inside its TTL. A local worker's lease died
// with the process that granted it.
func liveFleetLease(sh *shardState, now time.Time) bool {
	return sh.phase == shardLeased && sh.expires.After(now) && !strings.HasPrefix(sh.worker, localWorkerPrefix)
}
