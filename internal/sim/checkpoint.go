package sim

import (
	"bytes"
	"time"

	"obm/internal/snap"
)

// Mid-job replay checkpoints: the "OBMC" blob freezes one grid job part-way
// through its replay — stream position, the partial cost curve, accumulated
// decision-loop time, and an embedded "OBMI" algorithm snapshot — so a
// killed run resumes *inside* a long job instead of replaying it from
// request zero. Resume fast-forwards the job through its deterministic
// source (its group's, in a grid) to the frozen position and continues; by the snapshot equivalence contract
// the finished outcome is bit-identical to an uninterrupted replay, which
// is why a checkpoint can never become part of job identity: it is purely
// an optimization, and any load failure falls back to a fresh replay.

// ckMagic and ckVersion identify the replay-checkpoint blob format.
var ckMagic = []byte("OBMC")

const ckVersion = 1

// ckHooks is a job-bound view of the GridOptions checkpoint hooks; the
// zero value replays without checkpoints.
type ckHooks struct {
	every int
	save  func([]byte) error
	load  func() ([]byte, bool)
	drop  func()
}

// saveReplayCheckpoint serializes the meter's mid-replay state at stream
// position pos. An error means the algorithm refused to snapshot (e.g. an
// ablation variant with a substituted cache) — never an I/O failure, since
// the sink is an in-memory buffer. The buffer is presized from sizeHint,
// the length of the job's previous checkpoint (0 for none): a job's blobs
// stay about one size, so a save allocates its buffer once.
func saveReplayCheckpoint(m *costMeter, pos int, elapsed time.Duration, sizeHint int) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, sizeHint+sizeHint/8+4096))
	sw := snap.NewWriter(buf)
	sw.Bytes(ckMagic)
	sw.U8(ckVersion)
	sw.I64(int64(pos))
	sw.U32(uint32(len(m.res.Series.X)))
	for i, x := range m.res.Series.X {
		sw.I64(int64(x))
		sw.F64(m.res.Series.Routing[i])
		sw.F64(m.res.Series.Reconfig[i])
	}
	sw.I64(int64(elapsed))
	if sw.Err() != nil {
		return nil, sw.Err()
	}
	if err := m.inc.Snapshot(sw); err != nil {
		return nil, err
	}
	sw.WriteCRC()
	if sw.Err() != nil {
		return nil, sw.Err()
	}
	return buf.Bytes(), nil
}

// loadReplayCheckpoint restores a blob written by saveReplayCheckpoint into
// a freshly initialized meter, returning the stream position to resume from
// and the elapsed time accumulated before the checkpoint. The stored curve
// prefix must agree exactly with the meter's checkpoint schedule — a blob
// from a run with different curve points is rejected, not reinterpreted.
// On error the meter and its algorithm are in an unspecified state; the
// caller falls back to a fresh replay.
func loadReplayCheckpoint(blob []byte, m *costMeter, total int) (int, time.Duration, error) {
	sr := snap.NewReader(bytes.NewReader(blob))
	sr.Expect(ckMagic)
	if v := sr.U8(); sr.Err() == nil && v != ckVersion {
		return 0, 0, snap.Corruptf("sim: checkpoint version %d, this build reads %d", v, ckVersion)
	}
	pos64 := sr.I64()
	npoints := sr.U32()
	if sr.Err() != nil {
		return 0, 0, sr.Err()
	}
	pos := int(pos64)
	if pos64 < 0 || pos > total {
		return 0, 0, snap.Corruptf("sim: checkpoint position %d outside [0,%d]", pos64, total)
	}
	if int(npoints) > len(m.checkpoints) {
		return 0, 0, snap.Corruptf("sim: checkpoint has %d curve points, schedule has %d", npoints, len(m.checkpoints))
	}
	for i := 0; i < int(npoints); i++ {
		x := sr.I64()
		routing := sr.F64()
		reconfig := sr.F64()
		if sr.Err() != nil {
			return 0, 0, sr.Err()
		}
		if int(x) != m.checkpoints[i] || int(x) > pos {
			return 0, 0, snap.Corruptf("sim: checkpoint curve point %d at x=%d does not match schedule point %d", i, x, m.checkpoints[i])
		}
		m.res.Series.X = append(m.res.Series.X, int(x))
		m.res.Series.Routing = append(m.res.Series.Routing, routing)
		m.res.Series.Reconfig = append(m.res.Series.Reconfig, reconfig)
	}
	if int(npoints) < len(m.checkpoints) && m.checkpoints[npoints] <= pos {
		return 0, 0, snap.Corruptf("sim: checkpoint at %d is missing curve point %d", pos, m.checkpoints[npoints])
	}
	elapsed := sr.I64()
	if sr.Err() == nil && elapsed < 0 {
		return 0, 0, snap.Corruptf("sim: negative checkpoint elapsed time %d", elapsed)
	}
	if err := m.inc.Restore(sr); err != nil {
		return 0, 0, err
	}
	sr.VerifyCRC()
	if sr.Err() != nil {
		return 0, 0, sr.Err()
	}
	if got := m.inc.Counters().Served; got != int64(pos) {
		return 0, 0, snap.Corruptf("sim: checkpoint at position %d embeds a snapshot of %d served requests", pos, got)
	}
	m.ci = int(npoints)
	m.nextCP = -1
	if m.ci < len(m.checkpoints) {
		m.nextCP = m.checkpoints[m.ci]
	}
	return pos, time.Duration(elapsed), nil
}
