package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"obm/internal/snap"
	"obm/internal/wal"
)

// frameRecord frames one payload the way wal.Append does (length,
// payload, CRC — all little-endian), for building seed images in memory.
func frameRecord(p []byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	b = append(b, p...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
	return b
}

// validOpSequence is one legal record stream covering all four op types.
func validOpSequence() [][]byte {
	sh := &shardState{
		phase: shardLeased, token: "tok-a", worker: "w0",
		expires: time.Unix(0, 1700000000_000000000), attempts: 1,
	}
	hb := *sh
	hb.done = 3
	return [][]byte{
		walRecInit(4),
		walRecLease(1, sh),
		walRecHeartbeat(1, &hb),
		walRecRequeue(1),
	}
}

// FuzzWALReplay fuzzes the full recovery decode path — wal.Decode framing
// plus the strict walJobState replay — with the invariants recovery
// depends on: never panic, never allocate from attacker-sized lengths,
// classify every non-torn defect as snap.ErrCorrupt, decode
// deterministically, and keep the torn-tail prefix property (the bytes
// before goodEnd always re-decode cleanly to the same state).
func FuzzWALReplay(f *testing.F) {
	recs := validOpSequence()
	full := fuzzSeedLog(f, recs...)
	f.Add(full)
	f.Add(full[:len(full)-3])                        // torn tail inside the last record
	f.Add(full[:9])                                  // torn just past the header
	f.Add([]byte{})                                  // empty file
	f.Add([]byte("OBMWAL1\n"))                       // header only
	f.Add([]byte("not a wal at all"))                // bad header
	f.Add(fuzzSeedLog(f, recs[1]))                   // record before init
	f.Add(fuzzSeedLog(f, recs[0], recs[0]))          // duplicate init
	f.Add(fuzzSeedLog(f, recs[0], recs[1], recs[1])) // double lease of one shard
	f.Add(fuzzSeedLog(f, recs[0], recs[3]))          // requeue of a pending shard
	corrupt := append([]byte(nil), full...)
	corrupt[12] ^= 0xff
	f.Add(corrupt) // CRC mismatch mid-file

	f.Fuzz(func(t *testing.T, data []byte) {
		var st walJobState
		goodEnd, n, err := wal.Decode(data, st.apply)
		if goodEnd < 0 || goodEnd > len(data) {
			t.Fatalf("goodEnd %d out of range [0,%d]", goodEnd, len(data))
		}
		if n < 0 {
			t.Fatalf("negative record count %d", n)
		}
		if err != nil && !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("decode error is not ErrCorrupt: %v", err)
		}
		if st.shards != nil && (len(st.shards) == 0 || len(st.shards) > maxWALShards) {
			t.Fatalf("replayed state has %d shards", len(st.shards))
		}

		// Determinism: the same bytes replay to the same verdict and state.
		var st2 walJobState
		goodEnd2, n2, err2 := wal.Decode(data, st2.apply)
		if goodEnd2 != goodEnd || n2 != n || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic decode: (%d,%d,%v) then (%d,%d,%v)", goodEnd, n, err, goodEnd2, n2, err2)
		}

		// Prefix property: the good region is a self-contained log — what
		// recovery trims to must itself recover, identically.
		if err == nil {
			var st3 walJobState
			goodEnd3, n3, err3 := wal.Decode(data[:goodEnd], st3.apply)
			if err3 != nil || goodEnd3 != goodEnd || n3 != n {
				t.Fatalf("trimmed prefix does not re-decode: (%d,%d,%v), want (%d,%d,nil)", goodEnd3, n3, err3, goodEnd, n)
			}
			if !reflect.DeepEqual(st3.shards, st.shards) {
				t.Fatal("trimmed prefix replays to a different state")
			}
		}
	})
}

// fuzzSeedLog frames payloads for seeding (f.Add needs bytes before any
// t.TempDir exists, so this uses an in-memory frame, not a file).
func fuzzSeedLog(f *testing.F, payloads ...[]byte) []byte {
	f.Helper()
	var buf bytes.Buffer
	buf.WriteString("OBMWAL1\n")
	for _, p := range payloads {
		buf.Write(frameRecord(p))
	}
	return buf.Bytes()
}
