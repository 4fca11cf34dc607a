package verdictstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/solver"
)

// legacyMCRecord is an mc verdict exactly as the store wrote it while
// Stats still carried a stream_version field (the noise stream contract
// echo, since retired). Records already on disk keep that field.
const legacyMCRecord = `{"engine":"mc","config":"7|4000000|4|0|unit||0|0|0|0|false|[]",` +
	`"fingerprint":"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",` +
	`"result":{"status":"UNSATISFIABLE","engine":"mc","wall_ns":2000000,"wall":"2ms",` +
	`"stats":{"samples":150000,"mean":0.0012,"stderr":0.004,"stream_version":2,` +
	`"fill_accel":"none","eval_accel":"none"},"z":0.3}}`

// TestRetiredStatsFieldRecordReplays frames legacyMCRecord by hand
// (length, CRC-32, payload after the magic header) and checks that a
// store opened over it loads the record, serves it on Get, and sees no
// torn tail: the unknown field is ignored, not treated as corruption.
func TestRetiredStatsFieldRecordReplays(t *testing.T) {
	payload := []byte(legacyMCRecord)
	file := []byte(magic)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	file = append(file, payload...)
	path := filepath.Join(t.TempDir(), "legacy.nbl")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 1 || st.TornBytes != 0 {
		t.Fatalf("legacy file: loaded %d records, %d torn bytes; want 1, 0", st.Loaded, st.TornBytes)
	}
	rec, ok := s.Get("mc", solver.Config{Seed: 7}.Key(),
		"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08")
	if !ok {
		t.Fatal("legacy record not served by Get under the current default config key")
	}
	if rec.Result.Status != solver.StatusUnsat || rec.Result.Stats.Samples != 150000 {
		t.Errorf("legacy record replayed as %+v", rec.Result)
	}
}

// TestPutWriteErrorCounted: a Put whose write fails returns the error
// and counts in Stats.WriteErrors without indexing the record.
func TestPutWriteErrorCounted(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := testRecord(0, solver.StatusSat)
	if err := s.Put(rec); err == nil {
		t.Fatal("Put on a closed store must fail")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Appends != 0 || st.Entries != 0 {
		t.Errorf("after a failed Put: %+v, want WriteErrors 1, no appends, no entries", st)
	}
}
